from __future__ import annotations

import json

from make_fronts import CORPUS, build_corpus


def test_sweep_fronts_match_the_golden_corpus():
    # regenerate with `python tests/make_fronts.py` only when a front moves on purpose
    expected = json.loads(CORPUS.read_text(encoding="utf-8"))
    actual = build_corpus()
    first = next((key for key in [*expected, *actual] if expected.get(key) != actual.get(key)),
                 None)
    assert first is None, f"{first}: expected {expected.get(first)}, got {actual.get(first)}"
