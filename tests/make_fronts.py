"""Golden-front corpus: the archive of every sweep in a fixed grid, pinned.

Usage: python tests/make_fronts.py

`build_corpus()` runs `run_sweep` on `generate_instance(n, seed)` for every
size, seed, heuristic, ordering and step below, with `rng_seed=seed` and
three repetitions per level. For each sweep it records every archive entry
in archive order as `[z1, "p/q", digest]`: the bin count, the exact mean
heterogeneousness, and a sha256 over the witness's bins as sorted member id
lists, in bin order. This script writes the result to `tests/data/fronts.json`,
and `tests/test_fronts.py` rebuilds it and compares. A change that moves a
front on purpose regenerates the file and says why.
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from bibinpack.construct import Heuristic, Ordering, SweepParams, run_sweep
from bibinpack.instances import generate_instance
from bibinpack.model import Solution

CORPUS = Path(__file__).resolve().parent / "data" / "fronts.json"
SIZES = (20, 100, 200, 1000)
SEEDS = (0, 1, 2)
STEPS = (Fraction(1, 10), Fraction(1, 3), Fraction(1))
REPS = 3


def witness_digest(solution: Solution) -> str:
    bins = [sorted(b.member_ids) for b in solution.bins]
    return hashlib.sha256(json.dumps(bins, separators=(",", ":")).encode()).hexdigest()


def build_corpus() -> dict[str, list[list]]:
    """Every sweep's archive, keyed by "n=<n> seed=<seed> <heuristic>/<ordering> step=<step>"."""
    corpus = {}
    for n in SIZES:
        for seed in SEEDS:
            instance = generate_instance(n, seed)
            for heuristic in Heuristic:
                for ordering in Ordering:
                    for step in STEPS:
                        params = SweepParams(step=step, solutions_per_level=REPS, rng_seed=seed,
                                             heuristic=heuristic, ordering=ordering)
                        key = f"n={n} seed={seed} {heuristic.value}/{ordering.value} step={step}"
                        corpus[key] = [
                            [vector.z1, f"{vector.z2.numerator}/{vector.z2.denominator}",
                             witness_digest(solution)]
                            for vector, solution in run_sweep(instance, params)
                        ]
    return corpus


def main() -> int:
    corpus = build_corpus()
    # one sweep per line, so a diff of the file names the sweeps that moved
    lines = [f"{json.dumps(key)}: {json.dumps(entries)}" for key, entries in corpus.items()]
    CORPUS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(corpus)} sweeps to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
