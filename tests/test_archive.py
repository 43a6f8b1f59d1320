from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from bibinpack.archive import ParetoArchive
from bibinpack.model import ObjectiveVector

from helpers import ReferenceArchive, brute_force_front

# z2 = a / z1 with small a: equal z1s, equal z2s across z1s and repeated vectors all occur
offers = st.lists(
    st.builds(
        lambda z1, a: ObjectiveVector(z1, Fraction(a, z1)),
        st.integers(1, 6),
        st.integers(1, 12),
    ),
    max_size=40,
)


@settings(deadline=None, max_examples=300)
@given(offers)
def test_update_matches_linear_scan_reference(vectors):
    archive = ParetoArchive()
    reference = ReferenceArchive()
    for vector in vectors:
        # a fresh witness per offer, so identity shows which offer was kept
        witness = object()
        assert archive.update(vector, witness) == reference.update(vector, witness)
        kept = list(archive)
        assert {(v, id(w)) for v, w in kept} == {(v, id(w)) for v, w in reference.entries}
        z1s = [v.z1 for v, _ in kept]
        assert all(a < b for a, b in zip(z1s, z1s[1:]))
    assert archive.sorted_entries() == reference.sorted_entries()
    assert set(archive.vectors()) == brute_force_front(vectors)
