from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from bibinpack.archive import ParetoArchive
from bibinpack.model import Bin, Instance, Item, ObjectiveVector, Solution

from helpers import ReferenceArchive, brute_force_front

# archive entries need some witness; the packing itself is irrelevant here
_INSTANCE = Instance(capacity=10, items=(Item(5, "A"),))
_WITNESS = Solution(bins=(Bin(frozenset({0})),), instance=_INSTANCE)


def vec(z1: int, z2) -> ObjectiveVector:
    return ObjectiveVector(z1, Fraction(z2))


def filled(vectors) -> ParetoArchive:
    archive = ParetoArchive()
    for vector in vectors:
        archive.update(vector, _WITNESS)
    return archive


def test_update_into_empty_accepts():
    archive = ParetoArchive()
    assert archive.update(vec(22, 1), _WITNESS)
    assert archive.vectors() == [vec(22, 1)]


def test_update_evicts_dominated_entry():
    archive = filled([vec(21, "1.952")])
    assert archive.update(vec(21, "1.190"), _WITNESS)
    assert archive.vectors() == [vec(21, "1.190")]


def test_update_keeps_incomparable_entries():
    archive = filled([vec(22, 1)])
    assert archive.update(vec(21, "1.190"), _WITNESS)
    assert set(archive.vectors()) == {vec(22, 1), vec(21, "1.190")}


def test_update_rejects_dominated_candidate():
    archive = filled([vec(21, "1.190")])
    assert not archive.update(vec(21, "1.952"), _WITNESS)
    assert archive.vectors() == [vec(21, "1.190")]


def test_update_is_idempotent_and_keeps_first_witness():
    archive = ParetoArchive()
    first = Solution(bins=(Bin(frozenset({0})),), instance=_INSTANCE)
    second = Solution(bins=(Bin(frozenset({0})),), instance=_INSTANCE)
    assert archive.update(vec(5, "1.5"), first)
    assert not archive.update(vec(5, "1.5"), second)
    ((_, witness),) = list(archive)
    assert witness is first


def test_sorted_entries_order():
    archive = filled([vec(3, "1.8"), vec(5, 1), vec(4, "1.2")])
    ordered = [vector for vector, _ in archive.sorted_entries()]
    assert ordered == [vec(5, 1), vec(4, "1.2"), vec(3, "1.8")]


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
