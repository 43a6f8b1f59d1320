from __future__ import annotations

import random
from fractions import Fraction

from bibinpack.archive import ParetoArchive
from bibinpack.model import Bin, Instance, Item, ObjectiveVector, Solution

from helpers import brute_force_front

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


def test_archive_stays_antichain_under_random_updates():
    rng = random.Random(99)
    for _ in range(50):
        archive = ParetoArchive()
        for _ in range(200):
            archive.update(vec(rng.randint(1, 30), Fraction(rng.randint(10, 50), 10)), _WITNESS)
        vectors = archive.vectors()
        assert len(set(vectors)) == len(vectors)
        assert brute_force_front(vectors) == set(vectors)


def test_sorted_entries_order():
    archive = filled([vec(3, "1.8"), vec(5, 1), vec(4, "1.2")])
    ordered = [vector for vector, _ in archive.sorted_entries()]
    assert ordered == [vec(5, 1), vec(4, "1.2"), vec(3, "1.8")]
