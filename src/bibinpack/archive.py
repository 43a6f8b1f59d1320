"""Non-dominated archive of evaluated packings."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterator

from .model import ObjectiveVector


class ParetoArchive:
    """Mutable antichain of (objective vector, witness) pairs.

    The witness is opaque to the archive: sweeps store a `Solution`, the
    oracle a compact label tuple. On identical vectors the first-seen
    witness is kept, so a seeded run always reports the same packings.
    Entries are kept in ascending z1, so on an antichain their z2 strictly
    descends, and an offer is settled by one bisection on z1.
    """

    def __init__(self) -> None:
        self._entries: list[tuple[ObjectiveVector, Any]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[tuple[ObjectiveVector, Any]]:
        return iter(self._entries)

    def vectors(self) -> list[ObjectiveVector]:
        return [vector for vector, _ in self._entries]

    def update(self, vector: ObjectiveVector, witness: Any) -> bool:
        """Offer a candidate, evicting every entry it dominates.

        Returns True when the candidate joined the archive, False when an
        existing entry dominates or equals it (making update idempotent).
        """
        entries = self._entries
        z1, z2 = vector.z1, vector.z2
        end = bisect_right(entries, z1, key=_z1)
        # of the entries with no greater z1, the last has the least z2, so it
        # alone decides whether one of them dominates or equals the candidate
        if end and entries[end - 1][0].z2 <= z2:
            return False
        # the entries the candidate dominates (no less in both objectives) form
        # one run that starts at the first entry with no less z1
        start = stop = bisect_left(entries, z1, 0, end, key=_z1)
        while stop < len(entries) and entries[stop][0].z2 >= z2:
            stop += 1
        entries[start:stop] = [(vector, witness)]
        return True

    def sorted_entries(self) -> list[tuple[ObjectiveVector, Any]]:
        """Entries in reporting order: bin count descending, heterogeneousness ascending."""
        return self._entries[::-1]


def _z1(entry: tuple[ObjectiveVector, Any]) -> int:
    return entry[0].z1
