"""Non-dominated archive of evaluated packings."""

from __future__ import annotations

from typing import Any, Iterator

from .model import ObjectiveVector, dominates


class ParetoArchive:
    """Mutable antichain of (objective vector, witness) pairs.

    The witness is opaque to the archive: sweeps store a `Solution`, the
    oracle a compact label tuple. On identical vectors the first-seen
    witness is kept, so a seeded run always reports the same packings.
    Dominance checks are linear scans; archives for this problem stay tiny.
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
        for incumbent, _ in self._entries:
            if incumbent == vector or dominates(incumbent, vector):
                return False
        self._entries = [(v, s) for v, s in self._entries if not dominates(vector, v)]
        self._entries.append((vector, witness))
        return True

    def sorted_entries(self) -> list[tuple[ObjectiveVector, Any]]:
        """Entries in reporting order: bin count descending, heterogeneousness ascending."""
        return sorted(self._entries, key=lambda entry: (-entry[0].z1, entry[0].z2))
