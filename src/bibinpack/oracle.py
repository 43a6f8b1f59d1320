"""Exact efficient sets for small instances by exhaustive partition enumeration."""

from __future__ import annotations

from fractions import Fraction

from .archive import ParetoArchive
from .model import Bin, Instance, ObjectiveVector, Solution

MAX_ITEMS = 10


def exact_pareto(instance: Instance) -> list[tuple[ObjectiveVector, Solution]]:
    """Every efficient objective vector, each with one witness packing.

    Enumerates set partitions of the items in restricted-growth order (each
    item joins an existing block or opens the next one, so bin symmetry never
    produces duplicates), pruning any block that would exceed capacity. Meant
    as ground truth for tests; cost grows like the Bell numbers, hence the
    item cap. Results are sorted by ascending bin count.
    """
    n = instance.n
    if n > MAX_ITEMS:
        raise ValueError(f"instance has {n} items; exact enumeration is capped at {MAX_ITEMS}")
    weights = [item.weight for item in instance.items]
    attributes = [item.attribute for item in instance.items]
    capacity = instance.capacity

    # the witness is the block label of each item; summed heterogeneousness is
    # the number of distinct (block, attribute) pairs
    archive = ParetoArchive()
    labels: list[int] = []
    loads: list[int] = []

    def extend(j: int) -> None:
        if j == n:
            used = len(loads)
            mixing = len(set(zip(labels, attributes)))
            archive.update(ObjectiveVector(used, Fraction(mixing, used)), tuple(labels))
            return
        weight = weights[j]
        for b in range(len(loads)):
            if loads[b] + weight <= capacity:
                labels.append(b)
                loads[b] += weight
                extend(j + 1)
                labels.pop()
                loads[b] -= weight
        labels.append(len(loads))
        loads.append(weight)
        extend(j + 1)
        labels.pop()
        loads.pop()

    extend(0)
    results: list[tuple[ObjectiveVector, Solution]] = []
    for vector, witness in sorted(archive, key=lambda entry: entry[0].z1):
        blocks: list[list[int]] = [[] for _ in range(vector.z1)]
        for item_id, label in enumerate(witness):
            blocks[label].append(item_id)
        bins = tuple(Bin(frozenset(block)) for block in blocks)
        results.append((vector, Solution(bins=bins, instance=instance)))
    return results
