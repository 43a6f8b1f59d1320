"""Exact efficient sets for small instances by bound-pruned partition enumeration."""

from __future__ import annotations

from fractions import Fraction

from .archive import ParetoArchive
from .model import Bin, Instance, ObjectiveVector, Solution

MAX_ITEMS = 10


def exact_pareto(instance: Instance) -> list[tuple[ObjectiveVector, Solution]]:
    """Every efficient objective vector, each with one witness packing.

    Enumerates set partitions of the items in restricted-growth order (each
    item joins an existing block or opens the next one, so bin symmetry never
    produces duplicates), skipping any block that would exceed capacity, and
    folds each complete partition into a `ParetoArchive`. Results are sorted
    by ascending bin count.

    A partial partition is dropped once the archive weakly dominates every
    vector a completion of it could reach. With `used` bins open, summed
    heterogeneousness `S` and `j` items placed, a completion ends with some
    `k` bins between `max(used, ceil(W / C))` and `used + n - j`, and each
    bin it opens adds at least one attribute, so its z2 is at least
    `(S + k - used) / k`. When an archive entry weakly dominates that bound
    for every such `k`, `update` would reject every completion, so skipping
    them is exact: an entry is only ever evicted by one that dominates it,
    hence the vectors, the first-seen witnesses and their bin order are
    those of the plain enumeration.

    The prune never fires when every item has its own attribute and all fit
    in one bin (each `(k, n / k)` is then efficient), so the worst case
    still visits every partition; their number grows like the Bell numbers
    (Bell(10) is 115,975, Bell(14) about 1.9 * 10**8), hence the item cap.
    """
    n = instance.n
    if n > MAX_ITEMS:
        raise ValueError(f"instance has {n} items; exact enumeration is capped at {MAX_ITEMS}")
    weights = [item.weight for item in instance.items]
    attributes = [item.attribute for item in instance.items]
    capacity = instance.capacity
    fewest_bins = -(-sum(weights) // capacity)

    # the witness is the block label of each item; summed heterogeneousness is
    # the number of distinct (block, attribute) pairs, tracked per block
    archive = ParetoArchive()
    labels: list[int] = []
    loads: list[int] = []
    mixes: list[set[str]] = []

    def hopeless(j: int, mixing: int) -> bool:
        used = len(loads)
        for k in range(max(used, fewest_bins), used + n - j + 1):
            # the bound z2 >= (mixing + k - used) / k, compared without a Fraction
            floor = mixing + k - used
            if not any(
                vector.z1 <= k and vector.z2.numerator * k <= floor * vector.z2.denominator
                for vector, _ in archive
            ):
                return False
        return True

    def extend(j: int, mixing: int) -> None:
        if j == n:
            used = len(loads)
            archive.update(ObjectiveVector(used, Fraction(mixing, used)), tuple(labels))
            return
        if hopeless(j, mixing):
            return
        weight = weights[j]
        attribute = attributes[j]
        for b in range(len(loads)):
            if loads[b] + weight <= capacity:
                fresh = attribute not in mixes[b]
                mixes[b].add(attribute)
                labels.append(b)
                loads[b] += weight
                extend(j + 1, mixing + fresh)
                labels.pop()
                loads[b] -= weight
                if fresh:
                    mixes[b].discard(attribute)
        labels.append(len(loads))
        loads.append(weight)
        mixes.append({attribute})
        extend(j + 1, mixing + 1)
        labels.pop()
        loads.pop()
        mixes.pop()

    extend(0, 0)
    results: list[tuple[ObjectiveVector, Solution]] = []
    for vector, witness in sorted(archive, key=lambda entry: entry[0].z1):
        blocks: list[list[int]] = [[] for _ in range(vector.z1)]
        for item_id, label in enumerate(witness):
            blocks[label].append(item_id)
        bins = tuple(Bin(frozenset(block)) for block in blocks)
        results.append((vector, Solution(bins=bins, instance=instance)))
    return results
