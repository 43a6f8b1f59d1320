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
    `k` bins between `max(used, ceil(W / C))` and `used + n - j`. It adds at
    least `max(k - used, u)` (bin, attribute) pairs, where `u` counts the
    distinct attributes of the unplaced items that no open bin holds: each
    new bin holds at least one attribute, and each such attribute needs a
    pair of its own, but a new bin's first pair may be one of them. So its
    z2 is at least `(S + max(k - used, u)) / k`. The least z2 of the archive
    entries with `z1 <= k` is kept per `k` in a table, rebuilt only when the
    archive accepts a partition, so the test costs one comparison per `k`.
    When that least z2 is within the bound for every such `k`, `update`
    would reject every completion, so skipping them is exact: an entry is
    only ever evicted by one that dominates it, hence the vectors, the
    first-seen witnesses and their bin order are those of the plain
    enumeration.

    When every item has its own attribute the bound is exact and few
    partitions are offered (54 at n = 10, against Bell(10) = 115,975
    partitions). The cap is set by generated instances instead, whose
    cost still grows steeply: at seed 7, n = 15 takes about 0.6 s and
    n = 20 about 100 s.
    """
    n = instance.n
    if n > MAX_ITEMS:
        raise ValueError(f"instance has {n} items; exact enumeration is capped at {MAX_ITEMS}")
    weights = [item.weight for item in instance.items]
    attributes = [item.attribute for item in instance.items]
    capacity = instance.capacity
    fewest_bins = -(-sum(weights) // capacity)
    unplaced = [set(attributes[j:]) for j in range(n + 1)]

    # the witness is the block label of each item; summed heterogeneousness is
    # the number of distinct (block, attribute) pairs, tracked per block, and
    # holders counts the open blocks holding each attribute
    archive = ParetoArchive()
    labels: list[int] = []
    loads: list[int] = []
    mixes: list[set[str]] = []
    holders = dict.fromkeys(instance.attribute_universe, 0)
    # best[k] is the least z2 of an archive entry with z1 <= k, as a
    # (numerator, denominator) pair; (1, 0) means none and beats no bound
    best = [(1, 0)] * (n + 1)

    def offer(mixing: int) -> None:
        used = len(loads)
        if archive.update(ObjectiveVector(used, Fraction(mixing, used)), tuple(labels)):
            # the archive is an antichain, so z2 falls as z1 grows
            at = {vector.z1: vector.z2 for vector in archive.vectors()}
            least = (1, 0)
            for k in range(n + 1):
                if k in at:
                    least = (at[k].numerator, at[k].denominator)
                best[k] = least

    def hopeless(j: int, mixing: int) -> bool:
        used = len(loads)
        unseen = sum(1 for attribute in unplaced[j] if not holders[attribute])
        for k in range(max(used, fewest_bins), used + n - j + 1):
            # z2 >= (mixing + max(k - used, unseen)) / k, compared without a Fraction
            numerator, denominator = best[k]
            if numerator * k > (mixing + max(k - used, unseen)) * denominator:
                return False
        return True

    def extend(j: int, mixing: int) -> None:
        if j == n:
            offer(mixing)
            return
        if hopeless(j, mixing):
            return
        weight = weights[j]
        attribute = attributes[j]
        for b in range(len(loads)):
            if loads[b] + weight <= capacity:
                fresh = attribute not in mixes[b]
                if fresh:
                    mixes[b].add(attribute)
                    holders[attribute] += 1
                labels.append(b)
                loads[b] += weight
                extend(j + 1, mixing + fresh)
                labels.pop()
                loads[b] -= weight
                if fresh:
                    mixes[b].discard(attribute)
                    holders[attribute] -= 1
        labels.append(len(loads))
        loads.append(weight)
        mixes.append({attribute})
        holders[attribute] += 1
        extend(j + 1, mixing + 1)
        labels.pop()
        loads.pop()
        mixes.pop()
        holders[attribute] -= 1

    extend(0, 0)
    results: list[tuple[ObjectiveVector, Solution]] = []
    for vector, witness in sorted(archive, key=lambda entry: entry[0].z1):
        blocks: list[list[int]] = [[] for _ in range(vector.z1)]
        for item_id, label in enumerate(witness):
            blocks[label].append(item_id)
        bins = tuple(Bin(frozenset(block)) for block in blocks)
        results.append((vector, Solution(bins=bins, instance=instance)))
    return results
