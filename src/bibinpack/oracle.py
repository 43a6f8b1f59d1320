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
    folds each complete partition into a `ParetoArchive`. Each open block
    keeps its attributes as one bitmask, so the summed heterogeneousness `S`
    grows by one exactly when an item's bit is new to its block. Results come
    in ascending bin count, the order the archive keeps its entries in.

    A partial partition is dropped once the archive weakly dominates every
    vector a completion of it could reach. With `used` bins open and `j`
    items placed, a completion ends with some `k` bins between
    `max(used, ceil(W / C))` and `used + n - j`. It adds at least
    `max(k - used, u)` (bin, attribute) pairs, where `u` counts the distinct
    attributes of the unplaced items that no open bin holds: each new bin
    holds at least one attribute, and each such attribute needs a pair of
    its own, but a new bin's first pair may be one of them. So its z2 is at
    least `(S + max(k - used, u)) / k`. The open bins hold exactly the
    attributes of the placed items, so `u` depends on `j` alone and is
    counted in advance.

    The bound is tested against a table of the least z2 of the archive
    entries with `z1 <= k`, one comparison per `k`. The table is a running
    minimum: accepting `(used, z)` lowers each entry from `k = used` on to
    at most `z` and leaves the rest, which is exact because every entry the
    new one evicts has `z1 >= used` and a z2 of at least `z`. When the least
    z2 is within the bound for every such `k`, `update` would reject every
    completion, so skipping them is exact: an entry is only ever evicted by
    one that dominates it, hence the vectors, the first-seen witnesses and
    their bin order are those of the plain enumeration.

    When every item has its own attribute the bound is exact and few
    partitions are offered (54 at n = 10, against Bell(10) = 115,975
    partitions). Each offer costs the archive one bisection, so the search
    nodes set the cost. The cap is set by generated instances instead,
    whose cost still grows steeply: at seed 7, n = 15 takes about 0.3 s
    and n = 20 about 60 s.
    """
    n = instance.n
    if n > MAX_ITEMS:
        raise ValueError(f"instance has {n} items; exact enumeration is capped at {MAX_ITEMS}")
    weights = [item.weight for item in instance.items]
    attributes = [item.attribute for item in instance.items]
    # each attribute's bit is numbered by its first item
    bits = [1 << attributes.index(attribute) for attribute in attributes]
    capacity = instance.capacity
    fewest_bins = instance.lower_bound
    # the attributes of items j onwards that none of the first j items has
    unseen = [len(set(attributes[j:]) - set(attributes[:j])) for j in range(n + 1)]

    # the witness is the block label of each item
    archive = ParetoArchive()
    labels: list[int] = []
    loads: list[int] = []
    masks: list[int] = []
    # best[k] is the least z2 of an archive entry with z1 <= k, as a
    # (numerator, denominator) pair; (1, 0) means none and beats no bound
    best = [(1, 0)] * (n + 1)

    def extend(j: int, mixing: int) -> None:
        used = len(loads)
        if j == n:
            if archive.update(ObjectiveVector(used, Fraction(mixing, used)), tuple(labels)):
                for k in range(used, n + 1):
                    numerator, denominator = best[k]
                    if mixing * denominator < numerator * used:
                        best[k] = (mixing, used)
            return
        extra = unseen[j]
        for k in range(max(used, fewest_bins), used + n - j + 1):
            # z2 >= (mixing + max(k - used, extra)) / k, compared without a Fraction
            numerator, denominator = best[k]
            if numerator * k > (mixing + (k - used if k - used > extra else extra)) * denominator:
                break
        else:
            return
        weight = weights[j]
        bit = bits[j]
        for b in range(used + 1):
            if b == used:
                # the last turn fills a new, empty block like an open one
                loads.append(0)
                masks.append(0)
            if loads[b] + weight <= capacity:
                mask = masks[b]
                labels.append(b)
                loads[b] += weight
                masks[b] = mask | bit
                extend(j + 1, mixing + (mask & bit == 0))
                labels.pop()
                loads[b] -= weight
                masks[b] = mask
        loads.pop()
        masks.pop()

    extend(0, 0)
    results: list[tuple[ObjectiveVector, Solution]] = []
    for vector, witness in archive:
        blocks: list[list[int]] = [[] for _ in range(vector.z1)]
        for item_id, label in enumerate(witness):
            blocks[label].append(item_id)
        bins = tuple(Bin(frozenset(block)) for block in blocks)
        results.append((vector, Solution(bins=bins, instance=instance)))
    return results
