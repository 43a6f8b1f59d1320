"""Exact efficient sets for small instances by bound-pruned partition enumeration."""

from __future__ import annotations

from fractions import Fraction

from .archive import ParetoArchive
from .model import Bin, Instance, ObjectiveVector, Solution

MAX_ITEMS = 20


def exact_pareto(instance: Instance) -> list[tuple[ObjectiveVector, Solution]]:
    """Every efficient objective vector, each with one witness packing.

    Enumerates set partitions of the items, heaviest first (ties in id
    order, the instance's `heaviest_first`), in restricted-growth order
    (each item joins an existing block or opens the next one, so bin
    symmetry never produces duplicates), skipping any block that would
    exceed capacity, and folds each complete partition into a
    `ParetoArchive`. Each open block keeps its attributes as one bitmask of
    the instance's `attribute_bit`s, so the summed heterogeneousness `S`
    grows by one exactly when an item's bit is new to its block. Results
    come in ascending bin count, the order the archive keeps its entries in.

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
    their bin order are those of the plain enumeration. A complete partition
    is settled by the table too: z2 descends along the archive's z1 order,
    so `update` tests `(used, z)` against the entry with the least z2 among
    `z1 <= used`, and only a partition below it is offered. Every offer is
    accepted.

    When every item has its own attribute the bound is exact and the search
    stays small (212 nodes at n = 10, against Bell(10) = 115,975
    partitions). Heavy items first fill bins early, so the table prunes
    sooner. The cap is set by generated instances, whose cost grows steeply
    with the nodes: on a 2-core host, n = 15 over seeds 0-29 takes 0.24 s in
    all (3.0 s in id order), and n = 20 takes 18 s in all, with a median of
    0.27 s and a maximum of 4.7 s per instance.
    """
    n = instance.n
    if n > MAX_ITEMS:
        raise ValueError(f"instance has {n} items; exact enumeration is capped at {MAX_ITEMS}")
    # order[p] is the item placed p-th
    order = instance.heaviest_first
    weights = [instance.items[item_id].weight for item_id in order]
    attributes = [instance.items[item_id].attribute for item_id in order]
    bits = [instance.attribute_bit[attribute] for attribute in attributes]
    capacity = instance.capacity
    fewest_bins = instance.lower_bound
    # the attributes of items j onwards that none of the first j items has
    unseen = [len(set(attributes[j:]) - set(attributes[:j])) for j in range(n + 1)]

    # labels is the witness; the slots from `used` on are empty blocks
    archive = ParetoArchive()
    labels = [0] * n
    loads = [0] * n
    masks = [0] * n
    # best[k] is the least z2 of an archive entry with z1 <= k, as a
    # (numerator, denominator) pair; (1, 0) means none and beats no bound
    best = [(1, 0)] * (n + 1)

    def extend(j: int, used: int, mixing: int) -> None:
        if j == n:
            numerator, denominator = best[used]
            if numerator * used > mixing * denominator and archive.update(
                ObjectiveVector(used, Fraction(mixing, used)), tuple(labels)
            ):
                for k in range(used, n + 1):
                    numerator, denominator = best[k]
                    if mixing * denominator < numerator * used:
                        best[k] = (mixing, used)
            return
        extra = unseen[j]
        for k in range(used if used > fewest_bins else fewest_bins, used + n - j + 1):
            # z2 >= (mixing + max(k - used, extra)) / k, compared without a Fraction
            numerator, denominator = best[k]
            if numerator * k > (mixing + (k - used if k - used > extra else extra)) * denominator:
                break
        else:
            return
        weight = weights[j]
        bit = bits[j]
        # the last turn fills the empty slot `used` like an open block
        for b in range(used + 1):
            load = loads[b]
            if load + weight <= capacity:
                mask = masks[b]
                labels[j] = b
                loads[b] = load + weight
                masks[b] = mask | bit
                extend(j + 1, used + (b == used), mixing + (mask & bit == 0))
                loads[b] = load
                masks[b] = mask

    extend(0, 0, 0)
    results: list[tuple[ObjectiveVector, Solution]] = []
    for vector, witness in archive:
        blocks: list[list[int]] = [[] for _ in range(vector.z1)]
        for item_id, label in zip(order, witness):
            blocks[label].append(item_id)
        bins = tuple(Bin(frozenset(block)) for block in blocks)
        results.append((vector, Solution(bins=bins, instance=instance)))
    return results
