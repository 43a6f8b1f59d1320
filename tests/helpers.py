"""Reference implementations the tests check the package against.

Everything here is deliberately independent of the package's internals:
plain full-scan loops and brute-force filters, no shared data structures.
The one exception is `reference_exact_pareto`, which folds into the
package's `ParetoArchive` so that its first-seen witnesses can be compared
with the pruned oracle's bin for bin.
"""

from __future__ import annotations

import random
from fractions import Fraction

from bibinpack.archive import ParetoArchive
from bibinpack.model import Bin, Instance, Item, ObjectiveVector, Solution


def random_instance(
    rng: random.Random,
    n: int,
    capacity: int = 100,
    weight_range: tuple[int, int] = (10, 60),
    attribute_pool: str = "ABC",
) -> Instance:
    items = tuple(
        Item(weight=rng.randint(*weight_range), attribute=rng.choice(attribute_pool))
        for _ in range(n)
    )
    return Instance(capacity=capacity, items=items)


def classic_best_fit(instance: Instance, item_order: list[int]) -> list[list[int]]:
    """Textbook attribute-blind best fit: fullest feasible bin, lowest index on ties."""
    bins: list[list[int]] = []
    loads: list[int] = []
    for item_id in item_order:
        weight = instance.items[item_id].weight
        best = None
        best_load = -1
        for index, load in enumerate(loads):
            if load + weight <= instance.capacity and load > best_load:
                best = index
                best_load = load
        if best is None:
            bins.append([item_id])
            loads.append(weight)
        else:
            bins[best].append(item_id)
            loads[best] += weight
    return bins


def reference_construct(
    instance: Instance,
    heuristic: str,
    ordering: str,
    level: Fraction,
    rng: random.Random,
) -> list[list[int]]:
    """One packing built the plain way: bins as lists, a full scan per item.

    Restates the construction rules on their own: ids ordered by (-weight, id),
    (weight, id) or a shuffle; a per-item cap of floor(level), raised by one
    with probability equal to the fractional part (drawn only when that part is
    non-zero); candidates are the bins with room whose distinct attributes
    stay within the cap, ordered by (residual, index). Best-fit takes the
    first candidate, random-fit draws one with `rng.choice`, and no candidate
    opens a new bin. Returns the bins' member ids in opening order.
    """
    items = instance.items
    ids = list(range(instance.n))
    if ordering == "decreasing":
        ids.sort(key=lambda i: (-items[i].weight, i))
    elif ordering == "increasing":
        ids.sort(key=lambda i: (items[i].weight, i))
    else:
        rng.shuffle(ids)
    whole, part = divmod(level, 1)
    bins: list[list[int]] = []
    for item_id in ids:
        item = items[item_id]
        cap = whole + 1 if part and rng.random() < float(part) else whole
        candidates = []
        for index, members in enumerate(bins):
            residual = instance.capacity - sum(items[i].weight for i in members)
            attributes = {items[i].attribute for i in members} | {item.attribute}
            if item.weight <= residual and len(attributes) <= cap:
                candidates.append((residual, index))
        candidates.sort()
        if not candidates:
            bins.append([item_id])
        elif heuristic == "best-fit":
            bins[candidates[0][1]].append(item_id)
        else:
            bins[rng.choice(candidates)[1]].append(item_id)
    return bins


def recount_objectives(solution: Solution) -> tuple[int, Fraction]:
    """Recompute both objectives straight from member ids and raw items."""
    instance = solution.instance
    used = len(solution.bins)
    mixing = 0
    for used_bin in solution.bins:
        mixing += len({instance.items[i].attribute for i in used_bin.member_ids})
    return used, Fraction(mixing, used)


def brute_force_front(vectors: list) -> set:
    """Non-dominated subset by pairwise comparison, coded inline."""
    front = set()
    for v in vectors:
        beaten = any(
            w.z1 <= v.z1 and w.z2 <= v.z2 and (w.z1 < v.z1 or w.z2 < v.z2)
            for w in vectors
        )
        if not beaten:
            front.add(v)
    return front


def reference_exact_pareto(instance: Instance) -> list[tuple[ObjectiveVector, Solution]]:
    """The oracle without its prune: offer every capacity-feasible partition.

    Enumerates set partitions in restricted-growth order (each item joins an
    existing block or opens the next one), skipping blocks over capacity,
    and folds every complete partition into a `ParetoArchive` with its block
    labels as the witness. Results are sorted by ascending bin count.
    """
    n = instance.n
    weights = [item.weight for item in instance.items]
    attributes = [item.attribute for item in instance.items]
    capacity = instance.capacity
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
