"""Reference implementations the tests check the package against, and the
checks that several test modules share.

Every reference here is deliberately independent of the package's internals:
plain full-scan loops, brute-force filters and an integer program, no shared
data structures. The one exception is `reference_exact_pareto`, which folds
into the package's `ParetoArchive` so that its first-seen witnesses can be
compared with the pruned oracle's bin for bin; it offers that class every
capacity-feasible partition, which `tests/test_oracle.py` counts.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from bibinpack.archive import ParetoArchive
from bibinpack.construct import SweepParams
from bibinpack.model import (
    Bin,
    Instance,
    Item,
    ObjectiveVector,
    Solution,
    dominates,
    evaluate,
    validate_solution,
)


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


def check_front(front: list[tuple[ObjectiveVector, Solution]]) -> None:
    """Assert each witness is a valid packing that evaluates to its vector."""
    for vector, witness in front:
        validate_solution(witness)
        assert evaluate(witness) == vector


def classic_best_fit(instance: Instance, item_order: Sequence[int]) -> list[list[int]]:
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


class ReferenceArchive:
    """The archive as a plain linear scan: reject on an equal or dominating
    entry, evict every entry the candidate dominates, append on accept."""

    def __init__(self) -> None:
        self.entries: list = []

    def update(self, vector: ObjectiveVector, witness) -> bool:
        for incumbent, _ in self.entries:
            if incumbent == vector or dominates(incumbent, vector):
                return False
        self.entries = [(v, w) for v, w in self.entries if not dominates(vector, v)]
        self.entries.append((vector, witness))
        return True

    def sorted_entries(self) -> list:
        return sorted(self.entries, key=lambda entry: (-entry[0].z1, entry[0].z2))


def reference_sweep(instance: Instance, params: SweepParams) -> ReferenceArchive:
    """The sweep `params` describes, as a plain fold into a `ReferenceArchive`:
    levels 1, 1 + step, ... up to the attribute count, by exact addition; each
    packing built by `reference_construct` from its own stream, seeded by
    (seed, level index, repetition), and offered with its objectives recounted."""
    archive = ReferenceArchive()
    level, level_index = Fraction(1), 0
    while level <= len({item.attribute for item in instance.items}):
        for repetition in range(params.solutions_per_level):
            mixed = params.rng_seed * 0x9E3779B97F4A7C15 + level_index * 0x100000001B3 + repetition
            rng = random.Random(mixed & 0xFFFFFFFFFFFFFFFF)
            bins = reference_construct(instance, params.heuristic, params.ordering, level, rng)
            solution = Solution(tuple(Bin(frozenset(ids)) for ids in bins), instance)
            archive.update(ObjectiveVector(*recount_objectives(solution)), solution)
        level += params.step
        level_index += 1
    return archive


def reference_exact_pareto(instance: Instance) -> list[tuple[ObjectiveVector, Solution]]:
    """The oracle without its prune: offer every capacity-feasible partition.

    Enumerates set partitions in restricted-growth order (each item joins an
    existing block or opens the next one), skipping blocks over capacity,
    and folds every complete partition into a `ParetoArchive` with its block
    labels as the witness. Results are sorted by ascending bin count.
    """
    n = instance.n
    # the oracle's order: heaviest first, ties in id order
    order = sorted(range(n), key=lambda item_id: -instance.items[item_id].weight)
    weights = [instance.items[item_id].weight for item_id in order]
    attributes = [instance.items[item_id].attribute for item_id in order]
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
        for item_id, label in zip(order, witness):
            blocks[label].append(item_id)
        bins = tuple(Bin(frozenset(block)) for block in blocks)
        results.append((vector, Solution(bins=bins, instance=instance)))
    return results


def milp_front(instance: Instance) -> set[ObjectiveVector]:
    """The efficient set from one integer program per bin count `k`.

    `x[i, b]` puts item i in bin b and `y[a, b]` marks attribute a as present
    in bin b. Each item is in exactly one bin, each bin holds at most the
    capacity and at least one item, an item needs its attribute's mark in its
    bin, and item i goes to a bin no later than i, which breaks the symmetry
    between bins. The least number of marks over exactly k bins gives the
    vector `(k, marks / k)`.
    The search stops at the first k whose least z2 is 1, as more bins cannot
    beat it. Solved by HiGHS through `scipy.optimize.milp`.
    """
    import numpy as np
    from scipy.optimize import LinearConstraint, milp

    n = instance.n
    weights = [item.weight for item in instance.items]
    universe = sorted({item.attribute for item in instance.items})
    attribute_of = [universe.index(item.attribute) for item in instance.items]
    vectors = []
    for k in range(-(-sum(weights) // instance.capacity), n + 1):
        # x[i, b] is variable i * k + b; y[a, b] is n * k + a * k + b
        count = (n + len(universe)) * k
        rows, lower, upper = [], [], []

        def constrain(coefficients: dict[int, int], low: float, high: float) -> None:
            row = np.zeros(count)
            for variable, coefficient in coefficients.items():
                row[variable] = coefficient
            rows.append(row)
            lower.append(low)
            upper.append(high)

        for i in range(n):
            constrain({i * k + b: 1 for b in range(k)}, 1, 1)
        for b in range(k):
            constrain({i * k + b: weights[i] for i in range(n)}, 0, instance.capacity)
            constrain({i * k + b: 1 for i in range(n)}, 1, n)
        for i in range(n):
            for b in range(k):
                constrain({i * k + b: 1, n * k + attribute_of[i] * k + b: -1}, -1, 0)
        cost = np.zeros(count)
        cost[n * k:] = 1
        upper_bounds = np.ones(count)
        for i in range(n):
            upper_bounds[i * k + i + 1:i * k + k] = 0
        result = milp(
            cost,
            integrality=np.ones(count),
            bounds=(np.zeros(count), upper_bounds),
            constraints=LinearConstraint(np.array(rows), lower, upper),
        )
        if result.status == 2:  # infeasible: no partition into exactly k bins
            continue
        assert result.success, result.message
        vectors.append(ObjectiveVector(k, Fraction(round(result.fun), k)))
        if vectors[-1].z2 == 1:
            break
    return brute_force_front(vectors)
