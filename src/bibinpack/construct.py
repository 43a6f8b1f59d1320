"""Randomized constructive heuristics and the heterogeneousness-level sweep."""

from __future__ import annotations

import random
import warnings
from bisect import bisect_left, insort
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator

from .archive import ParetoArchive
from .model import Bin, Instance, Item, ObjectiveVector, Solution, evaluate

# A bin's position in the residual index packs (residual, bin index) into one
# int so bisection compares plain integers. Caps instances at 2**20 bins.
_INDEX_BITS = 20
_INDEX_MASK = (1 << _INDEX_BITS) - 1


class Heuristic(str, Enum):
    BEST_FIT = "best-fit"
    RANDOM_FIT = "random-fit"


class Ordering(str, Enum):
    DECREASING = "decreasing"
    INCREASING = "increasing"
    RANDOM = "random"


@dataclass(frozen=True)
class SweepParams:
    """Control knobs for one sweep: level step, repetitions per level, seed, strategy."""

    step: Fraction = Fraction(1, 10)
    solutions_per_level: int = 100
    rng_seed: int = 0
    heuristic: Heuristic = Heuristic.BEST_FIT
    ordering: Ordering = Ordering.DECREASING

    def __post_init__(self) -> None:
        # the kernel tests members with `is`, so a value string must become its member
        object.__setattr__(self, "heuristic", Heuristic(self.heuristic))
        object.__setattr__(self, "ordering", Ordering(self.ordering))
        # a float step keeps the decimal the caller wrote, not its binary expansion
        step = Fraction(str(self.step)) if isinstance(self.step, float) else Fraction(self.step)
        object.__setattr__(self, "step", step)
        if step <= 0:
            raise ValueError(f"step must be positive, got {step}")
        if step > 1:
            # past the generated __init__, so the warning names the caller's line
            warnings.warn(f"step {step} > 1 skips heterogeneousness levels", stacklevel=3)
        for name in ("solutions_per_level", "rng_seed"):
            if not isinstance(getattr(self, name), int):
                raise ValueError(f"{name} must be an int, got {getattr(self, name)!r}")
        if self.solutions_per_level < 1:
            raise ValueError(
                f"solutions_per_level must be >= 1, got {self.solutions_per_level}"
            )


class PartialSolution:
    """A packing being built one item at a time.

    Bins live in parallel arrays; `by_residual` keeps packed
    (residual << bits) | index keys sorted ascending, i.e. fullest bins first
    and lowest index first among equal loads. The bisection point for an item
    weight is therefore the start of the capacity-feasible region, and the
    first attribute-feasible key after it is exactly the best-fit choice.
    """

    def __init__(self, instance: Instance) -> None:
        if instance.n > _INDEX_MASK:
            raise ValueError(f"instances are limited to {_INDEX_MASK} items")
        self.instance = instance
        self.capacity = instance.capacity
        self.loads: list[int] = []
        self.members: list[list[int]] = []
        self.attribute_masks: list[int] = []
        self.by_residual: list[int] = []
        self.bit_of = {
            attribute: 1 << position
            for position, attribute in enumerate(sorted(instance.attribute_universe))
        }

    def assign(self, item_id: int, index: int | None) -> int:
        """Put item `item_id` into bin `index`, or open a new bin when None.

        Returns the index of the bin used. Only capacity is enforced here;
        attribute caps are the bin-selection functions' concern.
        """
        item = self.instance.items[item_id]
        bit = self.bit_of[item.attribute]
        if index is None:
            index = len(self.loads)
            self.loads.append(item.weight)
            self.members.append([item_id])
            self.attribute_masks.append(bit)
            insort(self.by_residual, (self.capacity - item.weight) << _INDEX_BITS | index)
            return index
        load = self.loads[index]
        if load + item.weight > self.capacity:
            raise ValueError(
                f"item {item_id} does not fit bin {index}: "
                f"{load} + {item.weight} > {self.capacity}"
            )
        old_key = (self.capacity - load) << _INDEX_BITS | index
        self.by_residual.pop(bisect_left(self.by_residual, old_key))
        load += item.weight
        self.loads[index] = load
        self.members[index].append(item_id)
        self.attribute_masks[index] |= bit
        insort(self.by_residual, (self.capacity - load) << _INDEX_BITS | index)
        return index

    def to_solution(self) -> Solution:
        bins = tuple(Bin(frozenset(ids)) for ids in self.members)
        return Solution(bins=bins, instance=self.instance)


def order_items(instance: Instance, ordering: Ordering, rng: random.Random) -> list[int]:
    """Item ids in processing order; the sort is stable, so weight ties keep ascending id."""
    ids = list(range(instance.n))
    if ordering is Ordering.RANDOM:
        rng.shuffle(ids)
    else:
        ids.sort(key=lambda i: instance.items[i].weight, reverse=ordering is Ordering.DECREASING)
    return ids


def draw_max_heterogeneousness(level: Fraction, rng: random.Random) -> int:
    """Randomized rounding of the sweep level to a per-item attribute cap.

    Returns floor(level), bumped to ceil(level) with probability equal to the
    fractional part; an integral level never consumes a random draw.
    """
    floor_level, remainder = divmod(level.numerator, level.denominator)
    if remainder and rng.random() < remainder / level.denominator:
        return floor_level + 1
    return floor_level


def best_fit_bin(partial: PartialSolution, item: Item, max_heterogeneousness: int) -> int | None:
    """Fullest open bin that can still take the item, or None to open a new bin.

    A bin qualifies when the item fits its residual capacity and inserting it
    leaves at most `max_heterogeneousness` distinct attributes. Ties on
    residual capacity go to the lowest bin index.
    """
    by_residual = partial.by_residual
    start = bisect_left(by_residual, item.weight << _INDEX_BITS)
    masks = partial.attribute_masks
    bit = partial.bit_of[item.attribute]
    for position in range(start, len(by_residual)):
        index = by_residual[position] & _INDEX_MASK
        if (masks[index] | bit).bit_count() <= max_heterogeneousness:
            return index
    return None


def random_fit_bin(
    partial: PartialSolution,
    item: Item,
    max_heterogeneousness: int,
    rng: random.Random,
) -> int | None:
    """Uniform choice among the open bins that can take the item; None when none can.

    Qualification matches best_fit_bin; a new bin is only opened when no open
    bin qualifies.
    """
    by_residual = partial.by_residual
    start = bisect_left(by_residual, item.weight << _INDEX_BITS)
    masks = partial.attribute_masks
    bit = partial.bit_of[item.attribute]
    candidates = [
        key & _INDEX_MASK
        for key in by_residual[start:]
        if (masks[key & _INDEX_MASK] | bit).bit_count() <= max_heterogeneousness
    ]
    if not candidates:
        return None
    return rng.choice(candidates)


def construct_solution(
    instance: Instance,
    params: SweepParams,
    level: Fraction,
    rng: random.Random,
) -> Solution:
    """Build one complete packing at the given heterogeneousness level.

    Items are processed in the configured order; each item draws its own
    attribute cap before its bin is chosen, so one solution can mix caps when
    the level is fractional.
    """
    partial = PartialSolution(instance)
    random_fit = params.heuristic is Heuristic.RANDOM_FIT
    for item_id in order_items(instance, params.ordering, rng):
        item = instance.items[item_id]
        cap = draw_max_heterogeneousness(level, rng)
        if random_fit:
            target = random_fit_bin(partial, item, cap, rng)
        else:
            target = best_fit_bin(partial, item, cap)
        partial.assign(item_id, target)
    return partial.to_solution()


def heterogeneousness_levels(attribute_count: int, step: Fraction) -> Iterator[Fraction]:
    """The sweep levels 1, 1+step, ... up to the number of distinct attributes.

    `step` is the exact rational `SweepParams` holds, so `level_count` has
    no float drift. The levels are yielded lazily, so a tiny step costs
    time, not memory.
    """
    return (1 + k * step for k in range(level_count(attribute_count, step)))


def level_count(attribute_count: int, step: Fraction) -> int:
    """How many levels `heterogeneousness_levels` yields: floor((A - 1) / step) + 1."""
    return int((attribute_count - 1) / step) + 1


def run_sweep(
    instance: Instance,
    params: SweepParams,
    observer: Callable[[ObjectiveVector, Solution], None] | None = None,
) -> ParetoArchive:
    """Sweep the attribute cap from 1 to the attribute count, keeping the
    non-dominated packings.

    At every level, `solutions_per_level` packings are built and folded into
    the archive. Each packing owns a private substream seeded from
    (rng_seed, level index, repetition), so a fixed seed reproduces the
    archive bit for bit.

    `observer`, when given, sees every evaluated packing (used by tests).
    """
    archive = ParetoArchive()
    levels = heterogeneousness_levels(len(instance.attribute_universe), params.step)
    for level_index, level in enumerate(levels):
        for repetition in range(params.solutions_per_level):
            rng = _solution_rng(params.rng_seed, level_index, repetition)
            solution = construct_solution(instance, params, level, rng)
            vector = evaluate(solution)
            if observer is not None:
                observer(vector, solution)
            archive.update(vector, solution)
    return archive


def _solution_rng(seed: int, level_index: int, repetition: int) -> random.Random:
    # one independent stream per (level, repetition) cell; the mixing constants
    # keep distinct cells apart for any practical grid size
    mixed = seed * 0x9E3779B97F4A7C15 + level_index * 0x100000001B3 + repetition
    return random.Random(mixed & 0xFFFFFFFFFFFFFFFF)
