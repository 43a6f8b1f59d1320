"""Randomized constructive heuristics and the heterogeneousness-level sweep."""

from __future__ import annotations

import random
import warnings
from bisect import bisect_left, insort
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Sequence

from .archive import ParetoArchive
from .model import Bin, Instance, Item, ObjectiveVector, Solution, evaluate, require_int


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
        try:
            # a float keeps the decimal the caller wrote, and a bool fails as the text "True"
            step = Fraction(str(self.step) if isinstance(self.step, (float, bool)) else self.step)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            raise ValueError(f"step must be a rational number, got {self.step!r}") from None
        object.__setattr__(self, "step", step)
        if step <= 0:
            raise ValueError(f"step must be positive, got {step}")
        if step > 1:
            # past the generated __init__, so the warning names the caller's line
            warnings.warn(f"step {step} > 1 skips heterogeneousness levels", stacklevel=3)
        require_int("solutions_per_level", self.solutions_per_level, 1)
        require_int("rng_seed", self.rng_seed)


class PartialSolution:
    """A packing being built one item at a time.

    Each bin has one packed (residual << bits) | index key in `by_residual`,
    its only record of its residual, with `bits` the bit length of n, as a
    packing has at most n bins. The keys stay sorted ascending (fullest bins
    first, then lowest index). The bisection point for an item weight starts
    the capacity-feasible region, and the first attribute-feasible key after
    it is the best-fit choice.
    """

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self.bits = instance.n.bit_length()
        self.index_mask = (1 << self.bits) - 1
        self.members: list[list[int]] = []
        self.attribute_masks: list[int] = []
        self.by_residual: list[int] = []
        self.bit_of = instance.attribute_bit

    def assign(self, item_id: int, key: int | None) -> None:
        """Put item `item_id` into the open bin whose key is `key`, or open a
        new bin when None.

        The caller's key is trusted: both bin-selection functions return only
        the key of a bin with room for the item and within its attribute cap.
        """
        item = self.instance.items[item_id]
        bits = self.bits
        by_residual = self.by_residual
        if key is None:
            # every item fits an empty bin, and a new bin has no key to delete
            key = self.instance.capacity << bits | len(self.members)
            self.members.append([])
            self.attribute_masks.append(0)
        else:
            del by_residual[bisect_left(by_residual, key)]
        index = key & self.index_mask
        self.members[index].append(item_id)
        self.attribute_masks[index] |= self.bit_of[item.attribute]
        insort(by_residual, key - (item.weight << bits))

    def to_solution(self) -> Solution:
        bins = tuple(Bin(frozenset(ids)) for ids in self.members)
        return Solution(bins=bins, instance=self.instance)


def order_items(instance: Instance, ordering: Ordering, rng: random.Random) -> Sequence[int]:
    """Item ids in processing order; weight ties keep ascending id.

    A fixed order is the instance's own tuple, sorted once per instance; the
    random order is a fresh shuffle. Callers iterate the order and do not
    change it.
    """
    if ordering is Ordering.RANDOM:
        ids = list(range(instance.n))
        rng.shuffle(ids)
        return ids
    return (instance.heaviest_first if ordering is Ordering.DECREASING
            else instance.lightest_first)


def round_level(level: Fraction) -> tuple[int, float | None]:
    """A level's floor and its chance of rounding up, the fractional part;
    the chance is None for an integral level, which never draws."""
    floor_level, remainder = divmod(level.numerator, level.denominator)
    # None, not 0.0: a tiny fractional part whose float is 0.0 still draws
    return floor_level, remainder / level.denominator if remainder else None


def draw_max_heterogeneousness(rounding: tuple[int, float | None], rng: random.Random) -> int:
    """Randomized rounding of the sweep level to a per-item attribute cap.

    Given `round_level(level)`, returns floor(level), bumped to ceil(level)
    with probability equal to the fractional part; an integral level never
    consumes a random draw.
    """
    floor_level, threshold = rounding
    if threshold is not None and rng.random() < threshold:
        return floor_level + 1
    return floor_level


def best_fit_bin(partial: PartialSolution, item: Item, max_heterogeneousness: int) -> int | None:
    """Key of the fullest open bin that can still take the item; None opens a new bin.

    A bin qualifies when the item fits its residual capacity and inserting it
    leaves at most `max_heterogeneousness` distinct attributes. Ties on
    residual capacity go to the lowest bin index.
    """
    by_residual = partial.by_residual
    start = bisect_left(by_residual, item.weight << partial.bits)
    index_mask = partial.index_mask
    masks = partial.attribute_masks
    bit = partial.bit_of[item.attribute]
    for position in range(start, len(by_residual)):
        key = by_residual[position]
        if (masks[key & index_mask] | bit).bit_count() <= max_heterogeneousness:
            return key
    return None


def random_fit_bin(
    partial: PartialSolution,
    item: Item,
    max_heterogeneousness: int,
    rng: random.Random,
) -> int | None:
    """Key of a uniform choice among the open bins that can take the item, or None.

    Qualification matches best_fit_bin; a new bin is only opened when no open
    bin qualifies.
    """
    by_residual = partial.by_residual
    start = bisect_left(by_residual, item.weight << partial.bits)
    index_mask = partial.index_mask
    masks = partial.attribute_masks
    bit = partial.bit_of[item.attribute]
    candidates = [
        key
        for key in by_residual[start:]
        if (masks[key & index_mask] | bit).bit_count() <= max_heterogeneousness
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

    Items are processed in the configured order; the level is rounded once,
    and each item draws its own attribute cap from that rounding before its
    bin is chosen, so one solution can mix caps when the level is fractional.
    """
    partial = PartialSolution(instance)
    assign = partial.assign
    items = instance.items
    random_fit = params.heuristic is Heuristic.RANDOM_FIT
    rounding = round_level(level)
    for item_id in order_items(instance, params.ordering, rng):
        item = items[item_id]
        cap = draw_max_heterogeneousness(rounding, rng)
        if random_fit:
            key = random_fit_bin(partial, item, cap, rng)
        else:
            key = best_fit_bin(partial, item, cap)
        assign(item_id, key)
    return partial.to_solution()


def level_count(attribute_count: int, step: Fraction) -> int:
    """Size of the sweep's one level grid: level k is 1 + k*step, up to the attribute count.

    `step` is the exact rational `SweepParams` holds, so the grid has no float drift.
    """
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
    for level_index in range(level_count(len(instance.attribute_universe), params.step)):
        level = 1 + level_index * params.step
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
