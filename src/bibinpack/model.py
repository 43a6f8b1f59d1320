"""Core types and objective evaluation for attribute-aware bin packing."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property


def require_int(name: str, value: object, minimum: int | None = None) -> None:
    """Raise ValueError unless value is an int, not a bool, and at least minimum."""
    if not isinstance(value, int) or isinstance(value, bool) or (
            minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be an int{bound}, got {value!r}")


@dataclass(frozen=True)
class Item:
    """A unit to pack: integer weight plus a nominal attribute label.

    An item's id is its position in `Instance.items`.
    """

    weight: int
    attribute: str

    def __post_init__(self) -> None:
        require_int("weight", self.weight, 1)
        if not isinstance(self.attribute, str):
            raise ValueError(f"attribute must be a str, got {self.attribute!r}")


@dataclass(frozen=True)
class Instance:
    """A packing problem: bin capacity plus the items to distribute.

    Construction validates everything downstream code relies on, so an
    Instance that exists holds only Items, has int weights and capacity and
    str attributes, and is feasible: every item fits an empty bin.

    The item orders and attribute bits every packing shares
    (`heaviest_first`, `lightest_first`, `attribute_bit`) are computed on
    first use and kept; they are not fields, so `==`, `hash` and `repr`
    ignore them.
    """

    capacity: int
    items: tuple[Item, ...]
    attribute_universe: frozenset[str] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))
        require_int("capacity", self.capacity, 1)
        if not self.items:
            raise ValueError("instance needs at least one item")
        for position, item in enumerate(self.items):
            if not isinstance(item, Item):
                raise ValueError(f"item {position}: expected an Item, got {item!r}")
            if item.weight > self.capacity:
                raise ValueError(
                    f"item {position}: weight {item.weight} exceeds capacity "
                    f"{self.capacity}, no feasible packing exists"
                )
        universe = frozenset(item.attribute for item in self.items)
        object.__setattr__(self, "attribute_universe", universe)

    @property
    def n(self) -> int:
        return len(self.items)

    @property
    def total_weight(self) -> int:
        return sum(item.weight for item in self.items)

    @property
    def lower_bound(self) -> int:
        """Fewest bins any packing can use: ceil(total weight / capacity)."""
        return -(-self.total_weight // self.capacity)

    @cached_property
    def heaviest_first(self) -> tuple[int, ...]:
        """Item ids by descending weight, ties in ascending id."""
        return self._ids_by_weight(reverse=True)

    @cached_property
    def lightest_first(self) -> tuple[int, ...]:
        """Item ids by ascending weight, ties in ascending id."""
        return self._ids_by_weight(reverse=False)

    @cached_property
    def attribute_bit(self) -> dict[str, int]:
        """Each attribute's mask bit, `1 << position` in sorted attribute order; read only."""
        return {attribute: 1 << position
                for position, attribute in enumerate(sorted(self.attribute_universe))}

    def _ids_by_weight(self, reverse: bool) -> tuple[int, ...]:
        # sorted is stable, so weight ties keep ascending id in both directions
        items = self.items
        return tuple(sorted(range(len(items)), key=lambda i: items[i].weight, reverse=reverse))


@dataclass(frozen=True)
class Bin:
    """One used bin: its member item ids; load and attributes follow from the instance."""

    member_ids: frozenset[int]


@dataclass(frozen=True)
class Solution:
    """A complete packing: every item of the instance sits in exactly one bin."""

    bins: tuple[Bin, ...]
    instance: Instance


@dataclass(frozen=True)
class ObjectiveVector:
    """The two minimization objectives: bin count and mean bin heterogeneousness.

    z2 is kept as an exact rational so comparisons never suffer float rounding;
    use format_z2 for the three-decimal report form.
    """

    z1: int
    z2: Fraction

    def __str__(self) -> str:
        return f"({self.z1}, {format_z2(self.z2)})"


def format_z2(value: Fraction) -> str:
    """Render an exact heterogeneousness value with three decimals, rounding
    half away from zero: the sign, then the magnitude rounded half-up."""
    quotient, remainder = divmod(abs(value.numerator) * 1000, value.denominator)
    if 2 * remainder >= value.denominator:
        quotient += 1
    whole, fractional = divmod(quotient, 1000)
    return f"{'-' if value < 0 else ''}{whole}.{fractional:03d}"


def evaluate(solution: Solution) -> ObjectiveVector:
    """Both objectives: z1, the number of used bins, and z2, the exact mean
    count of distinct attributes over those bins."""
    used = len(solution.bins)
    items = solution.instance.items
    total = sum(len({items[i].attribute for i in b.member_ids}) for b in solution.bins)
    return ObjectiveVector(used, Fraction(total, used))


def dominates(a: ObjectiveVector, b: ObjectiveVector) -> bool:
    """True when a is at least as good in both objectives and strictly better in one."""
    return a.z1 <= b.z1 and a.z2 <= b.z2 and (a.z1 < b.z1 or a.z2 < b.z2)


def validate_solution(solution: Solution) -> None:
    """Check all packing invariants, raising ValueError on the first violation."""
    instance = solution.instance
    seen: set[int] = set()
    for index, used_bin in enumerate(solution.bins):
        if not used_bin.member_ids:
            raise ValueError(f"bin {index} is empty")
        load = 0
        for item_id in used_bin.member_ids:
            # require_int's rule: a bool is not an int, though True == 1
            if (not isinstance(item_id, int) or isinstance(item_id, bool)
                    or not 0 <= item_id < instance.n):
                raise ValueError(f"bin {index}: unknown item id {item_id!r}")
            if item_id in seen:
                raise ValueError(f"item {item_id} assigned to more than one bin")
            seen.add(item_id)
            load += instance.items[item_id].weight
        if load > instance.capacity:
            raise ValueError(
                f"bin {index}: load {load} exceeds capacity {instance.capacity}"
            )
    if len(seen) != instance.n:
        missing = sorted(set(range(instance.n)) - seen)
        raise ValueError(f"items never assigned: {missing}")
