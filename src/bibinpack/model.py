"""Core types and objective evaluation for attribute-aware bin packing."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


@dataclass(frozen=True)
class Item:
    """A unit to pack: integer weight plus a nominal attribute label.

    An item's id is its position in `Instance.items`.
    """

    weight: int
    attribute: str

    def __post_init__(self) -> None:
        if self.weight < 1:
            raise ValueError(f"weight must be >= 1, got {self.weight}")


@dataclass(frozen=True)
class Instance:
    """A packing problem: bin capacity plus the items to distribute.

    Construction validates everything downstream code relies on, so an
    Instance that exists is feasible: every item fits an empty bin.
    """

    capacity: int
    items: tuple[Item, ...]
    attribute_universe: frozenset[str] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if not self.items:
            raise ValueError("instance needs at least one item")
        for position, item in enumerate(self.items):
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
    """Render an exact heterogeneousness value with three decimals, rounding half-up."""
    quotient, remainder = divmod(value.numerator * 1000, value.denominator)
    if 2 * remainder >= value.denominator:
        quotient += 1
    whole, fractional = divmod(quotient, 1000)
    return f"{whole}.{fractional:03d}"


def bin_count(solution: Solution) -> int:
    """First objective: number of bins the solution uses."""
    return len(solution.bins)


def average_heterogeneousness(solution: Solution) -> Fraction:
    """Second objective: mean count of distinct attributes over used bins, exact."""
    items = solution.instance.items
    total = sum(len({items[i].attribute for i in b.member_ids}) for b in solution.bins)
    return Fraction(total, len(solution.bins))


def evaluate(solution: Solution) -> ObjectiveVector:
    return ObjectiveVector(bin_count(solution), average_heterogeneousness(solution))


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
            if not 0 <= item_id < instance.n:
                raise ValueError(f"bin {index}: unknown item id {item_id}")
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
