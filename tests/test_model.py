from __future__ import annotations

import random
import re
from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibinpack.model import (
    Bin,
    Instance,
    Item,
    ObjectiveVector,
    Solution,
    dominates,
    evaluate,
    format_z2,
    validate_solution,
)

from helpers import random_instance, recount_objectives


def grouped_solution(instance: Instance, groups: list[list[int]]) -> Solution:
    bins = tuple(Bin(frozenset(group)) for group in groups)
    return Solution(bins=bins, instance=instance)


SIX_ITEMS = Instance(
    capacity=1000,
    items=(
        Item(10, "A"),
        Item(20, "A"),
        Item(30, "B"),
        Item(40, "B"),
        Item(50, "A"),
        Item(60, "B"),
    ),
)


def test_item_rejects_nonpositive_weight():
    with pytest.raises(ValueError, match="weight"):
        Item(weight=0, attribute="A")


def test_instance_rejects_overweight_item():
    with pytest.raises(ValueError, match="exceeds capacity"):
        Instance(capacity=10, items=(Item(11, "A"),))


def test_instance_rejects_empty():
    with pytest.raises(ValueError, match="at least one item"):
        Instance(capacity=10, items=())


@pytest.mark.parametrize("weight", [10.5, 10.0, True])
def test_instance_rejects_non_integer_weight(weight):
    with pytest.raises(ValueError, match="weight must be an int"):
        Instance(capacity=100, items=(Item(weight, "A"), Item(20, "B")))


@pytest.mark.parametrize("capacity", [0, 100.5, 100.0, True])
def test_instance_rejects_bad_capacity(capacity):
    with pytest.raises(ValueError, match=f"capacity must be an int >= 1, got {capacity}"):
        Instance(capacity=capacity, items=(Item(10, "A"), Item(20, "B")))


def test_instance_rejects_non_string_attribute():
    # a list is unhashable: it must fail as a ValueError, not as a TypeError
    for attribute in (7, None, ["A"]):
        message = re.escape(f"attribute must be a str, got {attribute!r}")
        with pytest.raises(ValueError, match=message):
            Instance(capacity=100, items=(Item(10, "A"), Item(20, attribute)))


def test_instance_rejects_a_non_item():
    for item in ((1, "A"), "x", None):
        message = re.escape(f"item 1: expected an Item, got {item!r}")
        with pytest.raises(ValueError, match=message):
            Instance(capacity=10, items=[Item(1, "A"), item])


def test_lower_bound_rounds_up():
    inst = Instance(capacity=10, items=(Item(7, "A"), Item(7, "A")))
    assert inst.lower_bound == 2


def test_shared_orders_and_bits_are_kept_outside_the_fields():
    read, unread = (Instance(capacity=1000, items=SIX_ITEMS.items) for _ in range(2))
    for name in ("heaviest_first", "lightest_first", "attribute_bit"):
        # computed once per instance: every packing of a sweep reads the same object
        assert getattr(read, name) is getattr(read, name)
    assert read == unread
    assert hash(read) == hash(unread)
    assert repr(read) == repr(unread)


def test_evaluate_z2_is_plain_mean():
    # bins with 2, 2, 1 distinct attributes
    solution = grouped_solution(SIX_ITEMS, [[0, 2], [1, 3], [5]])
    assert evaluate(solution).z2 == Fraction(5, 3)


def test_evaluate_homogeneous_twenty_two_bins():
    # 22 bins of two same-label items each: the fully homogeneous extreme
    items = tuple(Item(500, "ABCDE"[(i // 2) % 5]) for i in range(44))
    inst = Instance(capacity=1000, items=items)
    paired = grouped_solution(inst, [[2 * k, 2 * k + 1] for k in range(22)])
    validate_solution(paired)
    assert evaluate(paired) == ObjectiveVector(22, Fraction(1))
    assert str(evaluate(paired)) == "(22, 1.000)"


def test_evaluate_matches_componentwise_recount():
    rng = random.Random(42)
    for _ in range(25):
        inst = random_instance(rng, n=rng.randint(3, 12))
        # greedy first-fit by id keeps this reference packer trivial
        groups: list[list[int]] = []
        loads: list[int] = []
        for item_id, item in enumerate(inst.items):
            for g, load in enumerate(loads):
                if load + item.weight <= inst.capacity:
                    groups[g].append(item_id)
                    loads[g] += item.weight
                    break
            else:
                groups.append([item_id])
                loads.append(item.weight)
        solution = grouped_solution(inst, groups)
        validate_solution(solution)
        vector = evaluate(solution)
        assert (vector.z1, vector.z2) == recount_objectives(solution)
        assert 1 <= vector.z2 <= len(inst.attribute_universe)


def test_dominates_requires_strict_improvement():
    v = ObjectiveVector(22, Fraction(1))
    assert not dominates(v, ObjectiveVector(22, Fraction(1)))


def test_format_z2_rounds_half_up():
    assert format_z2(Fraction(1)) == "1.000"
    assert format_z2(Fraction(5, 3)) == "1.667"
    assert format_z2(Fraction(1, 3)) == "0.333"
    assert format_z2(Fraction(2048, 1000)) == "2.048"
    assert format_z2(Fraction(15, 10000)) == "0.002"
    assert format_z2(Fraction(11115, 10000)) == "1.112"
    assert format_z2(Fraction(21, 2)) == "10.500"
    # half away from zero: the sign, then the rounded magnitude
    assert format_z2(Fraction(-1, 3)) == "-0.333"
    assert format_z2(Fraction(-1, 2000)) == "-0.001"


@settings(max_examples=2000, deadline=None)
@given(value=st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6))
def test_format_z2_matches_decimal_half_up(value):
    # 60 digits resolve every quotient with denominator <= 10**6 away from a
    # rounding boundary, so the quantized result is exact
    with localcontext() as context:
        context.prec = 60
        decimal = Decimal(value.numerator) / Decimal(value.denominator)
        expected = decimal.quantize(Decimal("0.001"), rounding=ROUND_HALF_UP)
    assert format_z2(value) == str(expected)


def test_validator_accepts_good_solution():
    validate_solution(grouped_solution(SIX_ITEMS, [[0, 1, 2], [3, 4], [5]]))


def test_validator_rejects_duplicate_assignment():
    solution = grouped_solution(SIX_ITEMS, [[0, 1, 2], [2, 3, 4], [5]])
    with pytest.raises(ValueError, match="more than one bin"):
        validate_solution(solution)


def test_validator_rejects_missing_item():
    solution = grouped_solution(SIX_ITEMS, [[0, 1, 2], [3, 4]])
    with pytest.raises(ValueError, match="never assigned"):
        validate_solution(solution)


def test_validator_rejects_overloaded_bin():
    # 6 + 5 is one over the capacity of 10
    for weights in ((7, 7), (6, 5)):
        inst = Instance(capacity=10, items=tuple(Item(weight, "A") for weight in weights))
        with pytest.raises(ValueError, match="exceeds capacity"):
            validate_solution(grouped_solution(inst, [[0, 1]]))


def test_validator_rejects_unknown_item_id():
    inst = Instance(capacity=10, items=(Item(3, "A"), Item(4, "B")))
    with pytest.raises(ValueError, match="unknown item id 9"):
        validate_solution(Solution(bins=(Bin(frozenset({0, 9})),), instance=inst))
    # an id must be an int and not a bool: True == 1 would otherwise pass as
    # item 1, and the rest would raise TypeError
    for bins, unknown in [
        (({"a", 1},), "a"),
        (({0.0, 1},), 0.0),
        (({0, 1.5},), 1.5),
        (({None, 1},), None),
        (({True}, {0}), True),
    ]:
        solution = Solution(bins=tuple(Bin(frozenset(ids)) for ids in bins), instance=inst)
        with pytest.raises(ValueError) as excinfo:
            validate_solution(solution)
        assert str(excinfo.value) == f"bin 0: unknown item id {unknown!r}"


def test_validator_rejects_empty_bin():
    inst = Instance(capacity=10, items=(Item(3, "A"),))
    empty = Bin(frozenset())
    used = Bin(frozenset({0}))
    with pytest.raises(ValueError, match="empty"):
        validate_solution(Solution(bins=(used, empty), instance=inst))
