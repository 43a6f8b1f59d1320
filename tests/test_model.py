from __future__ import annotations

import random
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
    average_heterogeneousness,
    bin_count,
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


def test_attribute_universe_matches_items():
    inst = Instance(capacity=10, items=(Item(3, "A"), Item(4, "B"), Item(2, "A")))
    assert inst.attribute_universe == frozenset({"A", "B"})
    assert inst.n == 3
    assert inst.lower_bound == 1


def test_lower_bound_rounds_up():
    inst = Instance(capacity=10, items=(Item(7, "A"), Item(7, "A")))
    assert inst.lower_bound == 2


def test_bin_count_direct():
    solution = grouped_solution(SIX_ITEMS, [[0, 1], [2], [3, 4, 5]])
    assert bin_count(solution) == 3
    assert bin_count(grouped_solution(SIX_ITEMS, [[0, 1, 2, 3, 4, 5]])) == 1


def test_average_heterogeneousness_homogeneous_is_one():
    solution = grouped_solution(SIX_ITEMS, [[0, 1, 4], [2, 3, 5]])
    assert average_heterogeneousness(solution) == Fraction(1)


def test_average_heterogeneousness_is_plain_mean():
    # bins with 2, 2, 1 distinct attributes
    solution = grouped_solution(SIX_ITEMS, [[0, 2], [1, 3], [5]])
    assert average_heterogeneousness(solution) == Fraction(5, 3)


def test_average_heterogeneousness_against_recount():
    # frozen from the independent recount: u = [2, 2, 1] over three bins
    solution = grouped_solution(SIX_ITEMS, [[0, 1, 2], [3, 4], [5]])
    assert average_heterogeneousness(solution) == Fraction(5, 3)
    used, mean_mix = recount_objectives(solution)
    assert (bin_count(solution), average_heterogeneousness(solution)) == (used, mean_mix)


def test_evaluate_single_bin():
    inst = Instance(capacity=10, items=(Item(4, "A"),))
    vector = evaluate(Solution(bins=(Bin(frozenset({0})),), instance=inst))
    assert vector == ObjectiveVector(1, Fraction(1))
    assert str(vector) == "(1, 1.000)"


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
        assert (bin_count(solution), average_heterogeneousness(solution)) == recount_objectives(solution)


def test_dominates_same_bins_better_mixing():
    assert dominates(ObjectiveVector(21, Fraction("1.190")), ObjectiveVector(21, Fraction("1.952")))


def test_dominates_requires_strict_improvement():
    v = ObjectiveVector(22, Fraction(1))
    assert not dominates(v, ObjectiveVector(22, Fraction(1)))


def test_dominates_incomparable_pair():
    a = ObjectiveVector(22, Fraction(1))
    b = ObjectiveVector(21, Fraction("1.952"))
    assert not dominates(a, b)
    assert not dominates(b, a)


def test_dominance_is_strict_partial_order():
    rng = random.Random(7)

    def vec() -> ObjectiveVector:
        return ObjectiveVector(rng.randint(1, 6), Fraction(rng.randint(4, 20), 4))

    for _ in range(5000):
        a, b, c = vec(), vec(), vec()
        assert not dominates(a, a)
        assert not (dominates(a, b) and dominates(b, a))
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)


def test_z2_stays_within_attribute_universe_bounds():
    rng = random.Random(13)
    for _ in range(20):
        inst = random_instance(rng, n=rng.randint(2, 10), attribute_pool="ABCD")
        solution = grouped_solution(inst, [[i] for i in range(inst.n)])
        z2 = average_heterogeneousness(solution)
        assert Fraction(1) <= z2 <= len(inst.attribute_universe)


def test_format_z2_rounds_half_up():
    assert format_z2(Fraction(1)) == "1.000"
    assert format_z2(Fraction(5, 3)) == "1.667"
    assert format_z2(Fraction(1, 3)) == "0.333"
    assert format_z2(Fraction(2048, 1000)) == "2.048"
    assert format_z2(Fraction(15, 10000)) == "0.002"
    assert format_z2(Fraction(11115, 10000)) == "1.112"
    assert format_z2(Fraction(21, 2)) == "10.500"


@settings(max_examples=2000, deadline=None)
@given(value=st.fractions(min_value=0, max_value=1000, max_denominator=10**6))
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
    inst = Instance(capacity=10, items=(Item(7, "A"), Item(7, "A")))
    solution = grouped_solution(inst, [[0, 1]])
    with pytest.raises(ValueError, match="exceeds capacity"):
        validate_solution(solution)


def test_validator_rejects_unknown_item_id():
    inst = Instance(capacity=10, items=(Item(3, "A"), Item(4, "B")))
    with pytest.raises(ValueError, match="unknown item id 9"):
        validate_solution(Solution(bins=(Bin(frozenset({0, 9})),), instance=inst))


def test_validator_rejects_empty_bin():
    inst = Instance(capacity=10, items=(Item(3, "A"),))
    empty = Bin(frozenset())
    used = Bin(frozenset({0}))
    with pytest.raises(ValueError, match="empty"):
        validate_solution(Solution(bins=(used, empty), instance=inst))
