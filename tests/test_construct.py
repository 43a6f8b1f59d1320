from __future__ import annotations

import random
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibinpack.construct import (
    Heuristic,
    Ordering,
    PartialSolution,
    SweepParams,
    best_fit_bin,
    construct_solution,
    draw_max_heterogeneousness,
    order_items,
    random_fit_bin,
    round_level,
    run_sweep,
)
from bibinpack.model import (
    Instance,
    Item,
    evaluate,
)
from bibinpack.oracle import exact_pareto

from helpers import random_instance, reference_construct, reference_sweep


def simple_instance(weights_attrs: list[tuple[int, str]], capacity: int) -> Instance:
    items = tuple(Item(w, a) for w, a in weights_attrs)
    return Instance(capacity=capacity, items=items)


# ----------------------------------------------- orders and randomized cap

def test_orders_and_rounding_match_plain_ones():
    # heavy weight ties; the first half of the keys changes only the ordering
    # between calls, the second half only the instance
    instances = [random_instance(random.Random(seed), n=20, weight_range=(10, 14))
                 for seed in (1, 2)]
    keys = ([(inst, ordering) for inst in instances for ordering in Ordering]
            + [(inst, ordering) for ordering in Ordering for inst in instances])
    rng, reference_rng = random.Random(5), random.Random(5)
    for inst, ordering in keys:
        for _ in range(2):
            expected = list(range(inst.n))
            if ordering is Ordering.DECREASING:
                expected.sort(key=lambda i: (-inst.items[i].weight, i))
            elif ordering is Ordering.INCREASING:
                expected.sort(key=lambda i: (inst.items[i].weight, i))
            else:
                reference_rng.shuffle(expected)
            ids = order_items(inst, ordering, rng)
            assert ids == expected
            # the caller owns the list: changing it must not change the next call
            ids.reverse()
    levels = [Fraction(13, 10), Fraction(2), Fraction(27, 10), Fraction(13, 10)]
    for k in range(400):
        level = levels[k % len(levels)]
        whole, part = divmod(level, 1)
        expected = whole + 1 if part and reference_rng.random() < float(part) else whole
        assert draw_max_heterogeneousness(round_level(level), rng) == expected
    assert rng.getstate() == reference_rng.getstate()


# ------------------------------------------------------------ bin selection

def build_partial(instance: Instance, assignments: list[tuple[int, int | None]]) -> PartialSolution:
    partial = PartialSolution(instance)
    for item_id, target in assignments:
        partial.assign(item_id, target)
    return partial


def test_best_fit_picks_smallest_residual():
    # residuals after seeding: bin0=5, bin1=3, bin2=10 (capacity 12)
    inst = simple_instance(
        [(7, "A"), (9, "A"), (2, "A"), (3, "A")], capacity=12
    )
    partial = build_partial(inst, [(0, None), (1, None), (2, None)])
    assert best_fit_bin(partial, inst.items[3], max_heterogeneousness=1) == 1


def test_best_fit_opens_new_bin_when_nothing_fits():
    inst = simple_instance([(10, "A"), (10, "A"), (5, "A")], capacity=12)
    partial = build_partial(inst, [(0, None), (1, None)])
    assert best_fit_bin(partial, inst.items[2], max_heterogeneousness=5) is None


def test_best_fit_tie_goes_to_lowest_index():
    inst = simple_instance([(4, "A"), (4, "A"), (3, "A")], capacity=10)
    partial = build_partial(inst, [(0, None), (1, None)])
    assert best_fit_bin(partial, inst.items[2], max_heterogeneousness=1) == 0


def test_best_fit_attribute_cap_excludes_mixed_bin():
    # room is available in the A-bin, but a cap of 1 forbids mixing
    inst = simple_instance([(2, "A"), (2, "B"), (2, "B")], capacity=10)
    partial = build_partial(inst, [(0, None)])
    assert best_fit_bin(partial, inst.items[1], max_heterogeneousness=1) is None
    partial.assign(1, None)
    assert best_fit_bin(partial, inst.items[2], max_heterogeneousness=1) == 1
    partial.assign(2, 1)
    vector = evaluate(partial.to_solution())
    # the packing this forces is one of the two efficient outcomes
    assert vector in {v for v, _ in exact_pareto(inst)}


def test_best_fit_cap_two_allows_mixing():
    inst = simple_instance([(2, "A"), (2, "B")], capacity=10)
    partial = build_partial(inst, [(0, None)])
    assert best_fit_bin(partial, inst.items[1], max_heterogeneousness=2) == 0


def test_best_fit_counts_existing_attribute_as_free():
    # an item whose attribute is already present never raises the mix count
    inst = simple_instance([(2, "A"), (2, "B"), (2, "A")], capacity=10)
    partial = build_partial(inst, [(0, None)])
    partial.assign(1, 0)
    assert evaluate(partial.to_solution()).z2 == 2
    assert best_fit_bin(partial, inst.items[2], max_heterogeneousness=2) == 0


def test_best_fit_reads_every_bit_of_the_bin_index():
    # at n = 10 a key holds 4 index bits, and bin 8 is the first to need the fourth
    inst = simple_instance([(6, "A")] * 8 + [(7, "A"), (3, "A")], capacity=10)
    partial = PartialSolution(inst)
    for item_id in range(9):
        assert partial.assign(item_id, best_fit_bin(partial, inst.items[item_id], 1)) == item_id
    assert best_fit_bin(partial, inst.items[9], max_heterogeneousness=1) == 8


def test_random_fit_single_candidate_is_certain():
    # bin 0's residual is 5, and then 4, exactly the third item's weight
    for first in (5, 6):
        inst = simple_instance([(first, "A"), (9, "A"), (4, "A")], capacity=10)
        partial = build_partial(inst, [(0, None), (1, None)])
        rng = random.Random(0)
        assert all(random_fit_bin(partial, inst.items[2], 1, rng) == 0 for _ in range(50))


def test_random_fit_no_candidate_opens_new_bin():
    inst = simple_instance([(9, "A"), (9, "A"), (4, "A")], capacity=10)
    partial = build_partial(inst, [(0, None), (1, None)])
    assert random_fit_bin(partial, inst.items[2], 1, random.Random(0)) is None


def test_random_fit_two_candidates_are_uniform():
    inst = simple_instance([(5, "A"), (5, "A"), (3, "A")], capacity=10)
    partial = build_partial(inst, [(0, None), (1, None)])
    rng = random.Random(77)
    trials = 10_000
    hits = sum(random_fit_bin(partial, inst.items[2], 1, rng) == 0 for _ in range(trials))
    assert 0.48 <= hits / trials <= 0.52


def test_assign_rejects_overfull_target():
    # 9 + 4 and 9 + 2 overflow a capacity of 10, and 9 + 1 fills it exactly
    inst = simple_instance([(9, "A"), (4, "A"), (2, "A"), (1, "A")], capacity=10)
    partial = build_partial(inst, [(0, None)])
    for item_id in (1, 2):
        with pytest.raises(ValueError, match="does not fit"):
            partial.assign(item_id, 0)
    assert partial.assign(3, 0) == 0
    assert partial.loads == [10]


@settings(deadline=None)
@given(
    specs=st.lists(st.tuples(st.integers(1, 100), st.sampled_from("ABC")), min_size=1, max_size=12),
    data=st.data(),
)
def test_assign_keeps_packing_state_consistent(specs, data):
    inst = Instance(capacity=100, items=tuple(Item(w, a) for w, a in specs))
    bit = {a: 1 << k for k, a in enumerate(sorted(inst.attribute_universe))}
    partial = PartialSolution(inst)
    for item_id in data.draw(st.permutations(range(inst.n))):
        weight = inst.items[item_id].weight
        roomy = [i for i, load in enumerate(partial.loads) if load + weight <= inst.capacity]
        target = data.draw(st.sampled_from([None, *roomy]))
        opened = len(partial.loads)
        assert partial.assign(item_id, target) == (opened if target is None else target)
        assert partial.by_residual == sorted(
            (inst.capacity - load) << partial.bits | i for i, load in enumerate(partial.loads)
        )
        assert len(partial.members) == len(partial.loads) == len(partial.attribute_masks)
        for i, ids in enumerate(partial.members):
            assert partial.loads[i] == sum(inst.items[k].weight for k in ids)
            mask = 0
            for k in ids:
                mask |= bit[inst.items[k].attribute]
            assert partial.attribute_masks[i] == mask
    assert sorted(k for ids in partial.members for k in ids) == list(range(inst.n))


# --------------------------------------------------- full builds and sweeps

@settings(deadline=None)
@given(
    specs=st.lists(st.tuples(st.integers(10, 60), st.sampled_from("ABC")), min_size=1, max_size=12),
    heuristic=st.sampled_from(Heuristic),
    ordering=st.sampled_from(Ordering),
    level=st.one_of(
        st.integers(1, 3).map(Fraction),
        st.fractions(min_value=1, max_value=3, max_denominator=10),
    ),
    seed=st.integers(min_value=0),
)
def test_construct_matches_plain_reference(specs, heuristic, ordering, level, seed):
    inst = Instance(capacity=100, items=tuple(Item(w, a) for w, a in specs))
    rng, reference_rng = random.Random(seed), random.Random(seed)
    params = SweepParams(heuristic=heuristic, ordering=ordering)
    solution = construct_solution(inst, params, level, rng)
    reference = reference_construct(inst, heuristic, ordering, level, reference_rng)
    assert [b.member_ids for b in solution.bins] == [frozenset(b) for b in reference]
    # equal end states pin every RNG call the sweep's digests depend on
    assert rng.getstate() == reference_rng.getstate()


@settings(deadline=None)
@given(
    specs=st.lists(st.tuples(st.integers(10, 60), st.sampled_from("ABC")), min_size=1, max_size=8),
    heuristic=st.sampled_from(Heuristic),
    ordering=st.sampled_from(Ordering),
    step=st.fractions(min_value=Fraction(1, 10), max_value=2, max_denominator=10),
    reps=st.integers(1, 3),
    seed=st.integers(min_value=0),
)
def test_sweep_matches_plain_fold(specs, heuristic, ordering, step, reps, seed):
    inst = Instance(capacity=100, items=tuple(Item(w, a) for w, a in specs))
    with warnings.catch_warnings():
        # a step over 1 warns that it skips levels; the grid it sweeps is checked here
        warnings.filterwarnings("ignore", "step .* skips", UserWarning)
        params = SweepParams(step=step, solutions_per_level=reps, rng_seed=seed,
                             heuristic=heuristic, ordering=ordering)
    reference = reference_sweep(inst, params)
    assert run_sweep(inst, params).sorted_entries() == reference.sorted_entries()


class StopSweep(Exception):
    pass


def test_level_grid_is_lazy():
    # five attributes at this step make 400,001 levels; three packings must not cost them all
    built = []

    def stop_after_three(vector, solution):
        built.append(vector)
        if len(built) == 3:
            raise StopSweep

    inst = simple_instance([(1, attribute) for attribute in "ABCDE"], capacity=10)
    params = SweepParams(step=Fraction(1, 100_000), solutions_per_level=1)
    tracemalloc.start()
    try:
        with pytest.raises(StopSweep):
            run_sweep(inst, params, stop_after_three)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_sweep_params_validation():
    with pytest.raises(ValueError, match="positive"):
        SweepParams(step=Fraction(0))
    with pytest.raises(ValueError, match="solutions_per_level"):
        SweepParams(solutions_per_level=0)
    for bad in (2.5, "3", True):
        with pytest.raises(ValueError, match="solutions_per_level must be an int"):
            SweepParams(solutions_per_level=bad)
    for bad in ("7", 7.0, False):
        with pytest.raises(ValueError, match="rng_seed must be an int"):
            SweepParams(rng_seed=bad)
    # Fraction reads True as 1, and raises TypeError, ZeroDivisionError or OverflowError on the rest
    for bad in (True, None, [1], "1/0", Decimal("Infinity")):
        with pytest.raises(ValueError, match="^step must be a rational number, got "):
            SweepParams(step=bad)
    with pytest.warns(UserWarning, match="skips") as record:
        SweepParams(step=Fraction(3, 2))
    assert [warning.filename for warning in record] == [__file__]
    assert SweepParams(step=0.1).step == Fraction(1, 10)


def test_sweep_params_accepts_value_strings():
    named = SweepParams(solutions_per_level=5, heuristic="random-fit", ordering="decreasing")
    assert named.heuristic is Heuristic.RANDOM_FIT
    assert named.ordering is Ordering.DECREASING
    members = SweepParams(solutions_per_level=5, heuristic=Heuristic.RANDOM_FIT,
                          ordering=Ordering.DECREASING)
    inst = random_instance(random.Random(8), n=25)
    assert run_sweep(inst, named).vectors() == run_sweep(inst, members).vectors()
    with pytest.raises(ValueError, match="sideways"):
        SweepParams(ordering="sideways")
    with pytest.raises(ValueError, match="worst-fit"):
        SweepParams(heuristic="worst-fit")
