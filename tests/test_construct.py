from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction
from itertools import islice

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
    heterogeneousness_levels,
    order_items,
    random_fit_bin,
    run_sweep,
)
from bibinpack.model import (
    Instance,
    Item,
    average_heterogeneousness,
    evaluate,
    validate_solution,
)
from bibinpack.oracle import exact_pareto

from helpers import classic_best_fit, random_instance, reference_construct


def simple_instance(weights_attrs: list[tuple[int, str]], capacity: int) -> Instance:
    items = tuple(Item(w, a) for w, a in weights_attrs)
    return Instance(capacity=capacity, items=items)


# ---------------------------------------------------------------- orderings

THREE = simple_instance([(3, "A"), (9, "A"), (5, "A")], capacity=20)


def test_order_items_decreasing():
    assert order_items(THREE, Ordering.DECREASING, random.Random(0)) == [1, 2, 0]


def test_order_items_increasing():
    assert order_items(THREE, Ordering.INCREASING, random.Random(0)) == [0, 2, 1]


def test_order_items_ties_break_by_id():
    inst = simple_instance([(5, "A"), (3, "A"), (5, "A"), (3, "A")], capacity=20)
    assert order_items(inst, Ordering.DECREASING, random.Random(0)) == [0, 2, 1, 3]
    assert order_items(inst, Ordering.INCREASING, random.Random(0)) == [1, 3, 0, 2]


def test_order_items_random_is_seed_deterministic():
    inst = random_instance(random.Random(5), n=30)
    first = order_items(inst, Ordering.RANDOM, random.Random(123))
    second = order_items(inst, Ordering.RANDOM, random.Random(123))
    assert first == second
    assert sorted(first) == list(range(30))


# ---------------------------------------------------------- randomized cap

def test_draw_cap_integral_levels_are_certain():
    rng = random.Random(0)
    assert all(draw_max_heterogeneousness(Fraction(1), rng) == 1 for _ in range(200))
    assert all(draw_max_heterogeneousness(Fraction(2), rng) == 2 for _ in range(200))


def test_draw_cap_fractional_level_frequency():
    rng = random.Random(2024)
    draws = 100_000
    level = Fraction("1.3")
    ceil_share = sum(draw_max_heterogeneousness(level, rng) == 2 for _ in range(draws)) / draws
    assert 0.28 <= ceil_share <= 0.32


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
    assert average_heterogeneousness(partial.to_solution()) == 2
    assert best_fit_bin(partial, inst.items[2], max_heterogeneousness=2) == 0


def test_random_fit_single_candidate_is_certain():
    inst = simple_instance([(5, "A"), (9, "A"), (4, "A")], capacity=10)
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
    inst = simple_instance([(9, "A"), (4, "A")], capacity=10)
    partial = build_partial(inst, [(0, None)])
    with pytest.raises(ValueError, match="does not fit"):
        partial.assign(1, 0)


# ------------------------------------------------------------- full builds

def test_construct_at_level_one_is_fully_homogeneous():
    rng_src = random.Random(11)
    for _ in range(10):
        inst = random_instance(rng_src, n=30, attribute_pool="ABCD")
        params = SweepParams(heuristic=Heuristic.BEST_FIT, ordering=Ordering.DECREASING)
        solution = construct_solution(inst, params, Fraction(1), random.Random(5))
        validate_solution(solution)
        # every bin holds at least one attribute, so a mean of 1 means each holds one
        assert average_heterogeneousness(solution) == Fraction(1)


def test_construct_is_deterministic_per_seed():
    inst = random_instance(random.Random(3), n=40)
    params = SweepParams(heuristic=Heuristic.RANDOM_FIT, ordering=Ordering.RANDOM)
    first = construct_solution(inst, params, Fraction("1.5"), random.Random(42))
    second = construct_solution(inst, params, Fraction("1.5"), random.Random(42))
    assert first.bins == second.bins


def test_slack_cap_reduces_to_classic_best_fit():
    rng = random.Random(17)
    for _ in range(20):
        inst = random_instance(rng, n=rng.randint(10, 50), attribute_pool="ABCDE")
        params = SweepParams(ordering=Ordering.DECREASING)
        slack = Fraction(len(inst.attribute_universe))
        solution = construct_solution(inst, params, slack, random.Random(0))
        reference = classic_best_fit(inst, order_items(inst, Ordering.DECREASING, random.Random(0)))
        assert [set(b.member_ids) for b in solution.bins] == [set(b) for b in reference]


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


# ------------------------------------------------------------------ levels

def test_level_grid_count_and_bounds():
    levels = list(heterogeneousness_levels(5, Fraction(1, 10)))
    assert len(levels) == 41
    assert levels[0] == 1
    assert levels[-1] == 5
    assert all(levels[i + 1] - levels[i] == Fraction(1, 10) for i in range(40))


def test_level_grid_single_attribute():
    assert list(heterogeneousness_levels(1, Fraction(1, 10))) == [Fraction(1)]


def test_level_grid_step_not_dividing_range():
    levels = list(heterogeneousness_levels(2, Fraction(3, 10)))
    assert levels == [Fraction(1), Fraction(13, 10), Fraction(16, 10), Fraction(19, 10)]


def test_level_grid_is_lazy():
    tracemalloc.start()
    try:
        first = list(islice(heterogeneousness_levels(5, Fraction(1, 100_000)), 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == [1 + k * Fraction(1, 100_000) for k in range(3)]
    assert peak < 1_000_000


def test_sweep_params_validation():
    with pytest.raises(ValueError, match="positive"):
        SweepParams(step=Fraction(0))
    with pytest.raises(ValueError, match="solutions_per_level"):
        SweepParams(solutions_per_level=0)
    for bad in (2.5, "3"):
        with pytest.raises(ValueError, match="solutions_per_level must be an int"):
            SweepParams(solutions_per_level=bad)
    for bad in ("7", 7.0):
        with pytest.raises(ValueError, match="rng_seed must be an int"):
            SweepParams(rng_seed=bad)
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


# ------------------------------------------------------------------- sweep

def test_sweep_single_attribute_runs_one_level():
    inst = simple_instance([(4, "A"), (5, "A"), (6, "A"), (2, "A")], capacity=10)
    seen = []
    archive = run_sweep(inst, SweepParams(solutions_per_level=10),
                        observer=lambda v, s: seen.append(v))
    assert len(seen) == 10
    assert all(v.z2 == 1 for v in seen)
    assert len(archive) == 1


def test_sweep_archive_is_antichain_and_reproducible():
    inst = random_instance(random.Random(23), n=25, attribute_pool="ABC")
    params = SweepParams(solutions_per_level=20, rng_seed=9, heuristic=Heuristic.RANDOM_FIT)
    first = run_sweep(inst, params)
    second = run_sweep(inst, params)
    assert first.vectors() == second.vectors()
    from bibinpack.model import dominates

    vectors = first.vectors()
    assert all(not dominates(a, b) for a in vectors for b in vectors if a != b)


def test_sweep_on_benchmark_instance_shape():
    from bibinpack.instances import generate_instance

    inst = generate_instance(100, rng_seed=7)
    checked = []

    def check(vector, solution):
        validate_solution(solution)
        checked.append(vector)

    archive = run_sweep(inst, SweepParams(rng_seed=7), observer=check)
    assert len(checked) == 41 * 100
    assert all(v.z1 >= inst.lower_bound for v in checked)
    vectors = archive.vectors()
    assert any(v.z2 == 1 for v in vectors)
    assert min(v.z1 for v in vectors) <= inst.lower_bound + 2
    assert len(vectors) >= 2
