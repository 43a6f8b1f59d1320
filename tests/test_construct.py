from __future__ import annotations

import random
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bibinpack.construct import (
    Heuristic,
    Ordering,
    SweepParams,
    construct_solution,
    run_sweep,
)
from bibinpack.model import (
    Instance,
    Item,
)

from helpers import reference_construct, reference_sweep


def simple_instance(weights_attrs: list[tuple[int, str]], capacity: int) -> Instance:
    items = tuple(Item(w, a) for w, a in weights_attrs)
    return Instance(capacity=capacity, items=items)


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
# n = 10 keys hold 4 index bits; bin 8, filled exactly by item 9, is the first to need the fourth
@example(specs=[(60, "A")] * 8 + [(55, "A"), (45, "A")], heuristic=Heuristic.BEST_FIT,
         ordering=Ordering.DECREASING, level=Fraction(1), seed=0)
# two bins of equal residual: the item goes to bin 0
@example(specs=[(60, "A"), (60, "A"), (30, "A")], heuristic=Heuristic.BEST_FIT,
         ordering=Ordering.DECREASING, level=Fraction(1), seed=0)
# a cap of 1 refuses the fuller A bin, so the last B joins the B bin
@example(specs=[(40, "A"), (30, "B"), (20, "B")], heuristic=Heuristic.BEST_FIT,
         ordering=Ordering.DECREASING, level=Fraction(1), seed=0)
# two bins fit the last item exactly, and seeds 0 and 1 pick different ones
@example(specs=[(60, "A"), (60, "A"), (40, "A")], heuristic=Heuristic.RANDOM_FIT,
         ordering=Ordering.DECREASING, level=Fraction(1), seed=0)
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
    with pytest.raises(ValueError, match="sideways"):
        SweepParams(ordering="sideways")
    with pytest.raises(ValueError, match="worst-fit"):
        SweepParams(heuristic="worst-fit")
