"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Heavy sweep results are shared through module-scoped fixtures so every
criterion reads the same runs. Instance and sweep seeds are fixed to keep the
suite reproducible; all tolerances below allow for random instance
realizations.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from bibinpack.archive import ParetoArchive
from bibinpack.cli import main
from bibinpack.construct import (
    Heuristic,
    Ordering,
    SweepParams,
    construct_solution,
    draw_max_heterogeneousness,
    level_count,
    order_items,
    round_level,
    run_sweep,
)
from bibinpack.instances import generate_instance
from bibinpack.model import (
    Bin,
    Instance,
    Item,
    ObjectiveVector,
    Solution,
    dominates,
    validate_solution,
)
from bibinpack.oracle import exact_pareto

from helpers import classic_best_fit, random_instance

SIZES = (100, 200, 500, 1000)
SWEEP_SEED = 7

# expected z1 of the fully homogeneous (z2 = 1.000) vector per size under
# decreasing order; criterion 2 allows +/- 2 around these
HOMOGENEOUS_Z1 = {
    Heuristic.BEST_FIT: {100: 22, 200: 43, 500: 102, 1000: 203},
    Heuristic.RANDOM_FIT: {100: 22, 200: 43, 500: 102, 1000: 205},
}


@dataclass
class SweepRun:
    archive: ParetoArchive
    elapsed: float
    solutions_seen: int
    expected_solutions: int
    validator_failures: list[str] = field(default_factory=list)


def observed_sweep(instance: Instance, params: SweepParams) -> SweepRun:
    failures: list[str] = []
    seen = 0

    def check(vector: ObjectiveVector, solution: Solution) -> None:
        nonlocal seen
        seen += 1
        try:
            validate_solution(solution)
        except ValueError as exc:
            failures.append(str(exc))

    started = time.perf_counter()
    archive = run_sweep(instance, params, observer=check)
    elapsed = time.perf_counter() - started
    levels = level_count(len(instance.attribute_universe), params.step)
    expected = levels * params.solutions_per_level
    return SweepRun(archive, elapsed, seen, expected, failures)


@pytest.fixture(scope="module")
def benchmark_instances() -> dict[int, Instance]:
    return {n: generate_instance(n, rng_seed=1000 + n) for n in SIZES}


@pytest.fixture(scope="module")
def swept(benchmark_instances) -> dict[tuple[Heuristic, Ordering, int], SweepRun]:
    runs: dict[tuple[Heuristic, Ordering, int], SweepRun] = {}
    cells = [(Heuristic.BEST_FIT, Ordering.DECREASING, n) for n in SIZES]
    cells += [(Heuristic.RANDOM_FIT, Ordering.DECREASING, n) for n in SIZES]
    cells += [(Heuristic.BEST_FIT, Ordering.INCREASING, n) for n in (500, 1000)]
    for heuristic, ordering, n in cells:
        params = SweepParams(rng_seed=SWEEP_SEED, heuristic=heuristic, ordering=ordering)
        runs[(heuristic, ordering, n)] = observed_sweep(benchmark_instances[n], params)
    return runs


@dataclass
class OracleAgreement:
    all_weakly_dominated: bool
    min_z2_hits: int
    elapsed: float
    runs: list[SweepRun]


@pytest.fixture(scope="module")
def oracle_agreement() -> OracleAgreement:
    rng = random.Random(4242)
    hits = 0
    weakly_dominated = True
    runs: list[SweepRun] = []
    started = time.perf_counter()
    for _ in range(50):
        n = rng.randint(4, 8)
        instance = random_instance(rng, n=n, capacity=100, weight_range=(10, 60),
                                   attribute_pool="ABC")
        runs.append(observed_sweep(instance, SweepParams(rng_seed=SWEEP_SEED)))
        archive = runs[-1].archive
        front = [vector for vector, _ in exact_pareto(instance)]
        for candidate in archive.vectors():
            if not any(v.z1 <= candidate.z1 and v.z2 <= candidate.z2 for v in front):
                weakly_dominated = False
        if min(front, key=lambda v: v.z2) in archive.vectors():
            hits += 1
    elapsed = time.perf_counter() - started
    return OracleAgreement(weakly_dominated, hits, elapsed, runs)


def test_criterion_1_lower_bound_proximity(swept, benchmark_instances):
    details = []
    for n in SIZES:
        run = swept[(Heuristic.BEST_FIT, Ordering.DECREASING, n)]
        bound = benchmark_instances[n].lower_bound
        assert bound == n // 5
        best_z1 = min(v.z1 for v in run.archive.vectors())
        assert n // 5 <= best_z1 <= n // 5 + 2, f"n={n}: min z1 {best_z1} outside window"
        assert run.elapsed <= 60.0, f"n={n}: sweep took {run.elapsed:.1f}s (> 60s)"
        details.append(f"n={n}: min z1 {best_z1} (bound {bound}), {run.elapsed:.1f}s")
    print(f"criterion 1 (lower-bound proximity): PASS [{'; '.join(details)}]")


def test_criterion_2_homogeneous_extreme(swept):
    details = []
    for heuristic in (Heuristic.BEST_FIT, Heuristic.RANDOM_FIT):
        for n in SIZES:
            run = swept[(heuristic, Ordering.DECREASING, n)]
            homogeneous = [v for v in run.archive.vectors() if v.z2 == Fraction(1)]
            assert homogeneous, f"{heuristic.value} n={n}: no z2=1.000 vector"
            (vector,) = homogeneous
            target = HOMOGENEOUS_Z1[heuristic][n]
            assert target - 2 <= vector.z1 <= target + 2, (
                f"{heuristic.value} n={n}: homogeneous z1 {vector.z1} "
                f"outside [{target - 2}, {target + 2}]"
            )
            details.append(f"{heuristic.value[:2]}/{n}: {vector.z1}")
    print(f"criterion 2 (homogeneous extreme): PASS [{'; '.join(details)}]")


def test_criterion_3_ordering_effect(swept):
    details = []
    for n in (500, 1000):
        increasing = min(
            v.z1 for v in swept[(Heuristic.BEST_FIT, Ordering.INCREASING, n)].archive.vectors()
        )
        decreasing = min(
            v.z1 for v in swept[(Heuristic.BEST_FIT, Ordering.DECREASING, n)].archive.vectors()
        )
        gap = increasing - decreasing
        assert gap >= 10, f"n={n}: ordering gap {gap} < 10"
        details.append(f"n={n}: {increasing} vs {decreasing} (gap {gap})")
    print(f"criterion 3 (ordering effect): PASS [{'; '.join(details)}]")


def test_criterion_4_oracle_agreement(oracle_agreement):
    agreement = oracle_agreement
    hits = f"{agreement.min_z2_hits}/{len(agreement.runs)}"
    assert agreement.all_weakly_dominated, "sweep produced a vector the exact front cannot cover"
    assert agreement.min_z2_hits >= 45, f"min-z2 vector found on only {hits}"
    assert agreement.elapsed <= 10.0, f"took {agreement.elapsed:.1f}s (> 10s)"
    print(f"criterion 4 (oracle agreement): PASS [{hits} min-z2 hits, {agreement.elapsed:.1f}s]")


def _random_vector(rng: random.Random) -> ObjectiveVector:
    return ObjectiveVector(rng.randint(1, 40), Fraction(rng.randint(8, 40), 8))


def test_criterion_5_property_suite(swept, oracle_agreement):
    rng = random.Random(31337)

    # archive antichain invariance over 100_000 updates in random sequences
    witness_instance = Instance(capacity=10, items=(Item(5, "A"),))
    witness = Solution(bins=(Bin(frozenset({0})),), instance=witness_instance)
    updates = 0
    for _ in range(100):
        archive = ParetoArchive()
        for _ in range(1000):
            archive.update(_random_vector(rng), witness)
            updates += 1
        vectors = archive.vectors()
        assert len(set(vectors)) == len(vectors)
        for a in vectors:
            for b in vectors:
                if a != b:
                    assert not dominates(a, b)
        for vector, _ in list(archive):
            assert not archive.update(vector, witness)  # idempotence
    assert updates == 100_000

    # dominance is a strict partial order on 100_000 random triples
    for _ in range(100_000):
        a, b, c = _random_vector(rng), _random_vector(rng), _random_vector(rng)
        assert not dominates(a, a)
        assert not (dominates(a, b) and dominates(b, a))
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)

    # the validator passed for every solution built during criteria 1-4
    built = 0
    for run in [*swept.values(), *oracle_agreement.runs]:
        assert run.validator_failures == []
        assert run.solutions_seen == run.expected_solutions
        built += run.solutions_seen

    # randomized cap frequency at a fractional level
    draw_rng = random.Random(2024)
    rounding = round_level(Fraction("1.3"))
    draws = 100_000
    ceil_share = sum(
        draw_max_heterogeneousness(rounding, draw_rng) == 2 for _ in range(draws)
    ) / draws
    assert 0.28 <= ceil_share <= 0.32

    # with the attribute cap slack, construction equals classic best fit
    source = random.Random(90210)
    orderings = (Ordering.DECREASING, Ordering.INCREASING, Ordering.RANDOM)
    for trial in range(50):
        instance = random_instance(source, n=source.randint(10, 60),
                                   capacity=150, weight_range=(5, 120),
                                   attribute_pool="ABCDE")
        ordering = orderings[trial % 3]
        params = SweepParams(ordering=ordering)
        slack = Fraction(len(instance.attribute_universe))
        solution = construct_solution(instance, params, slack, random.Random(trial))
        reference = classic_best_fit(
            instance, order_items(instance, ordering, random.Random(trial))
        )
        assert [set(b.member_ids) for b in solution.bins] == [set(b) for b in reference]

    print(
        "criterion 5 (property suite): PASS "
        f"[100000 archive updates, 100000 dominance triples, "
        f"{built} solutions validated, cap frequency {ceil_share:.3f}, "
        f"50 classic-best-fit equivalences]"
    )


def test_criterion_6_cli_determinism(tmp_path):
    out = tmp_path / "run"
    args = ["--generate", "50", "--seed", "11", "--reps", "10", "--out", str(out)]
    assert main(args) == 0
    first = (out / "results.csv").read_bytes()
    assert main(args) == 0
    second = (out / "results.csv").read_bytes()
    assert first == second
    print(f"criterion 6 (CLI determinism): PASS [{len(first)} identical bytes]")
