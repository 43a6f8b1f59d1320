"""Tests of the benchmark harness itself (tiny workloads, about a minute).

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import harness
import run
import tracer
from tracer import Tracer

SEED = 3
SMALL_REPS = 2
TRACED_OWNERS = tracer.MODULES + (tracer.construct.PartialSolution, tracer.archive.ParetoArchive)
SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload: 2 packings per level, 2 oracle instances."""
    monkeypatch.setattr(harness, "REPS", SMALL_REPS)
    monkeypatch.setattr(harness, "ORACLE_INSTANCES", 2)


def snapshot() -> dict:
    return {(owner, name): value for owner in TRACED_OWNERS for name, value in vars(owner).items()}


def test_tracer_replaces_every_target_and_restores_every_attribute():
    before = snapshot()
    with Tracer() as active:
        patched = {(owner, attr) for owner, attr, _ in active.patched}
        for module, attr in [*tracer.SPAN_FUNCTIONS.values(), *tracer.COUNTER_FUNCTIONS.values()]:
            assert (module, attr) in patched
        for owner, attr in [*tracer.SPAN_METHODS.values(), *tracer.COUNTER_METHODS.values()]:
            assert (owner, attr) in patched
        # the names users import and the names cli calls are wrapped too
        for owner, attr in [(tracer.bibinpack, "run_sweep"), (tracer.cli, "run_sweep"),
                            (tracer.cli, "generate_instance"), (tracer.construct, "evaluate")]:
            assert (owner, attr) in patched
        assert all(vars(owner)[attr] is not before[owner, attr] for owner, attr in patched)
    assert snapshot() == before
    assert all(snapshot()[key] is value for key, value in before.items())


def test_tracer_restores_attributes_when_the_traced_code_raises():
    before = snapshot()
    with pytest.raises(ValueError):
        with Tracer():
            tracer.instances.generate_instance(7, 0)  # not a multiple of five
    assert all(snapshot()[key] is value for key, value in before.items())


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_traced_and_untraced_runs_agree(name, tmp_path, small):
    pins = json.loads(harness.DEFAULT_PINS.read_text())
    workload = harness.WORKLOADS[name](SEED, tmp_path)
    timed = harness.measure(workload, seconds=0)
    _, traced_outputs, layers = harness.traced_pass(workload, tmp_path / "spans.csv")
    untraced_checks, traced_checks = harness.Checks(), harness.Checks()
    untraced = workload.check(timed["unit_outputs"][0], pins, untraced_checks)
    traced = workload.check(traced_outputs, pins, traced_checks)
    assert untraced["digest"] == traced["digest"]
    assert untraced_checks.failures == traced_checks.failures == []
    expected = {metric["name"] for metric in SPEC["per_layer"]} - {"proc.cpu_s", "trace.overhead_s"}
    assert set(layers) == expected
    assert (tmp_path / "spans.csv").read_text().startswith("id,name,start_s,end_s,parent,self_s\n")


def test_trace_counts_match_the_work_done(tmp_path, small):
    workload = harness.SweepBestFitN1000(SEED, tmp_path)
    _, _, layers = harness.traced_pass(workload, tmp_path / "spans.csv")
    seen = set()
    params = tracer.construct.SweepParams(solutions_per_level=SMALL_REPS, rng_seed=SEED)
    tracer.construct.run_sweep(
        workload.setup(), params,
        observer=lambda _, solution: seen.add(frozenset(b.member_ids for b in solution.bins)),
    )
    packings = 41 * SMALL_REPS  # levels 1.0, 1.1, ..., 5.0
    assert layers["construct.packings"] == layers["construct.materialised"] == packings
    assert layers["archive.offered"] == layers["construct.order_items_calls"] == packings
    assert layers["construct.draw_cap_calls"] == layers["construct.best_fit_bin_calls"] == 1000 * packings
    assert layers["construct.random_fit_bin_calls"] == 0
    assert layers["construct.distinct_share"] == len(seen) / packings
    assert 0 < layers["archive.accept_share"] <= 1
    assert layers["instances.read_s"] > 0
    assert layers["construct.run_sweep_s"] > layers["construct.loop_self_s"] > 0


def run_harness(name: str, capsys) -> tuple[int, dict]:
    code = harness.main(["--workload", name, "--seed", str(SEED), "--seconds", "0",
                         "--trace", "0"])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


TAMPERED = {
    "grid-n200": {f"n=200 reps={SMALL_REPS} seed={SEED}": "0" * 64},
    "sweep-bf-n1000": {f"n=1000 reps={SMALL_REPS} seed={SEED}": [[1, "1/1"]]},
    "oracle-n10": {f"n=10 seed={SEED}": [[1, "1/1"]]},
}


@pytest.mark.parametrize("name", sorted(TAMPERED))
def test_tampered_pin_fails_the_run(name, tmp_path, small, monkeypatch, capsys):
    pins_path = tmp_path / "pins.json"
    monkeypatch.setattr(harness, "DEFAULT_PINS", pins_path)
    pins_path.write_text("{}")
    code, record = run_harness(name, capsys)
    assert code == 0 and record["failures"] == [] and record["failed_share"] == 0
    assert run.metrics_of(record, trace=False)["checks_passed_share"]["value"] == 1

    pins_path.write_text(json.dumps({name: TAMPERED[name]}))
    code, record = run_harness(name, capsys)
    assert code != 0
    assert record["failed_share"] > 0 and "pin" in record["failures"][0]
    assert run.metrics_of(record, trace=False)["checks_passed_share"]["value"] < 1


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in harness.BENCH_DIR.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (bench / "pins.json").write_text("{}")
    (tmp_path / "BENCHMARK.json").write_text((harness.ROOT / "BENCHMARK.json").read_text())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-n10", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
