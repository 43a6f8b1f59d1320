from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from bibinpack import cli
from bibinpack.cli import EXIT_BAD_INSTANCE, EXIT_OK, EXIT_USAGE, main
from bibinpack.construct import Heuristic, Ordering, SweepParams, run_sweep
from bibinpack.instances import generate_instance, read_instance, write_instance
from bibinpack.model import ObjectiveVector, format_z2

from helpers import brute_force_front

FAST = ["--reps", "5", "--step", "0.5"]


def read_rows(path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


@pytest.fixture(scope="module")
def grid_run(tmp_path_factory) -> tuple[Path, str]:
    """One full-grid run shared by the checks on its outputs: the output
    directory and what the run printed."""
    out = tmp_path_factory.mktemp("grid") / "results"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["--generate", "20", "--seed", "3", "--out", str(out), *FAST])
    assert code == EXIT_OK
    return out, stdout.getvalue()


def test_full_grid_run(grid_run):
    out, stdout = grid_run
    assert "best-fit / decreasing" in stdout
    assert "wrote" in stdout

    rows = read_rows(out / "results.csv")
    assert rows and set(rows[0]) == {"heuristic", "order", "z1", "z2", "best"}
    cells = {(r["heuristic"], r["order"]) for r in rows}
    assert cells == {(h.value, o.value) for h in Heuristic for o in Ordering}

    # rows within each cell sorted by z1 descending then z2 ascending
    for cell in cells:
        cell_rows = [r for r in rows if (r["heuristic"], r["order"]) == cell]
        keys = [(-int(r["z1"]), r["z2"]) for r in cell_rows]
        assert keys == sorted(keys)

    timing_rows = read_rows(out / "timings.csv")
    assert len(timing_rows) == 6
    assert all(float(r["seconds"]) >= 0 for r in timing_rows)
    assert (out / "instance.txt").exists()


def test_best_markers_match_union_front(grid_run):
    out, _ = grid_run
    rows = read_rows(out / "results.csv")

    # recompute the per-cell archives with the same parameters
    instance = generate_instance(20, rng_seed=3)
    vectors_by_cell: dict[tuple[str, str], list[ObjectiveVector]] = {}
    for heuristic in Heuristic:
        for ordering in Ordering:
            params = SweepParams(step=Fraction(1, 2), solutions_per_level=5, rng_seed=3,
                                 heuristic=heuristic, ordering=ordering)
            archive = run_sweep(instance, params)
            vectors_by_cell[(heuristic.value, ordering.value)] = archive.vectors()

    union = [v for vectors in vectors_by_cell.values() for v in vectors]
    front = brute_force_front(union)
    for row in rows:
        cell_vectors = vectors_by_cell[(row["heuristic"], row["order"])]
        match = [v for v in cell_vectors
                 if v.z1 == int(row["z1"]) and format_z2(v.z2) == row["z2"]]
        assert len(match) == 1
        assert row["best"] == str(int(match[0] in front))


def test_single_cell_run(tmp_path):
    out = tmp_path / "single"
    code = main(["--generate", "20", "--seed", "1", "--heuristic", "best-fit",
                 "--order", "decreasing", "--out", str(out), *FAST])
    assert code == EXIT_OK
    rows = read_rows(out / "results.csv")
    assert {(r["heuristic"], r["order"]) for r in rows} == {("best-fit", "decreasing")}
    assert len(read_rows(out / "timings.csv")) == 1


def test_loaded_instance_run(tmp_path):
    source = tmp_path / "inst.txt"
    write_instance(generate_instance(20, rng_seed=2), source)
    out = tmp_path / "loaded"
    # an earlier run's instance must not outlive it beside the new results
    assert main(["--generate", "20", "--seed", "4", "--out", str(out), *FAST]) == EXIT_OK
    code = main(["--instance", str(source), "--heuristic", "random-fit",
                 "--order", "random", "--out", str(out), *FAST])
    assert code == EXIT_OK
    assert read_instance(out / "instance.txt") == read_instance(source)


def test_module_entry_point_passes_exit_codes(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "bibinpack", *args],
                              env=env, capture_output=True, text=True, timeout=120)

    out = tmp_path / "module"
    ok = run("--generate", "20", "--reps", "2", "--step", "0.5", "--out", str(out))
    assert ok.returncode == EXIT_OK, ok.stderr
    assert sorted(p.name for p in out.iterdir()) == ["instance.txt", "results.csv", "timings.csv"]
    bad = run("--generate", "7", "--out", str(tmp_path / "bad"))
    assert bad.returncode == EXIT_BAD_INSTANCE
    assert "invalid instance" in bad.stderr


def test_parser_defaults_are_the_sweep_defaults(capsys):
    defaults = SweepParams()
    expected = (defaults.step, defaults.solutions_per_level, defaults.rng_seed)
    args = cli.build_parser().parse_args(["--generate", "5"])
    assert (args.step, args.reps, args.seed) == expected
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == EXIT_OK
    # argparse wraps the help to the terminal width
    help_text = " ".join(capsys.readouterr().out.split())
    for value in expected:
        assert f"(default {value})" in help_text


def test_missing_source_exits_one():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == EXIT_USAGE


def test_bad_heuristic_exits_one():
    with pytest.raises(SystemExit) as excinfo:
        main(["--generate", "20", "--heuristic", "nope"])
    assert excinfo.value.code == EXIT_USAGE


@pytest.mark.parametrize(
    ("bad", "rule"),
    [
        (["--reps", "0"], "solutions_per_level must be an int >= 1, got 0"),
        (["--step", "0"], "step must be positive, got 0"),
        (["--step", "-1"], "step must be positive, got -1"),
        (["--step", "fast"], "step must be a rational number, got 'fast'"),
        (["--step", "1/0"], "step must be a rational number, got '1/0'"),
    ],
    ids=["reps-0", "step-0", "step-negative", "step-fast", "step-zero-denominator"],
)
def test_invalid_sweep_parameters_exit_one_before_writing(tmp_path, capsys, bad, rule):
    out = tmp_path / "x"
    code = main(["--generate", "20", "--out", str(out), *bad])
    assert code == EXIT_USAGE
    assert not out.exists()
    assert capsys.readouterr().err == f"bibinpack: error: {rule}\n"


def test_too_many_levels_exits_one_before_the_sweep(tmp_path, monkeypatch, capsys):
    started = []

    def stub(instance, heuristics, orderings, params, out_dir):
        started.append(params.step)

    monkeypatch.setattr(cli, "run_experiment", stub)
    out = tmp_path / "x"
    # five attributes: a step of 4 / MAX_LEVELS gives one level too many
    for step, levels in [("1/1000000000", 4000000001),
                         (Fraction(4, cli.MAX_LEVELS), cli.MAX_LEVELS + 1)]:
        code = main(["--generate", "20", "--out", str(out), "--step", str(step)])
        assert code == EXIT_USAGE
        assert f"{levels} heterogeneousness levels" in capsys.readouterr().err
    assert started == []
    assert not out.exists()
    # and a step of 4 / (MAX_LEVELS - 1) gives exactly MAX_LEVELS levels
    step = Fraction(4, cli.MAX_LEVELS - 1)
    assert main(["--generate", "20", "--out", str(out), "--step", str(step)]) == EXIT_OK
    assert started == [step]


def test_out_naming_a_file_exits_one(tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n", encoding="utf-8")
    code = main(["--generate", "20", "--out", str(blocker), *FAST])
    assert code == EXIT_USAGE
    assert "bibinpack: error:" in capsys.readouterr().err
    assert blocker.read_text(encoding="utf-8") == "not a directory\n"


def previous_run(tmp_path) -> tuple[Path, dict[str, bytes]]:
    """A finished run's output directory and the bytes of its three outputs,
    which a failed rerun must leave as the only files there."""
    out = tmp_path / "rerun"
    assert main(["--generate", "20", "--seed", "4", "--out", str(out), *FAST]) == EXIT_OK
    names = ["instance.txt", "results.csv", "timings.csv"]
    return out, {name: (out / name).read_bytes() for name in names}


def test_failed_rerun_keeps_previous_results(tmp_path, monkeypatch):
    out, before = previous_run(tmp_path)
    calls = []

    def failing_format_z2(value):
        calls.append(value)
        if len(calls) > 1:
            raise RuntimeError("formatter failed mid-report")
        return format_z2(value)

    monkeypatch.setattr(cli, "format_z2", failing_format_z2)
    # a different seed, so a half-written rerun would show in every file
    with pytest.raises(RuntimeError, match="mid-report"):
        main(["--generate", "20", "--seed", "5", "--out", str(out), *FAST])
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("writer", ["_write_timings", "write_instance"])
def test_failed_write_keeps_every_previous_output(tmp_path, monkeypatch, writer):
    out, before = previous_run(tmp_path)

    def failing_writer(*_):
        raise OSError("disk full")

    monkeypatch.setattr(cli, writer, failing_writer)
    # a different seed, so any file the rerun replaced would show
    assert main(["--generate", "20", "--seed", "5", "--out", str(out), *FAST]) == EXIT_USAGE
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_step_above_one_warns_once_at_the_caller(tmp_path):
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        code = main(["--generate", "20", "--step", "2", "--reps", "2",
                     "--out", str(tmp_path / "wide")])
    assert code == EXIT_OK
    assert [(str(w.message), Path(w.filename).name) for w in record] == [
        ("step 2 > 1 skips heterogeneousness levels", "cli.py")
    ]


def test_results_digest_is_pinned(tmp_path):
    # the reported front of the benchmark invocation; a change here changes what users see
    out = tmp_path / "pinned"
    assert main(["--generate", "100", "--seed", "7", "--out", str(out)]) == EXIT_OK
    digest = hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()
    assert digest == "9164f037fd6bd207f11aa22725d60e9fd302daef7e973047758dc925e0f7480d"


def test_unreadable_instance_exits_two(tmp_path, capsys):
    code = main(["--instance", str(tmp_path / "missing.txt"), "--out", str(tmp_path / "o")])
    assert code == EXIT_BAD_INSTANCE
    assert "invalid instance" in capsys.readouterr().err


def test_overweight_instance_file_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1 1000\n1001 A\n", encoding="utf-8")
    code = main(["--instance", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_BAD_INSTANCE
    assert "exceeds capacity" in capsys.readouterr().err
