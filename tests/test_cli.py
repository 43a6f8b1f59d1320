from __future__ import annotations

import csv
import hashlib
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from bibinpack import cli
from bibinpack.cli import EXIT_BAD_INSTANCE, EXIT_OK, EXIT_USAGE, main
from bibinpack.construct import Heuristic, Ordering, SweepParams, run_sweep
from bibinpack.instances import generate_instance
from bibinpack.model import ObjectiveVector, format_z2

from helpers import brute_force_front

FAST = ["--reps", "5", "--step", "0.5"]


def read_rows(path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def test_full_grid_run(tmp_path, capsys):
    out = tmp_path / "results"
    code = main(["--generate", "20", "--seed", "3", "--out", str(out), *FAST])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
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


def test_best_markers_match_union_front(tmp_path):
    out = tmp_path / "results"
    assert main(["--generate", "20", "--seed", "3", "--out", str(out), *FAST]) == EXIT_OK
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


def test_repeat_invocation_is_byte_identical(tmp_path):
    out = tmp_path / "repeat"
    args = ["--generate", "25", "--seed", "9", "--out", str(out), *FAST]
    assert main(args) == EXIT_OK
    first = (out / "results.csv").read_bytes()
    first_instance = (out / "instance.txt").read_bytes()
    assert main(args) == EXIT_OK
    assert (out / "results.csv").read_bytes() == first
    assert (out / "instance.txt").read_bytes() == first_instance


def test_loaded_instance_run(tmp_path):
    source = tmp_path / "inst.txt"
    from bibinpack.instances import write_instance

    write_instance(generate_instance(20, rng_seed=2), source)
    out = tmp_path / "loaded"
    code = main(["--instance", str(source), "--heuristic", "random-fit",
                 "--order", "random", "--out", str(out), *FAST])
    assert code == EXIT_OK
    assert not (out / "instance.txt").exists()


def test_missing_source_exits_one():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == EXIT_USAGE


def test_bad_heuristic_exits_one():
    with pytest.raises(SystemExit) as excinfo:
        main(["--generate", "20", "--heuristic", "nope"])
    assert excinfo.value.code == EXIT_USAGE


@pytest.mark.parametrize("step", ["fast", "1/0"], ids=["fast", "zero-denominator"])
def test_bad_step_exits_one(tmp_path, step):
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as excinfo:
        main(["--generate", "20", "--out", str(out), "--step", step])
    assert excinfo.value.code == EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize(
    "bad",
    [["--reps", "0"], ["--step", "0"], ["--step", "-1"]],
    ids=["reps-0", "step-0", "step-negative"],
)
def test_invalid_reps_exits_one(tmp_path, bad):
    out = tmp_path / "x"
    code = main(["--generate", "20", "--out", str(out), *bad])
    assert code == EXIT_USAGE
    assert not out.exists()


def test_too_many_levels_exits_one_before_the_sweep(tmp_path, monkeypatch, capsys):
    started = []

    def stub(instance, heuristics, orderings, params, out_dir):
        started.append(params.step)
        return out_dir / "results.csv"

    monkeypatch.setattr(cli, "run_experiment", stub)
    out = tmp_path / "x"
    code = main(["--generate", "20", "--out", str(out), "--step", "1/1000000000"])
    assert code == EXIT_USAGE
    assert "4000000001 heterogeneousness levels" in capsys.readouterr().err
    assert started == []
    assert not out.exists()
    # five attributes: a step of 4 / (MAX_LEVELS - 1) gives exactly MAX_LEVELS levels
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


def test_failed_rerun_keeps_previous_results(tmp_path, monkeypatch):
    out = tmp_path / "rerun"
    assert main(["--generate", "20", "--seed", "4", "--out", str(out), *FAST]) == EXIT_OK
    names = ["instance.txt", "results.csv", "timings.csv"]
    before = {name: (out / name).read_bytes() for name in names}
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
    assert sorted(p.name for p in out.iterdir()) == names
    assert {name: (out / name).read_bytes() for name in names} == before


@pytest.mark.parametrize("writer", ["_write_timings", "write_instance"])
def test_failed_write_keeps_every_previous_output(tmp_path, monkeypatch, writer):
    out = tmp_path / "rerun"
    assert main(["--generate", "20", "--seed", "4", "--out", str(out), *FAST]) == EXIT_OK
    names = ["instance.txt", "results.csv", "timings.csv"]
    before = {name: (out / name).read_bytes() for name in names}

    def failing_writer(*_):
        raise OSError("disk full")

    monkeypatch.setattr(cli, writer, failing_writer)
    # a different seed, so any file the rerun replaced would show
    assert main(["--generate", "20", "--seed", "5", "--out", str(out), *FAST]) == EXIT_USAGE
    assert sorted(p.name for p in out.iterdir()) == names
    assert {name: (out / name).read_bytes() for name in names} == before


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


def test_generate_size_not_multiple_of_five_exits_two(tmp_path, capsys):
    code = main(["--generate", "7", "--out", str(tmp_path / "o")])
    assert code == EXIT_BAD_INSTANCE
    assert "multiple of 5" in capsys.readouterr().err
