"""One workload run: set-up windows spread across the run, timed units, an
optional traced pass, then output checks. run.py starts this script in a fresh
process per workload, so peak memory belongs to one workload only.

    python3 perfbench/harness.py --workload sweep-bf-n1000 --seed 7 --seconds 30 --trace 0

The last stdout line is a JSON record that run.py turns into the report.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
DEFAULT_PINS = BENCH_DIR / "pins.json"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from bibinpack import cli, construct, instances, oracle  # noqa: E402
from bibinpack.model import dominates, format_z2, validate_solution  # noqa: E402

from tracer import Tracer  # noqa: E402

REPS = 100
ORACLE_INSTANCES = 12


def lower_bounds(instance) -> tuple[int, int]:
    """(ceil(W/C), sum over attributes of ceil(W_a/C)): bin-count and
    homogeneous-bin-count lower bounds."""
    per_attribute: dict[str, int] = {}
    for item in instance.items:
        per_attribute[item.attribute] = per_attribute.get(item.attribute, 0) + item.weight
    capacity = instance.capacity
    homogeneous = sum(-(-weight // capacity) for weight in per_attribute.values())
    return instance.lower_bound, homogeneous


def recount(solution) -> tuple[int, Fraction]:
    """Both objectives straight from member ids and raw items."""
    items = solution.instance.items
    used = len(solution.bins)
    mixing = sum(len({items[i].attribute for i in b.member_ids}) for b in solution.bins)
    return used, Fraction(mixing, used)


def vector_key(vectors) -> list[list]:
    return sorted([v.z1, f"{v.z2.numerator}/{v.z2.denominator}"] for v in vectors)


def digest_of(value) -> str:
    data = value if isinstance(value, bytes) else json.dumps(value, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


class Checks:
    """Checked outputs and the ones that failed, with a note per failure."""

    def __init__(self) -> None:
        self.checked = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.checked += 1
        if not ok:
            self.failures.append(what)

    def witnesses(self, entries, label: str) -> None:
        """validate_solution plus an independent objective recount on every witness."""
        for vector, solution in entries:
            try:
                validate_solution(solution)
            except ValueError as exc:
                self.expect(False, f"{label}: witness for {vector}: {exc}")
                continue
            self.expect(recount(solution) == (vector.z1, vector.z2),
                        f"{label}: witness for {vector} recounts to {recount(solution)}")

    def antichain(self, vectors, label: str) -> None:
        self.expect(
            not any(dominates(a, b) for a in vectors for b in vectors),
            f"{label}: reported vectors are not mutually non-dominated",
        )


# -- workloads ---------------------------------------------------------------
#
# Each workload has: setup(), the timed set-up its user-visible calls pay;
# steps(inputs), the timed user-visible calls; collect(), the step's output
# read back untimed; check(outputs, pins), run after timing.


class GridN200:
    """`bibinpack --generate 200 --seed S`: all six cells and the report writers."""

    name = "grid-n200"
    n = 200
    setup_window_s = 3.0
    setup_in_unit = True  # cli.main generates and writes the instance itself

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.reps = REPS
        self.work_dir = work_dir
        self.out_dir = work_dir / "grid"
        self.argv = ["--generate", str(self.n), "--seed", str(seed), "--out", str(self.out_dir),
                     "--reps", str(self.reps)]
        self.pin_key = f"n={self.n} reps={self.reps} seed={seed}"

    def setup(self):
        instance = instances.generate_instance(self.n, self.seed)
        instances.write_instance(instance, self.work_dir / "setup-instance.txt")

    def steps(self, _inputs):
        def run_cli():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(self.argv)
        return [run_cli]

    def collect(self, exit_code):
        return exit_code, (self.out_dir / "results.csv").read_bytes()

    def check(self, outputs, pins, checks: Checks) -> dict:
        exit_code, report = outputs[0]
        checks.expect(exit_code == 0, f"cli.main exited {exit_code}")
        digest = digest_of(report)
        pinned = pins.get(self.name, {}).get(self.pin_key)
        if pinned is not None:
            checks.expect(digest == pinned, f"results.csv sha256 {digest} != pin {pinned}")
        lb, homogeneous = lower_bounds(instances.generate_instance(self.n, self.seed))
        cells: dict[tuple[str, str], list[tuple[int, Fraction]]] = {}
        printed_exactly = True
        for line in report.decode().splitlines()[1:]:
            heuristic, order, z1, z2, _ = line.split(",")
            # z2 is an integer over z1, printed to 3 decimals; for z1 < 1000 only
            # one numerator rounds to the printed value, so z2 is recovered exactly
            exact = Fraction(round(Fraction(z2) * int(z1)), int(z1))
            printed_exactly &= format_z2(exact) == z2
            cells.setdefault((heuristic, order), []).append((int(z1), exact))
        checks.expect(printed_exactly, "results.csv holds a z2 that is no ratio over its z1")
        checks.expect(len(cells) == 6, f"results.csv holds {len(cells)} cells, not 6")
        for cell, rows in cells.items():
            checks.expect(
                all(a[0] > b[0] and a[1] < b[1] for a, b in zip(rows, rows[1:]))
                and all(z1 >= lb and 1 <= z2 <= 5 for z1, z2 in rows)
                and rows[0][1] == 1,
                f"cell {cell}: rows not an antichain sorted by z1, out of bounds,"
                " or without a z2 = 1 vector",
            )
        rows = [row for cell in cells.values() for row in cell]
        return {
            "digest": digest,
            "pinned": pinned is not None,
            "z1_over_lb": min(z1 for z1, _ in rows) / lb,
            "homog_z1_over_h": min(z1 for z1, z2 in rows if z2 == 1) / homogeneous,
        }


class SweepBestFitN1000:
    """read_instance of a written n = 1000 file, then one default best-fit /
    decreasing sweep."""

    name = "sweep-bf-n1000"
    n = 1000
    setup_window_s = 3.0
    setup_in_unit = False

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.reps = REPS
        self.path = work_dir / "instance.txt"
        instances.write_instance(instances.generate_instance(self.n, seed), self.path)
        self.pin_key = f"n={self.n} reps={self.reps} seed={seed}"

    def setup(self):
        return instances.read_instance(self.path)

    def steps(self, instance):
        params = construct.SweepParams(
            solutions_per_level=self.reps,
            rng_seed=self.seed,
            heuristic=construct.Heuristic.BEST_FIT,
            ordering=construct.Ordering.DECREASING,
        )
        return [lambda: construct.run_sweep(instance, params)]

    def collect(self, archive):
        return archive

    def check(self, outputs, pins, checks: Checks) -> dict:
        archive = outputs[0]
        vectors = archive.vectors()
        key = vector_key(vectors)
        pinned = pins.get(self.name, {}).get(self.pin_key)
        if pinned is not None:
            checks.expect(key == pinned, f"archive vectors {key} != pin {pinned}")
        checks.witnesses(archive, self.name)
        checks.antichain(vectors, self.name)
        lb, homogeneous = lower_bounds(archive.sorted_entries()[0][1].instance)
        homog = [v.z1 for v in vectors if v.z2 == 1]
        checks.expect(len(homog) == 1, "archive holds no z2 = 1 vector")
        return {
            "digest": digest_of(key),
            "pinned": pinned is not None,
            "z1_over_lb": min(v.z1 for v in vectors) / lb,
            "homog_z1_over_h": min(homog, default=0) / homogeneous,
        }


class OracleN10:
    """exact_pareto on generate_instance(10, S + k) for a fixed list of k."""

    name = "oracle-n10"
    n = 10
    setup_window_s = 0.3
    setup_in_unit = False

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seeds = [seed + k for k in range(ORACLE_INSTANCES)]

    def setup(self):
        return [instances.generate_instance(self.n, s) for s in self.seeds]

    def steps(self, generated):
        return [lambda instance=instance: oracle.exact_pareto(instance) for instance in generated]

    def collect(self, front):
        return front

    def check(self, outputs, pins, checks: Checks) -> dict:
        keys = {}
        pinned_all = True
        ratios, homog_ratios = [], []
        for seed, front in zip(self.seeds, outputs):
            vectors = [vector for vector, _ in front]
            key = keys[str(seed)] = vector_key(vectors)
            pinned = pins.get(self.name, {}).get(f"n={self.n} seed={seed}")
            if pinned is None:
                pinned_all = False
            else:
                checks.expect(key == pinned, f"instance seed {seed}: front {key} != pin {pinned}")
            checks.witnesses(front, f"{self.name} instance seed {seed}")
            checks.antichain(vectors, f"{self.name} instance seed {seed}")
            lb, homogeneous = lower_bounds(front[0][1].instance)
            ratios.append(min(v.z1 for v in vectors) / lb)
            homog_ratios.append(min((v.z1 for v in vectors if v.z2 == 1), default=0) / homogeneous)
        return {
            "digest": digest_of(keys),
            "pinned": pinned_all,
            "z1_over_lb": statistics.fmean(ratios),
            "homog_z1_over_h": statistics.fmean(homog_ratios),
        }


WORKLOADS = {w.name: w for w in (GridN200, SweepBestFitN1000, OracleN10)}


# -- measurement ---------------------------------------------------------------


def cpu_seconds() -> float:
    """CPU time of this process and every child it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024  # ru_maxrss is in KiB on Linux


def reference_loop_s() -> float:
    """Median of three timings of a fixed pure-Python loop; tracks the host's speed phase."""
    timings = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        timings.append(time.perf_counter() - start)
    return statistics.median(timings)


def run_unit(workload, inputs, sample_setup=None):
    """Time one unit's steps; take a set-up window after each step when asked.

    Returns wall seconds and CPU seconds of the steps alone, and their outputs.
    """
    elapsed = cpu = 0.0
    outputs = []
    for step in workload.steps(inputs):
        cpu_start = cpu_seconds()
        start = time.perf_counter()
        value = step()
        elapsed += time.perf_counter() - start
        cpu += cpu_seconds() - cpu_start
        outputs.append(workload.collect(value))
        if sample_setup is not None:
            sample_setup()
    return elapsed, cpu, outputs


def measure(workload, seconds: float) -> dict:
    """Repeat whole units while the run budget allows another, at least once.

    Set-up is sampled before the first step and after every step, so its
    samples are spread over the whole run rather than bunched at its start:
    the host alternates between speed phases lasting several seconds. Each
    sampling point is a window of `setup_window_s` seconds of back-to-back
    set-ups, and its sample is their mean: total set-up time over set-ups,
    so a window weighs each phase by the time it lasted, where a median
    would jump between the fast and the slow mode. `setup_s` is the median
    of the window samples.
    """
    window_means: list[float] = []
    set_ups = 0
    latest = {}

    def sample_setup():
        nonlocal set_ups
        timings = []
        window_end = time.perf_counter() + workload.setup_window_s
        while True:
            start = time.perf_counter()
            latest["inputs"] = workload.setup()
            end = time.perf_counter()
            timings.append(end - start)
            if end >= window_end:
                break
        set_ups += len(timings)
        window_means.append(statistics.fmean(timings))

    unit_s, unit_cpu_s, unit_outputs = [], [], []
    begin = time.perf_counter()
    sample_setup()
    while True:
        elapsed, cpu, outputs = run_unit(workload, latest["inputs"], sample_setup)
        unit_cpu_s.append(cpu)
        unit_s.append(elapsed)
        unit_outputs.append(outputs)
        spent = time.perf_counter() - begin
        if spent + spent / len(unit_s) > seconds:
            break
    return {
        "front_s": statistics.median(unit_s),
        "setup_s": statistics.median(window_means),
        "cpu_s": statistics.median(unit_cpu_s),
        "units": len(unit_s),
        "setup_windows": len(window_means),
        "set_ups": set_ups,
        "unit_outputs": unit_outputs,
    }


def traced_pass(workload, spans_path: Path) -> tuple[float, list, dict]:
    """One set-up and one unit with every layer wrapped."""
    with Tracer() as tracer:
        inputs = None if workload.setup_in_unit else workload.setup()
        elapsed, _, outputs = run_unit(workload, inputs)
    tracer.write_spans(spans_path)
    return elapsed, outputs, tracer.layer_metrics()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git": git_sha(),
        "src_sha256": source_digest(),
    }


def git_sha() -> str:
    """HEAD of the checkout's git repository, or "none" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "none"


def source_digest() -> str:
    """sha256 over the library sources, which names the code even without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "bibinpack").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": name, "seed": seed, "env": environment()}
    checks = Checks()
    try:
        pins = json.loads(DEFAULT_PINS.read_text())
        workload = WORKLOADS[name](seed, work_dir)
        record["ref_loop_before_s"] = reference_loop_s()
        timed = measure(workload, seconds)
        record["peak_rss_mb"] = peak_rss_mb()
        record["ref_loop_after_s"] = reference_loop_s()
        outputs = timed.pop("unit_outputs")
        record.update(timed)
        if trace:
            spans_path = OUT_DIR / f"spans-{name}-seed{seed}.csv"
            traced_s, traced_outputs, layers = traced_pass(workload, spans_path)
            layers["proc.cpu_s"] = timed["cpu_s"]
            layers["trace.overhead_s"] = traced_s - timed["front_s"]
            record["layers"] = layers
            record["spans"] = str(spans_path.relative_to(ROOT))
            outputs.append(traced_outputs)
        summaries = [workload.check(unit, pins, checks) for unit in outputs]
        digests = {summary["digest"] for summary in summaries}
        checks.expect(len(digests) == 1,
                      f"units disagree: {len(digests)} distinct digests, traced pass included")
        record.update({key: summaries[0][key]
                       for key in ("digest", "pinned", "z1_over_lb", "homog_z1_over_h")})
    except Exception:  # a crash is a failed output, reported like one
        checks.expect(False, traceback.format_exc())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    record["checked"] = checks.checked
    record["failures"] = checks.failures
    record["failed_share"] = len(checks.failures) / checks.checked
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record))
    return 0 if not record["failures"] else 1


if __name__ == "__main__":
    sys.exit(main())
