"""bibinpack benchmark: run workloads, print every metric with its unit, check outputs.

    python3 perfbench/run.py                                    # all three workloads
    python3 perfbench/run.py --workload grid-n200 --seed 7 --seconds 30 --trace 0

Each workload runs in a fresh process (harness.py), one after the other, so
peak memory is per workload and at most one core is busy unless the library
itself goes parallel. With --trace 0 the last stdout line is a JSON object
holding the end-to-end metrics; with --trace 1 it holds the per-layer metrics
of a separate traced pass. The exit code is 0 only when every check passed.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
CHILD_TIMEOUT_S = 170


def run_child(args, workload: str) -> dict:
    command = [
        sys.executable, str(BENCH_DIR / "harness.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                               timeout=CHILD_TIMEOUT_S)
    lines = completed.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: harness printed nothing\n{completed.stderr}")
    return json.loads(lines[-1])


def metrics_of(record: dict, trace: bool) -> dict:
    if trace:
        return {name: {"value": record["layers"][name], "unit": unit}
                for name, unit in PER_LAYER.items()}
    values = {
        "front_s": record["front_s"],
        "setup_s": record["setup_s"],
        "peak_rss_mb": record["peak_rss_mb"],
        "checks_passed_share": 1 - record["failed_share"],
        "z1_over_lb": record["z1_over_lb"],
        "homog_z1_over_h": record["homog_z1_over_h"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def report(record: dict, metrics: dict) -> None:
    name = record["workload"]
    env = record["env"]
    print(f"{name}: python {env['python']}, nproc {env['nproc']}, git {env['git']}, "
          f"src sha256 {env['src_sha256'][:16]}")
    if "units" in record:
        print(f"{name}: {record['units']} timed unit(s), {record['setup_windows']} set-up windows "
              f"({record['set_ups']} set-ups), "
              f"reference loop {record['ref_loop_before_s']:.4f} s before, "
              f"{record['ref_loop_after_s']:.4f} s after")
    if "digest" in record:
        pinned = "checked against pin" if record["pinned"] else "no pin for this seed"
        print(f"{name}: seed {record['seed']} output sha256 {record['digest']} ({pinned})")
    if "spans" in record:
        print(f"{name}: spans written to {record['spans']}")
    print(f"{name}: failed_share {record['failed_share']:.6g} "
          f"({len(record['failures'])} of {record['checked']} checks failed)")
    for failure in record["failures"]:
        print(f"{name}: FAILED {failure}")
    for metric, entry in metrics.items():
        print(f"{name}: {metric} {entry['value']:.6g} {entry['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bibinpack" / "__init__.py").is_file():
        print(f"run.py: no bibinpack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else [args.workload]
    started = time.perf_counter()
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            record = run_child(args, name)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            print(f"run.py: {name}: {exc}", file=sys.stderr)
            return 2
        if "front_s" not in record:  # the harness crashed before timing ended
            report(record, {})
            return 1
        workload_metrics = metrics_of(record, bool(args.trace))
        report(record, workload_metrics)
        correct &= not record["failures"]
        attempted += record["checked"]
        failed += len(record["failures"])
        if len(names) == 1:
            metrics = workload_metrics
        else:
            metrics.update({f"{name}/{metric}": entry for metric, entry in workload_metrics.items()})
    print(f"run.py: {len(names)} workload(s) in {time.perf_counter() - started:.1f} s")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
