"""Record the outputs the harness checks against, from the library as it is now.

    python3 perfbench/make_pins.py --workload grid-n200 --seeds 0-31

Run it at the commit whose outputs are the reference. It merges one
workload's entries into the pins file (default pins.json here); existing
entries for other keys are kept. Pins are keyed by the parameters that
determine the output, so a run at another size never meets these pins.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
from pathlib import Path

import harness

ROADMAP_GRID_PIN = ("n=200 reps=100 seed=7",
                    "9d0cff3681a9f4079a83884e94f837c3fbcfb3bc83867d98d6ba73a42243d6a3")


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def pins_for(name: str, seed: int, work_dir: Path, known: dict) -> dict:
    workload = harness.WORKLOADS[name](seed, work_dir)
    if name == "oracle-n10":  # instance lists of nearby seeds overlap
        workload.seeds = [s for s in workload.seeds if f"n={workload.n} seed={s}" not in known]
    inputs = None if workload.setup_in_unit else workload.setup()
    _, _, outputs = harness.run_unit(workload, inputs)
    if name == "grid-n200":
        return {workload.pin_key: harness.digest_of(outputs[0][1])}
    if name == "sweep-bf-n1000":
        return {workload.pin_key: harness.vector_key(outputs[0].vectors())}
    return {f"n={workload.n} seed={s}": harness.vector_key([v for v, _ in front])
            for s, front in zip(workload.seeds, outputs)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-31")
    parser.add_argument("--out", type=Path, default=harness.DEFAULT_PINS)
    args = parser.parse_args()
    work_dir = harness.OUT_DIR / f"pins-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    pins = json.loads(args.out.read_text()) if args.out.exists() else {}
    section = pins.setdefault(args.workload, {})
    try:
        for seed in args.seeds:
            section.update(pins_for(args.workload, seed, work_dir, section))
            print(f"{args.workload} seed {seed} pinned", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    key, digest = ROADMAP_GRID_PIN
    if section.get(key, digest) != digest:
        raise SystemExit(f"results.csv for {key} no longer matches the ROADMAP pin")
    for name in pins:
        pins[name] = dict(sorted(pins[name].items()))
    args.out.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
