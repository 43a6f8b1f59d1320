"""Command-line experiment harness: sweep one instance across heuristics and orderings."""

from __future__ import annotations

import argparse
import csv
import os
import shutil
import sys
import tempfile
import time
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Iterable

from .archive import ParetoArchive
from .construct import Heuristic, Ordering, SweepParams, level_count, run_sweep
from .instances import generate_instance, read_instance, write_instance
from .model import Instance, format_z2

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAD_INSTANCE = 2

# every level builds --reps packings per cell, so a finer grid cannot finish in practice
MAX_LEVELS = 10_000

Cell = tuple[Heuristic, Ordering, ParetoArchive]


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; exit 2 is reserved for invalid instances
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        # argparse reports only ValueError/TypeError as usage errors, and "1/0" raises neither
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bibinpack",
        description=(
            "Approximate the efficient bin-count / heterogeneousness tradeoff of a "
            "packing instance with randomized constructive heuristics."
        ),
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--generate", type=int, metavar="N",
                        help="generate a benchmark instance with N items")
    source.add_argument("--instance", metavar="PATH", help="load an instance file")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for generation and the sweeps (default 0)")
    parser.add_argument("--heuristic", default="all",
                        choices=[h.value for h in Heuristic] + ["all"],
                        help="which heuristic to run (default all)")
    parser.add_argument("--order", default="all",
                        choices=[o.value for o in Ordering] + ["all"],
                        help="item processing order (default all)")
    parser.add_argument("--step", type=_fraction, default=Fraction(1, 10), metavar="S",
                        help="heterogeneousness level increment (default 0.1)")
    parser.add_argument("--reps", type=int, default=100, metavar="M",
                        help="solutions built per level (default 100)")
    parser.add_argument("--out", default="results", metavar="DIR",
                        help="output directory (default results/)")
    return parser


def run_experiment(
    instance: Instance,
    heuristics: list[Heuristic],
    orderings: list[Ordering],
    params: SweepParams,
    out_dir: Path,
) -> Path:
    """Run every requested (heuristic, ordering) cell and write the report files.

    Each cell sweeps with `params`, its heuristic and ordering replaced.
    results.csv is byte-stable for a given invocation; per-cell wall-clock
    goes to timings.csv, which is not. Returns the results path.
    """
    cells: list[Cell] = []
    timings: list[tuple[Heuristic, Ordering, float]] = []
    for heuristic in heuristics:
        for ordering in orderings:
            with warnings.catch_warnings():
                # params was validated, and warned about, when it was built
                warnings.simplefilter("ignore")
                cell_params = replace(params, heuristic=heuristic, ordering=ordering)
            started = time.perf_counter()
            archive = run_sweep(instance, cell_params)
            elapsed = time.perf_counter() - started
            cells.append((heuristic, ordering, archive))
            timings.append((heuristic, ordering, elapsed))
            print(f"{heuristic.value} / {ordering.value}: "
                  f"{len(archive)} vectors in {elapsed:.2f}s")
    results_path = out_dir / "results.csv"
    _write_results(results_path, cells)
    _write_timings(out_dir / "timings.csv", timings)
    return results_path


def _write_results(path: Path, cells: list[Cell]) -> None:
    # a row is best when its vector survives the archive folded from all cells
    union = ParetoArchive()
    for _, _, archive in cells:
        for vector, witness in archive:
            union.update(vector, witness)
    best = set(union.vectors())
    rows = (
        [heuristic.value, ordering.value, vector.z1, format_z2(vector.z2), int(vector in best)]
        for heuristic, ordering, archive in cells
        for vector, _ in archive.sorted_entries()
    )
    _write_csv(path, ["heuristic", "order", "z1", "z2", "best"], rows)


def _write_timings(path: Path, timings: list[tuple[Heuristic, Ordering, float]]) -> None:
    rows = (
        [heuristic.value, ordering.value, f"{elapsed:.3f}"]
        for heuristic, ordering, elapsed in timings
    )
    _write_csv(path, ["heuristic", "order", "seconds"], rows)


def _write_csv(path: Path, header: list[str], rows: Iterable[list[object]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.generate is not None:
            instance = generate_instance(args.generate, args.seed)
        else:
            instance = read_instance(args.instance)
    except (OSError, ValueError) as exc:
        print(f"bibinpack: invalid instance: {exc}", file=sys.stderr)
        return EXIT_BAD_INSTANCE
    heuristics = list(Heuristic) if args.heuristic == "all" else [Heuristic(args.heuristic)]
    orderings = list(Ordering) if args.order == "all" else [Ordering(args.order)]
    out_dir = Path(args.out)
    try:
        # validate the parameters before anything is written
        params = SweepParams(step=args.step, solutions_per_level=args.reps, rng_seed=args.seed)
        levels = level_count(len(instance.attribute_universe), params.step)
        if levels > MAX_LEVELS:
            raise ValueError(f"step {params.step} gives {levels} heterogeneousness levels; "
                             f"at most {MAX_LEVELS} are allowed")
        out_dir.mkdir(parents=True, exist_ok=True)
        # every output is staged first and moved into place only once all of
        # them exist, so a failed run leaves the previous outputs as they were
        staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out_dir))
        try:
            run_experiment(instance, heuristics, orderings, params, staging)
            if args.generate is not None:
                write_instance(instance, staging / "instance.txt")
            for staged in sorted(staging.iterdir()):
                os.replace(staged, out_dir / staged.name)
        finally:
            shutil.rmtree(staging, ignore_errors=True)
    except (OSError, ValueError) as exc:
        print(f"bibinpack: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote {out_dir / 'results.csv'}")
    return EXIT_OK
