"""Mutation check: every mutant in the table must make its named tests fail.

Usage: python tests/mutants.py

For each mutant, `src/` is copied to a temporary directory, one exact edit
is applied to the copy, and pytest runs the mutant's test files from the
repository root against that copy, with a fixed hypothesis seed. A mutant
is killed when pytest exits 1 (tests failed); any other non-zero exit is
an error. Before the first mutant, the unedited copy must pass every
listed file, and it must be the package that imports. The script prints
one row per mutant and exits 1 on any survivor or error. A survivor calls
for a stronger test, never for a weaker mutant or a looser bound.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# (name, file under src/bibinpack/, exact old text, new text, test files that must fail)
MUTANTS = [
    # the shared integer rule and each field that states it
    ("require_int accepts a bool", "model.py",
     " or isinstance(value, bool) or (", " or (", ["test_model.py"]),
    # test_model.py builds no item of weight 1; test_construct.py's instances do
    ("require_int excludes its minimum", "model.py",
     "value < minimum", "value <= minimum", ["test_construct.py"]),
    ("Item.weight unchecked", "model.py",
     '        require_int("weight", self.weight, 1)\n', "        pass\n", ["test_model.py"]),
    ("Item.attribute unchecked", "model.py",
     "        if not isinstance(self.attribute, str):\n", "        if False:\n",
     ["test_model.py"]),
    ("Instance.capacity unchecked", "model.py",
     '        require_int("capacity", self.capacity, 1)\n', "", ["test_model.py"]),
    ("Instance accepts a non-Item", "model.py",
     "            if not isinstance(item, Item):\n", "            if False:\n",
     ["test_model.py"]),
    ("SweepParams.solutions_per_level unchecked", "construct.py",
     '        require_int("solutions_per_level", self.solutions_per_level, 1)\n', "",
     ["test_construct.py"]),
    ("SweepParams.rng_seed unchecked", "construct.py",
     '        require_int("rng_seed", self.rng_seed)\n', "", ["test_construct.py"]),
    ("generate_instance n unchecked", "instances.py",
     '    require_int("n", n)\n', "", ["test_instances.py"]),
    ("generate_instance rng_seed unchecked", "instances.py",
     '    require_int("rng_seed", rng_seed, 0)\n', "", ["test_instances.py"]),
    ("generate_instance accepts a negative seed", "instances.py",
     "rng_seed, 0)", "rng_seed)", ["test_instances.py"]),
    ("SweepParams step accepts a bool", "construct.py",
     "isinstance(self.step, (float, bool))", "isinstance(self.step, float)",
     ["test_construct.py"]),
    # the CLI hands --step to SweepParams as text, so "1/0" must fail there
    ("SweepParams lets a zero denominator through", "construct.py",
     "ZeroDivisionError, ", "", ["test_cli.py"]),
    ("SweepParams lets an infinite Decimal through", "construct.py",
     ", OverflowError)", ")", ["test_construct.py"]),
    ("read_instance rejects a byte-order mark", "instances.py",
     '"utf-8-sig"', '"utf-8"', ["test_instances.py"]),
    ("read_instance reads every int() literal", "instances.py",
     'if token.isascii() and "_" not in token:', "if True:", ["test_instances.py"]),
    # an over-long integer is called too long, and a quote of the file is cut short
    ("read_instance hands an over-long integer to int()", "instances.py",
     "if len(token) <= MAX_INTEGER_CHARS:", "if True:", ["test_instances.py"]),
    ("integer length cap excludes its maximum", "instances.py",
     "if len(token) <= MAX_INTEGER_CHARS:", "if len(token) < MAX_INTEGER_CHARS:",
     ["test_instances.py"]),
    ("too-long test skips the digit check", "instances.py",
     'elif (token[1:] if token[0] in "+-" else token).isdigit():', "else:",
     ["test_instances.py"]),
    ("read_instance quotes a whole long line", "instances.py",
     "if len(text) <= EXCERPT_CHARS:", "if True:", ["test_instances.py"]),
    ("excerpt cuts a line at its limit", "instances.py",
     "if len(text) <= EXCERPT_CHARS:", "if len(text) < EXCERPT_CHARS:", ["test_instances.py"]),
    ("write_instance writes a capacity read_instance refuses", "instances.py",
     "if instance.capacity >= 10**MAX_INTEGER_CHARS:", "if False:", ["test_instances.py"]),
    # both objectives and their printed form
    ("evaluate counts one bin too many", "model.py",
     "used = len(solution.bins)", "used = len(solution.bins) + 1", ["test_model.py"]),
    ("evaluate counts items, not attributes", "model.py",
     "len({items[i].attribute for i in b.member_ids})", "len(b.member_ids)",
     ["test_model.py"]),
    ("format_z2 rounds half down", "model.py",
     "2 * remainder >= value.denominator", "2 * remainder > value.denominator", ["test_model.py"]),
    ("format_z2 rounds the signed numerator", "model.py",
     "divmod(abs(value.numerator) * 1000,", "divmod(value.numerator * 1000,", ["test_model.py"]),
    ("vector prints without its parentheses", "model.py",
     'return f"({self.z1}, {format_z2(self.z2)})"', 'return f"{self.z1}, {format_z2(self.z2)}"',
     ["test_model.py"]),
    ("attribute universe drops the first item", "model.py",
     "universe = frozenset(item.attribute for item in self.items)",
     "universe = frozenset(item.attribute for item in self.items[1:])", ["test_model.py"]),
    # dominates: only ReferenceArchive calls it, offer by offer against ParetoArchive
    ("dominates needs both objectives strictly better", "model.py",
     "(a.z1 < b.z1 or a.z2 < b.z2)", "(a.z1 < b.z1 and a.z2 < b.z2)", ["test_archive.py"]),
    # ParetoArchive.update
    ("archive rejection bisects left", "archive.py",
     "end = bisect_right(entries,", "end = bisect_left(entries,", ["test_archive.py"]),
    ("archive accepts an equal vector", "archive.py",
     "entries[end - 1][0].z2 <= z2", "entries[end - 1][0].z2 < z2", ["test_archive.py"]),
    ("archive keeps an entry of equal z2", "archive.py",
     "entries[stop][0].z2 >= z2", "entries[stop][0].z2 > z2", ["test_archive.py"]),
    ("archive evicts at most one entry", "archive.py",
     "        while stop < len(entries)", "        if stop < len(entries)", ["test_archive.py"]),
    ("archive eviction skips an equal z1", "archive.py",
     "start = stop = bisect_left(entries, z1, 0, end, key=_z1)", "start = stop = end",
     ["test_archive.py"]),
    # the oracle's bound and prune table
    ("oracle counts unseen + 1", "oracle.py",
     "        extra = unseen[j]\n", "        extra = unseen[j] + 1\n", ["test_oracle.py"]),
    ("oracle counts held attributes as unseen", "oracle.py",
     "len(set(attributes[j:]) - set(attributes[:j]))", "len(set(attributes[j:]))",
     ["test_oracle.py"]),
    # the oracle's capacity test and witness decoding
    ("oracle allows a block one over capacity", "oracle.py",
     "if load + weight <= capacity:", "if load + weight <= capacity + 1:", ["test_oracle.py"]),
    ("oracle decodes every witness into one bin", "oracle.py",
     "blocks[label].append(item_id)", "blocks[0].append(item_id)", ["test_oracle.py"]),
    # raising a table entry only weakens the prune, so the fronts stay exact
    # and only the offer count shows it
    ("oracle lowers best for every k", "oracle.py",
     "                    if mixing * denominator < numerator * used:\n",
     "                    if True:\n", ["test_oracle.py"]),
    ("oracle never lowers best", "oracle.py",
     "                        best[k] = (mixing, used)\n", "                        pass\n",
     ["test_oracle.py"]),
    # the order leaves the fronts exact and moves only the search counts
    ("oracle enumerates lightest-first", "oracle.py",
     "instance.heaviest_first", "instance.lightest_first", ["test_oracle.py"]),
    # the capacity test, one over the capacity
    ("validate_solution allows one over capacity", "model.py",
     "if load > instance.capacity:", "if load > instance.capacity + 1:", ["test_model.py"]),
    ("validate_solution accepts a bool id", "model.py",
     " or isinstance(item_id, bool)\n", "\n", ["test_model.py"]),
    # random_fit_bin's bisection only: best_fit_bin's line reads the same
    ("random fit skips an exact fit", "construct.py",
     '    bin qualifies.\n    """\n    by_residual = partial.by_residual\n'
     "    start = bisect_left(by_residual, item.weight << partial.bits)\n",
     '    bin qualifies.\n    """\n    by_residual = partial.by_residual\n'
     "    start = bisect_left(by_residual, (item.weight + 1) << partial.bits)\n",
     ["test_construct.py"]),
    # best_fit_bin's cap test only: random_fit_bin's line has no colon
    ("best fit allows one attribute over the cap", "construct.py",
     "<= max_heterogeneousness:", "<= max_heterogeneousness + 1:", ["test_construct.py"]),
    # the randomized cap: an integral level draws nothing, a fractional one may round up
    ("cap draw at an integral level consumes a draw", "construct.py",
     "if remainder else None", "if remainder else 0.0", ["test_construct.py"]),
    ("cap draw never rounds up", "construct.py",
     "return floor_level + 1", "return floor_level", ["test_construct.py"]),
    ("cap draw at an integral level rounds up", "construct.py",
     "if threshold is not None and rng.random() < threshold:",
     "if threshold is None or rng.random() < threshold:", ["test_construct.py"]),
    ("cap draw's chance divides by the numerator", "construct.py",
     "remainder / level.denominator", "remainder / level.numerator", ["test_construct.py"]),
    ("shared order recomputed on every read", "model.py",
     "    @cached_property\n    def heaviest_first(", "    @property\n    def heaviest_first(",
     ["test_model.py"]),
    ("attribute bits collide", "model.py",
     "attribute: 1 << position", "attribute: 1 << (position // 2)", ["test_construct.py"]),
    # the fixed orders: by weight, ties by ascending id in both directions
    ("decreasing order breaks ties by descending id", "model.py",
     "key=lambda i: items[i].weight,", "key=lambda i: (items[i].weight, i),",
     ["test_construct.py"]),
    ("fixed orders swapped", "construct.py",
     "if ordering is Ordering.DECREASING\n", "if ordering is Ordering.INCREASING\n",
     ["test_construct.py"]),
    # the selectors hand assign a key, the bin's only record of its residual
    ("best fit hands assign an index", "construct.py",
     "            return key\n", "            return key & index_mask\n", ["test_construct.py"]),
    ("random fit hands assign an index", "construct.py",
     "        key\n        for key in by_residual[start:]\n",
     "        key & index_mask\n        for key in by_residual[start:]\n", ["test_construct.py"]),
    # PartialSolution.assign
    ("assign always pops the old key", "construct.py",
     "            self.attribute_masks.append(0)\n",
     "            self.attribute_masks.append(0)\n"
     "            del by_residual[bisect_left(by_residual, key)]\n", ["test_construct.py"]),
    ("assign keeps the old key", "construct.py",
     "            del by_residual[bisect_left(by_residual, key)]\n", "            pass\n",
     ["test_construct.py"]),
    ("assign overwrites the attribute mask", "construct.py",
     "self.attribute_masks[index] |= ", "self.attribute_masks[index] = ", ["test_construct.py"]),
    ("assign opens a bin at load 1", "construct.py",
     "key = self.instance.capacity << bits", "key = (self.instance.capacity - 1) << bits",
     ["test_construct.py"]),
    # the bin-key width and the level grid
    ("key width one bit short", "construct.py",
     "instance.n.bit_length()", "instance.n.bit_length() - 1", ["test_construct.py"]),
    ("sweep starts one step late", "construct.py",
     "1 + level_index * params.step", "1 + (level_index + 1) * params.step",
     ["test_construct.py"]),
    ("sweep builds one repetition short", "construct.py",
     "range(params.solutions_per_level)", "range(params.solutions_per_level - 1)",
     ["test_construct.py"]),
    ("level grid drops its last level", "construct.py",
     "/ step) + 1", "/ step)", ["test_construct.py"]),
    ("level grid sweeps one level too many", "construct.py",
     "/ step) + 1", "/ step) + 2", ["test_construct.py"]),
    ("rng ignores repetition", "construct.py",
     "level_index * 0x100000001B3 + repetition", "level_index * 0x100000001B3",
     ["test_construct.py"]),
    ("rng ignores level", "construct.py",
     "level_index * 0x100000001B3 + repetition", "repetition", ["test_construct.py"]),
    ("cli allows one level over the cap", "cli.py",
     "levels > MAX_LEVELS", "levels > MAX_LEVELS + 1", ["test_cli.py"]),
]


def copy_source(destination: Path) -> Path:
    shutil.copytree(REPO / "src", destination / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return destination / "src"


def in_copy(src: Path, command: list[str], **kwargs) -> subprocess.CompletedProcess:
    """Run a Python command from the repository root, importing the package from src."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, *command], cwd=REPO, env=env, **kwargs)


def run_tests(src: Path, test_files: list[str]) -> int:
    command = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0",
               *(f"tests/{name}" for name in test_files)]
    return in_copy(src, command, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL).returncode


def check_baseline() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        src = copy_source(Path(scratch))
        imported = in_copy(src, ["-c", "import bibinpack; print(bibinpack.__file__)"],
                           capture_output=True, text=True, check=True).stdout.strip()
        if not Path(imported).resolve().is_relative_to(src.resolve()):
            sys.exit(f"tests would import {imported}, not the copy in {src}")
        files = sorted({name for *_, test_files in MUTANTS for name in test_files})
        code = run_tests(src, files)
        if code != 0:
            sys.exit(f"unmutated source fails {' '.join(files)} (pytest exit {code})")


def run_mutant(file: str, old: str, new: str, test_files: list[str]) -> str:
    with tempfile.TemporaryDirectory() as scratch:
        src = copy_source(Path(scratch))
        target = src / "bibinpack" / file
        text = target.read_text(encoding="utf-8")
        count = text.count(old)
        if count != 1:
            return f"error: old text occurs {count} times"
        target.write_text(text.replace(old, new), encoding="utf-8")
        code = run_tests(src, test_files)
    if code == 1:
        return "killed"
    if code == 0:
        return "survived"
    return f"error: pytest exit {code}"


def main() -> int:
    check_baseline()
    width = max(len(name) for name, *_ in MUTANTS)
    failures = 0
    for name, file, old, new, test_files in MUTANTS:
        started = time.perf_counter()
        outcome = run_mutant(file, old, new, test_files)
        elapsed = time.perf_counter() - started
        failures += outcome != "killed"
        print(f"{name:<{width}}  {outcome:<8}  {elapsed:5.1f}s  {' '.join(test_files)}",
              flush=True)
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
