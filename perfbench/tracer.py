"""Outside-in layer trace: perf_counter wrappers installed over bibinpack's
public functions, from the benchmark's side only.

Calls at the packing level and above are kept as spans (name, start, end,
parent, self time). Per-item calls (the cap draw, the two bin choices and
`PartialSolution.assign`) only feed count and busy-time counters: a full
n = 1000 sweep makes about 12 million of them, too many to keep as spans.
Their busy time is also charged to the enclosing span as child time, so a
span's self time is its duration minus everything its children covered.

Wrapping per-item calls roughly doubles a sweep, which is why the traced pass
is separate from the timed one and reports its own overhead.
"""

from __future__ import annotations

import csv
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import bibinpack
from bibinpack import archive, cli, construct, instances, model, oracle

# Every namespace that binds a traced function: a wrapper replaces the
# function wherever the library or its users look it up.
MODULES = (bibinpack, archive, cli, construct, instances, model, oracle)

# Module-level functions traced as spans, by their defining module.
SPAN_FUNCTIONS = {
    "cli.main": (cli, "main"),
    "cli.run_experiment": (cli, "run_experiment"),
    "construct.run_sweep": (construct, "run_sweep"),
    "construct.construct_solution": (construct, "construct_solution"),
    "construct.order_items": (construct, "order_items"),
    "model.evaluate": (model, "evaluate"),
    "oracle.exact_pareto": (oracle, "exact_pareto"),
    "instances.generate": (instances, "generate_instance"),
    "instances.write": (instances, "write_instance"),
    "instances.read": (instances, "read_instance"),
}
SPAN_METHODS = {
    "construct.materialise": (construct.PartialSolution, "to_solution"),
    "archive.update": (archive.ParetoArchive, "update"),
}
# Per-item calls: counters only.
COUNTER_FUNCTIONS = {
    "construct.draw_cap": (construct, "draw_max_heterogeneousness"),
    "construct.best_fit_bin": (construct, "best_fit_bin"),
    "construct.random_fit_bin": (construct, "random_fit_bin"),
}
COUNTER_METHODS = {
    "construct.assign": (construct.PartialSolution, "assign"),
}


class Tracer:
    """Context manager that patches the targets on entry and restores them on exit."""

    def __init__(self) -> None:
        # finished spans: (id, name, start, end, parent id, self seconds)
        self.spans: list[tuple[int, str, float, float, int, float]] = []
        # open spans: [id, child seconds]
        self._stack: list[list] = []
        self._next_id = 1
        self.calls: Counter[str] = Counter()
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.bins_opened = 0
        self.accepted = 0
        self.front_vectors = 0
        # canonical partitions per enclosing sweep, for the distinct-packing share
        self._packings: set[tuple[int, int]] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for name, (module, attr) in SPAN_FUNCTIONS.items():
                self._patch_function(getattr(module, attr), attr, self._span(name, getattr(module, attr)))
            for name, (owner, attr) in SPAN_METHODS.items():
                self._patch(owner, attr, self._span(name, owner.__dict__[attr]))
            for name, (module, attr) in COUNTER_FUNCTIONS.items():
                self._patch_function(getattr(module, attr), attr, self._counter(name, getattr(module, attr)))
            for name, (owner, attr) in COUNTER_METHODS.items():
                self._patch(owner, attr, self._counter(name, owner.__dict__[attr]))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, original) for every attribute currently replaced."""
        return list(self._patches)

    def _patch_function(self, original, attr: str, wrapper) -> None:
        for module in MODULES:
            if getattr(module, attr, None) is original:
                self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, function):
        stack = self._stack
        spans = self.spans
        distinct = name == "construct.construct_solution"
        accepted = name == "archive.update"
        front = name == "oracle.exact_pareto"

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans.append((span_id, name, start, end, parent, duration - frame[1]))
            if accepted and result:
                self.accepted += 1
            if front:
                self.front_vectors += len(result)
            if distinct:
                self._note_packing(parent, result)
            return result

        traced.__wrapped__ = function
        return traced

    def _counter(self, name: str, function):
        stack = self._stack
        calls = self.calls
        busy = self.busy
        opens_bin = name == "construct.assign"

        def counted(*args, **kwargs):
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                calls[name] += 1
                busy[name] += elapsed
                if stack:
                    stack[-1][1] += elapsed
                if opens_bin and (args[2] if len(args) > 2 else kwargs["index"]) is None:
                    self.bins_opened += 1

        counted.__wrapped__ = function
        return counted

    def _note_packing(self, sweep_id: int, solution) -> None:
        # bookkeeping, not library work: keep it out of the enclosing span's self time
        start = perf_counter()
        partition = frozenset(used_bin.member_ids for used_bin in solution.bins)
        self._packings.add((sweep_id, hash(partition)))
        if self._stack:
            self._stack[-1][1] += perf_counter() - start

    # -- results --------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over everything traced while installed."""
        total: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        count: Counter[str] = Counter()
        longest: defaultdict[str, float] = defaultdict(float)
        names = {span_id: name for span_id, name, *_ in self.spans}
        cells = 0
        for _, name, start, end, parent, self_s in self.spans:
            total[name] += end - start
            own[name] += self_s
            count[name] += 1
            longest[name] = max(longest[name], end - start)
            if name == "construct.run_sweep" and names.get(parent) == "cli.run_experiment":
                cells += 1
        offered = count["archive.update"]
        packings = count["construct.construct_solution"]
        return {
            "instances.generate_s": total["instances.generate"],
            "instances.write_s": total["instances.write"],
            "instances.read_s": total["instances.read"],
            "construct.order_items_s": total["construct.order_items"],
            "construct.order_items_calls": count["construct.order_items"],
            "construct.draw_cap_s": self.busy["construct.draw_cap"],
            "construct.draw_cap_calls": self.calls["construct.draw_cap"],
            "construct.best_fit_bin_s": self.busy["construct.best_fit_bin"],
            "construct.best_fit_bin_calls": self.calls["construct.best_fit_bin"],
            "construct.random_fit_bin_s": self.busy["construct.random_fit_bin"],
            "construct.random_fit_bin_calls": self.calls["construct.random_fit_bin"],
            "construct.assign_s": self.busy["construct.assign"],
            "construct.bins_opened": self.bins_opened,
            "construct.materialise_s": total["construct.materialise"],
            "construct.materialised": count["construct.materialise"],
            "construct.packings": packings,
            "construct.distinct_share": len(self._packings) / packings if packings else 0.0,
            "construct.loop_self_s": own["construct.construct_solution"],
            "construct.sweep_self_s": own["construct.run_sweep"],
            "construct.run_sweep_s": total["construct.run_sweep"],
            "construct.run_sweep_max_s": longest["construct.run_sweep"],
            "model.evaluate_s": total["model.evaluate"],
            "archive.update_s": total["archive.update"],
            "archive.offered": offered,
            "archive.accepted": self.accepted,
            "archive.accept_share": self.accepted / offered if offered else 0.0,
            "oracle.exact_pareto_s": total["oracle.exact_pareto"],
            "oracle.calls": count["oracle.exact_pareto"],
            "oracle.front_vectors": self.front_vectors,
            "cli.main_s": total["cli.main"],
            "cli.run_experiment_s": total["cli.run_experiment"],
            "cli.report_s": own["cli.run_experiment"],
            "cli.cells": cells,
        }

    def write_spans(self, path: Path) -> None:
        """Write the kept spans as CSV, times relative to the first span start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((span[2] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["id", "name", "start_s", "end_s", "parent", "self_s"])
            for span_id, name, start, end, parent, self_s in self.spans:
                writer.writerow([span_id, name, f"{start - origin:.6f}",
                                 f"{end - origin:.6f}", parent, f"{self_s:.6f}"])
