"""Biobjective bin packing: minimize bin count and average bin heterogeneousness."""

from .archive import ParetoArchive
from .construct import (
    Heuristic,
    Ordering,
    PartialSolution,
    SweepParams,
    best_fit_bin,
    construct_solution,
    draw_max_heterogeneousness,
    heterogeneousness_levels,
    order_items,
    random_fit_bin,
    run_sweep,
)
from .instances import (
    ATTRIBUTE_LABELS,
    BENCHMARK_CAPACITY,
    InstanceFormatError,
    generate_instance,
    read_instance,
    write_instance,
)
from .model import (
    Bin,
    Instance,
    Item,
    ObjectiveVector,
    Solution,
    average_heterogeneousness,
    bin_count,
    dominates,
    evaluate,
    format_z2,
    validate_solution,
)
from .oracle import exact_pareto

__version__ = "0.1.0"

__all__ = [
    "ATTRIBUTE_LABELS",
    "BENCHMARK_CAPACITY",
    "Bin",
    "Heuristic",
    "Instance",
    "InstanceFormatError",
    "Item",
    "ObjectiveVector",
    "Ordering",
    "ParetoArchive",
    "PartialSolution",
    "Solution",
    "SweepParams",
    "average_heterogeneousness",
    "best_fit_bin",
    "bin_count",
    "construct_solution",
    "dominates",
    "draw_max_heterogeneousness",
    "evaluate",
    "exact_pareto",
    "format_z2",
    "generate_instance",
    "heterogeneousness_levels",
    "order_items",
    "random_fit_bin",
    "read_instance",
    "run_sweep",
    "validate_solution",
    "write_instance",
]
