"""Biobjective bin packing: minimize bin count and average bin heterogeneousness."""

from .archive import ParetoArchive
from .construct import Heuristic, Ordering, SweepParams, run_sweep
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
    "Solution",
    "SweepParams",
    "dominates",
    "evaluate",
    "exact_pareto",
    "format_z2",
    "generate_instance",
    "read_instance",
    "run_sweep",
    "validate_solution",
    "write_instance",
]
