from __future__ import annotations

import bibinpack

# the documented pipeline; kernel helpers stay internals of bibinpack.construct
PUBLIC = {
    "ATTRIBUTE_LABELS", "BENCHMARK_CAPACITY", "Bin", "Heuristic", "Instance",
    "InstanceFormatError", "Item", "ObjectiveVector", "Ordering", "ParetoArchive",
    "Solution", "SweepParams", "dominates", "evaluate", "exact_pareto", "format_z2",
    "generate_instance", "read_instance", "run_sweep", "validate_solution", "write_instance",
}


def test_top_level_exports_only_the_documented_pipeline():
    assert set(bibinpack.__all__) == PUBLIC
    assert len(bibinpack.__all__) == len(PUBLIC)
    for name in bibinpack.__all__:
        assert getattr(bibinpack, name) is not None
