"""Benchmark support: workloads, statistics, reporting."""

from repro.bench.reporting import banner, render_series, render_table
from repro.bench.stats import LatencyStats, summarize
from repro.bench.workload import (
    ClosedLoopWorkload,
    OpenLoopWorkload,
    WorkloadResult,
    kv_workload,
    read_only_workload,
)

__all__ = [
    "banner",
    "render_table",
    "render_series",
    "LatencyStats",
    "summarize",
    "ClosedLoopWorkload",
    "OpenLoopWorkload",
    "WorkloadResult",
    "kv_workload",
    "read_only_workload",
]
