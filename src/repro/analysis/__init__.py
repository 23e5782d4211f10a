"""Reusable invariant checkers over executed workloads."""

from repro.analysis.checkers import (
    CheckResult,
    check_exactly_once_cluster,
    check_execution_counts,
    check_fifo_per_client,
    check_identical_sequences,
    check_prefix_consistency,
    check_subsequence,
    check_total_order_cluster,
)
from repro.analysis.obslint import (
    METRIC_NAMESPACES,
    check_metric_emitters,
    check_metric_names,
    check_obs_registration,
    known_metric_prefixes,
)

__all__ = [
    "CheckResult",
    "check_identical_sequences",
    "check_prefix_consistency",
    "check_subsequence",
    "check_fifo_per_client",
    "check_execution_counts",
    "check_total_order_cluster",
    "check_exactly_once_cluster",
    "check_obs_registration",
    "check_metric_emitters",
    "check_metric_names",
    "known_metric_prefixes",
    "METRIC_NAMESPACES",
]
