"""Run histories checked against the promises of their composition, and
the observability lints."""

from repro.analysis.checkers import (
    CheckResult,
    History,
    Promise,
    check,
    promises,
)
from repro.analysis.obslint import (
    METRIC_NAMESPACES,
    check_metric_emitters,
    check_metric_names,
    known_metric_prefixes,
)

__all__ = [
    "CheckResult",
    "History",
    "Promise",
    "check",
    "promises",
    "check_metric_emitters",
    "check_metric_names",
    "known_metric_prefixes",
    "METRIC_NAMESPACES",
]
