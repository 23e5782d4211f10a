"""Static lints over the observability layer's metric names.

The module carries the **metric-name catalog**: the closed set of
namespaces components may land instruments under
(:data:`METRIC_NAMESPACES`), with :func:`check_metric_names` validating a
registry snapshot against it.  Dashboards and exporters key off these
prefixes, so an instrument outside the catalog is almost always a typo
or an undocumented namespace that belongs in ``docs/observability.md``.
The converse drift — a namespace nothing emits any more — is caught by
:func:`check_metric_emitters`, which scans the package source.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Set

from repro.analysis.checkers import CheckResult

__all__ = [
    "METRIC_NAMESPACES",
    "check_metric_emitters",
    "check_metric_names",
    "known_metric_prefixes",
]

#: The documented instrument namespaces (prefix -> owner/meaning).  Keep
#: in sync with ``docs/observability.md``; ``tests/test_obs_lint.py``
#: holds deployments to this catalog.
METRIC_NAMESPACES: Dict[str, str] = {
    "net.batch.": "wire pipeline: coalescing (envelopes, messages, "
                  "flush reasons, per-link flush-size histograms)",
    "net.queue.": "wire pipeline: per-link backpressure (depth gauges, "
                  "blocked-sender waits)",
    "net.fastlane.": "wire pipeline: control messages bypassing "
                     "batching and budgets",
    "net.": "fabric trace kinds (send, deliver, drop-*, duplicate, "
            "crash, recover) and envelope counts",
    "handler.": "event-bus handler executions per micro-protocol",
    "kernel.": "scheduler statistics snapshots",
    "service.": "per-service call path (calls, status, latency, "
                "executions, reply cache)",
    "placement.load.": "observatory: per-key load accounting (lookup "
                       "volume and top-K hot keys per shard)",
    "placement.view.": "replicated placement metadata plane (epoch "
                       "gauge, commits, rollbacks, proposals, recovery "
                       "joins, stale-epoch bounces, coordinator "
                       "takeovers)",
    "placement.": "elastic placement plane (ring, migrations, rebinds, "
                  "drain-averting revives)",
    "repl.": "replication plane: replica groups (promotions, demotions, "
             "shrink/regrow, resyncs, backup sync traffic, failover "
             "retries, parked writes, per-group sync gauges)",
    "adapt.": "live adaptation plane: switches, parked calls, drain/"
              "switch durations, plan validation verdicts, aborts, "
              "fence drops, policy decisions (degrade/restore/"
              "cancelled)",
    "obs.profile.": "observatory: kernel/handler/marshal profiler",
    "obs.slo.": "observatory: windowed latency watermarks and breaches",
    "obs.recorder.": "observatory: flight-recorder ring accounting",
    "obs.": "obs layer self-accounting (handler recordings)",
}


def known_metric_prefixes() -> List[str]:
    """The catalog's prefixes, longest first (most specific wins)."""
    return sorted(METRIC_NAMESPACES, key=len, reverse=True)


def check_metric_names(names: Iterable[str]) -> CheckResult:
    """Validate instrument names against the namespace catalog.

    ``names`` is typically ``registry.snapshot()`` keys or
    ``registry.counter_names()``.  A name passes if it extends one of
    the :data:`METRIC_NAMESPACES` prefixes with a non-empty suffix.
    """
    prefixes = known_metric_prefixes()
    violations = [
        f"instrument {name!r} is outside the documented namespaces "
        f"({', '.join(sorted(METRIC_NAMESPACES))})"
        for name in names
        if not any(name.startswith(p) and len(name) > len(p)
                   for p in prefixes)
    ]
    return CheckResult("metric-names", not violations, violations)


def _string_heads(tree: ast.AST) -> Iterator[str]:
    """Every string literal in ``tree``, f-string heads included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def check_metric_emitters() -> CheckResult:
    """Every catalog namespace has an emitter in the package source.

    An emitter is a string literal or f-string head (AST, no imports
    executed) whose longest matching catalog prefix is that namespace:
    ``"net.batch.messages"`` emits ``net.batch.``, not ``net.``.  The
    catalog's own module does not count.
    """
    this = Path(__file__).resolve()
    root = this.parents[1]
    prefixes = known_metric_prefixes()
    emitted: Set[str] = set()
    for path in sorted(root.rglob("*.py")):
        if path.resolve() == this:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for text in _string_heads(tree):
            prefix = next((p for p in prefixes if text.startswith(p)), None)
            if prefix is not None:
                emitted.add(prefix)
    violations = [f"namespace {prefix!r} is catalogued but nothing under "
                  f"{root} emits it"
                  for prefix in sorted(METRIC_NAMESPACES)
                  if prefix not in emitted]
    return CheckResult("metric-emitters", not violations, violations)
