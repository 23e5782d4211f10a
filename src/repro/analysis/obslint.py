"""Static lint: every micro-protocol registers with the obs layer.

The observability layer keeps a catalog
(:func:`repro.obs.registered_protocols`) of every micro-protocol name, so
trace consumers can resolve ``handler.<owner>`` metrics and span
attributions without importing the protocol modules themselves.  The
catalog only works if each module that defines a micro-protocol also
calls :func:`repro.obs.register_protocol` at module level — an invariant
a refactor can silently break.

:func:`check_obs_registration` enforces it by inspecting the *source*
(AST, no imports executed): a module under ``repro/core/microprotocols/``
that defines a class with a non-empty ``protocol_name`` attribute must
contain a module-level ``register_protocol(...)`` call.  Run as part of
the test suite (``tests/test_obs_lint.py``).

The module also carries the **metric-name catalog**: the closed set of
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
from typing import Dict, Iterable, Iterator, List, Optional, Set

from repro.analysis.checkers import CheckResult

__all__ = [
    "METRIC_NAMESPACES",
    "check_metric_emitters",
    "check_metric_names",
    "check_obs_registration",
    "known_metric_prefixes",
    "microprotocols_dir",
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

#: Modules that legitimately define no micro-protocol class of their own.
_EXEMPT = {"__init__.py", "base.py"}


def microprotocols_dir() -> Path:
    """The installed location of the micro-protocol package."""
    import repro.core.microprotocols as pkg
    return Path(pkg.__file__).parent


def _defines_protocol(tree: ast.Module) -> bool:
    """Does this module define a class with a non-empty protocol_name?"""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if (isinstance(stmt, ast.Assign)
                    and any(isinstance(t, ast.Name)
                            and t.id == "protocol_name"
                            for t in stmt.targets)
                    and isinstance(stmt.value, ast.Constant)
                    and stmt.value.value):
                return True
    return False


def _registers_at_module_level(tree: ast.Module) -> bool:
    """Is there a top-level ``register_protocol(...)`` call?"""
    for stmt in tree.body:
        if not (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)):
            continue
        func = stmt.value.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute)
                else None)
        if name == "register_protocol":
            return True
    return False


def check_obs_registration(directory: Optional[Path] = None) -> CheckResult:
    """Lint every micro-protocol module for an obs-catalog registration."""
    directory = directory or microprotocols_dir()
    violations: List[str] = []
    checked = 0
    for path in sorted(directory.glob("*.py")):
        if path.name in _EXEMPT:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        if not _defines_protocol(tree):
            continue
        checked += 1
        if not _registers_at_module_level(tree):
            violations.append(
                f"{path.name} defines a micro-protocol but never calls "
                f"register_protocol(...) at module level")
    if checked == 0:
        violations.append(f"no micro-protocol modules found under "
                          f"{directory}")
    return CheckResult("obs-registration", not violations, violations)
