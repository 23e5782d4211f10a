"""Invariant checkers over executed workloads.

The test suite asserts the paper's guarantees ad hoc; this module
packages those assertions as reusable checkers a downstream user can run
against their own deployments.  Each checker takes plain data (apply
logs, execution counts) or a :class:`~repro.core.deployment.Service`
and returns a :class:`CheckResult` with machine-readable violations
rather than raising, so callers can aggregate across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "CheckResult",
    "check_identical_sequences",
    "check_prefix_consistency",
    "check_subsequence",
    "check_fifo_per_client",
    "check_execution_counts",
    "check_total_order_cluster",
    "check_exactly_once_cluster",
]


@dataclass
class CheckResult:
    """Outcome of one invariant check."""

    name: str
    ok: bool
    violations: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok

    def raise_if_failed(self) -> None:
        """Convenience for tests: turn violations into an AssertionError."""
        if not self.ok:
            details = "\n  ".join(self.violations)
            raise AssertionError(f"{self.name} violated:\n  {details}")


def _result(name: str, violations: List[str]) -> CheckResult:
    return CheckResult(name, not violations, violations)


# ----------------------------------------------------------------------
# Sequence invariants
# ----------------------------------------------------------------------

def check_identical_sequences(sequences: Dict[Any, Sequence[Any]]
                              ) -> CheckResult:
    """Total order: every replica applied exactly the same sequence."""
    violations = []
    items = list(sequences.items())
    if items:
        ref_id, ref = items[0]
        for other_id, other in items[1:]:
            if list(other) != list(ref):
                violations.append(
                    f"replica {other_id} diverged from {ref_id}: "
                    f"{list(other)[:6]}... vs {list(ref)[:6]}...")
    return _result("identical application sequences", violations)


def check_prefix_consistency(sequences: Dict[Any, Sequence[Any]]
                             ) -> CheckResult:
    """Weaker total order for mid-run snapshots: any two replicas'
    sequences must be prefix-related (one is a prefix of the other)."""
    violations = []
    items = [(rid, list(seq)) for rid, seq in sequences.items()]
    for i, (id_a, a) in enumerate(items):
        for id_b, b in items[i + 1:]:
            shorter, longer = (a, b) if len(a) <= len(b) else (b, a)
            if longer[:len(shorter)] != shorter:
                violations.append(
                    f"replicas {id_a} and {id_b} are not prefix-related")
    return _result("prefix consistency", violations)


def check_subsequence(expected_order: Sequence[Any],
                      observed: Sequence[Any], *,
                      label: str = "") -> CheckResult:
    """The items of ``expected_order`` appear in ``observed`` in order
    (other items may interleave) — the per-client FIFO condition."""
    violations = []
    position = 0
    expected = [item for item in expected_order if item in set(observed)]
    for item in expected:
        try:
            position = list(observed).index(item, position) + 1
        except ValueError:
            violations.append(
                f"{label}: {item!r} out of order in {list(observed)}")
            break
    return _result(f"subsequence order {label}".strip(), violations)


def check_fifo_per_client(client_sequences: Dict[Any, Sequence[Any]],
                          replica_logs: Dict[Any, Sequence[Any]]
                          ) -> CheckResult:
    """FIFO ordering: each client's issue order is a subsequence of
    every replica's application order."""
    violations = []
    for replica_id, log in replica_logs.items():
        for client_id, issued in client_sequences.items():
            sub = check_subsequence(
                issued, log, label=f"client {client_id} at replica "
                                   f"{replica_id}")
            violations.extend(sub.violations)
    return _result("FIFO per client", violations)


# ----------------------------------------------------------------------
# Execution-count invariants (Figure 1)
# ----------------------------------------------------------------------

def check_execution_counts(counts: Dict[Any, int], *,
                           at_least: int = 0,
                           at_most: Optional[int] = None) -> CheckResult:
    """Per-call execution counts within [at_least, at_most]."""
    violations = []
    for tag, count in counts.items():
        if count < at_least:
            violations.append(f"call {tag!r} executed {count} < "
                              f"{at_least} times")
        if at_most is not None and count > at_most:
            violations.append(f"call {tag!r} executed {count} > "
                              f"{at_most} times")
    return _result("execution counts", violations)


# ----------------------------------------------------------------------
# Cluster-level conveniences
# ----------------------------------------------------------------------

def check_total_order_cluster(cluster, *,
                              mutation_kinds: Tuple[str, ...] =
                              ("put", "delete")) -> CheckResult:
    """Identical KV apply logs across every server of a cluster."""
    sequences = {}
    for pid in cluster.server_pids:
        log = getattr(cluster.app(pid), "apply_log", None)
        if log is None:
            return _result("total order",
                           [f"app on server {pid} has no apply_log"])
        sequences[pid] = [(kind, key) for kind, key, _ in log
                          if kind in mutation_kinds]
    return check_identical_sequences(sequences)


def check_exactly_once_cluster(cluster, tags: Sequence[Any]
                               ) -> CheckResult:
    """Every tagged call executed exactly once on every server."""
    violations = []
    for pid in cluster.server_pids:
        dispatcher = cluster.dispatchers[pid]
        counts = {tag: dispatcher.executions(tag) for tag in tags}
        sub = check_execution_counts(counts, at_least=1, at_most=1)
        violations.extend(f"server {pid}: {v}" for v in sub.violations)
    return _result("exactly-once execution", violations)
