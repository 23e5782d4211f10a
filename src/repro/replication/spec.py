"""Per-shard replication contracts: the :class:`ReplicaSpec`.

The paper's configurability story — pick acceptance, ordering and
execution discipline per service — stops at the edge of a single server
group.  A :class:`ReplicaSpec` carries that story into the deployment
plane: it bundles a replica count, a replication *mode*, and the
:class:`~repro.core.config.ServiceSpec` whose micro-protocols govern the
group's write path, so every shard of a deployment can choose its own
consistency/latency trade-off.

Two modes:

* **active** — every write fans out through the whole replica group via
  the ordinary group-RPC machinery; how many replicas must answer
  (acceptance) and in what order writes apply (ordering) come straight
  from the composed ``spec``.  Reads are served by any single replica.
* **passive** (primary-backup) — writes execute on one deterministic
  primary only; the resulting *state change* is transferred to the
  backups before the write is acknowledged, so a primary crash loses no
  acknowledged write.  The primary is elected from the membership
  stream (the paper's leader rule: largest live pid) and a backup is
  promoted on suspicion.

Validation composes the replication-mode rules with the Figure-4
dependency graph: :func:`validate_replica_spec` first runs the embedded
``ServiceSpec`` through :func:`repro.core.config.validate` (the same
strict checker :func:`repro.core.enumerate.enumerate_services` counts
with), then applies the mode edges listed by :func:`replication_edges`.
Illegal compositions fail at deployment *build* time with an error
naming the violated edge — never at the first write.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.core.config import ServiceSpec, validate
from repro.errors import ConfigurationError, DependencyError

__all__ = [
    "ReplicaSpec",
    "validate_replica_spec",
    "replication_edges",
    "active_replicas",
    "primary_backup",
    "KV_STATE_FORWARD",
]

MODES = ("active", "passive")
READ_FROM = ("any", "primary")

#: Operations routed to a single replica instead of the write path;
#: anything else is a write.
READ_OPS: FrozenSet[str] = frozenset({"get", "keys", "snapshot"})

#: How a passive primary's successful write is turned into the state
#: update shipped to the backups: write op -> sync op.  The argument
#: translation lives in :func:`forward_state`; the default table covers
#: the KV migration surface every shard application already implements
#: (the backups *ingest the resulting state*, they never re-execute the
#: application procedure — that is what makes the mode passive).
KV_STATE_FORWARD: Dict[str, str] = {
    "put": "ingest",
    "delete": "drop_keys",
    "ingest": "ingest",
    "drop_keys": "drop_keys",
}


@dataclass(frozen=True)
class ReplicaSpec:
    """The replication contract of one shard service.

    ``spec`` is the micro-protocol composition of every replica's
    composite — the knob that makes a replica group's write semantics
    configurable per shard.  :data:`READ_OPS` classifies operations for
    the read/write routing split.  A passive group always re-issues a
    write whose primary died mid-call, and every group resyncs a
    recovered replica before it serves reads or stands for election.
    """

    replicas: int = 3
    mode: str = "active"
    spec: ServiceSpec = field(default_factory=lambda: ServiceSpec(
        reliable=True, unique=True, execution="serial",
        ordering="none", acceptance=1))
    #: Where reads land: ``"any"`` round-robins over in-sync replicas
    #: (read scaling); ``"primary"`` pins reads to the passive primary.
    read_from: str = "any"

    def with_(self, **changes: Any) -> "ReplicaSpec":
        return replace(self, **changes)

    @property
    def passive(self) -> bool:
        return self.mode == "passive"

    def is_read(self, op: str) -> bool:
        return op in READ_OPS

    @property
    def reads_narrow(self) -> bool:
        """Whether reads may be narrowed to a single replica.

        Ordered delivery (FIFO or total) sequences the *whole* per-client
        call stream: every replica gates on seeing call *n* before it
        will deliver call *n+1*.  A read served by one replica alone
        would consume a sequence number the other replicas never see, so
        their gates would park every later fan-out write forever.  Read
        narrowing — and with it read scaling — is therefore only sound
        when the composition imposes no inter-replica ordering.
        """
        return self.spec.ordering == "none"

    def service_spec(self) -> ServiceSpec:
        """The validated per-replica composition (build-time check)."""
        validate_replica_spec(self)
        return self.spec


def replication_edges() -> List[Tuple[str, str]]:
    """The mode dependency edges layered on Figure 4, in the same
    ``(dependent, prerequisite)`` shape as
    :func:`repro.core.enumerate.figure4_edges`."""
    return [
        ("Passive_Replication", "Acceptance(1)"),
        ("Passive_Replication", "Reliable_Communication"),
        ("Passive_Replication", "NOT Ordered_Delivery"),
        ("Active_Replication(n>1)", "Unique_Execution"),
    ]


def validate_replica_spec(rspec: ReplicaSpec) -> None:
    """Reject illegal replica-group compositions; no-op when legal.

    The embedded :class:`~repro.core.config.ServiceSpec` is checked
    against the full Figure-4 dependency graph first, then the
    replication-mode edges (:func:`replication_edges`) on top.
    """
    if rspec.replicas < 1:
        raise ConfigurationError(
            f"a replica group needs at least one replica, "
            f"got {rspec.replicas}")
    if rspec.mode not in MODES:
        raise ConfigurationError(
            f"unknown replication mode {rspec.mode!r}; "
            f"choose from {MODES}")
    if rspec.read_from not in READ_FROM:
        raise ConfigurationError(
            f"unknown read_from {rspec.read_from!r}; "
            f"choose from {READ_FROM}")
    validate(rspec.spec)        # the Figure-4 graph itself
    if rspec.mode == "passive":
        if rspec.spec.acceptance != 1:
            raise DependencyError(
                "Passive_Replication requires an acceptance limit of 1: "
                "a write executes on the primary alone, so there is only "
                "one server that can ever respond (Figure-4 extension "
                "edge Passive_Replication -> Acceptance(1))")
        if rspec.spec.ordering == "total":
            raise DependencyError(
                "Passive_Replication conflicts with Total_Order: the "
                "ordering leader rule and the primary election would "
                "name two different masters for the same group "
                "(Figure-4 extension edge Passive_Replication -> "
                "NOT Ordered_Delivery)")
        if rspec.spec.ordering == "fifo":
            raise DependencyError(
                "Passive_Replication conflicts with FIFO_Order: writes "
                "execute on the primary alone, so the backups would "
                "observe sequence gaps in the client's call stream and "
                "park forever waiting for calls they will never see; "
                "the primary's serial execution already orders writes "
                "(Figure-4 extension edge Passive_Replication -> "
                "NOT Ordered_Delivery)")
        if not rspec.spec.reliable:
            raise DependencyError(
                "Passive_Replication requires Reliable_Communication: "
                "a write racing a promotion is recovered by "
                "retransmission against the new primary")
    else:
        if rspec.replicas > 1 and not rspec.spec.unique:
            raise DependencyError(
                "Active_Replication with more than one replica requires "
                "Unique_Execution: retransmitted writes would otherwise "
                "apply a different number of times on different "
                "replicas, diverging the group")


def forward_state(op: str, args: Any,
                  table: Optional[Dict[str, str]] = None
                  ) -> Optional[Tuple[str, Any]]:
    """The backup state update for a primary's successful write.

    Returns ``(sync_op, sync_args)`` or ``None`` when the operation has
    no state to forward (unknown write ops fall back to ``None``; the
    group then relies on the next resync, and counts the gap).
    """
    table = table if table is not None else KV_STATE_FORWARD
    sync_op = table.get(op)
    if sync_op is None:
        return None
    if op == "put":
        return sync_op, {"entries": {args["key"]: args["value"]}}
    if op == "delete":
        return sync_op, {"keys": [args["key"]]}
    # ingest / drop_keys travel verbatim: they already *are* state form.
    return sync_op, dict(args)


def active_replicas(replicas: int = 3, *,
                    acceptance: int = 1, ordering: str = "none",
                    **overrides: Any) -> ReplicaSpec:
    """An active replica group with the classic knobs exposed.

    ``acceptance`` and ``ordering`` are the two axes the read-scaling
    benchmark sweeps: acceptance 1 acknowledges at the first replica,
    :data:`~repro.core.microprotocols.ALL` waits for the whole group;
    ordering ``"fifo"`` keeps per-client order, ``"total"`` makes the
    replicas a replicated state machine.  Ordered compositions sequence
    the whole call stream, so they serve reads through the full group
    (no read narrowing — see :attr:`ReplicaSpec.reads_narrow`); the
    ``"none"`` default is what read scaling is built on.
    """
    spec = ServiceSpec(reliable=True, unique=True, execution="serial",
                      ordering=ordering, acceptance=acceptance)
    rspec = ReplicaSpec(replicas=replicas, mode="active",
                        spec=spec).with_(**overrides)
    validate_replica_spec(rspec)
    return rspec


def primary_backup(replicas: int = 3, *, bounded: float = 2.0,
                   **overrides: Any) -> ReplicaSpec:
    """A passive (primary-backup) replica group.

    Bounded termination is on by default so a write against a crashed
    primary surfaces as a TIMEOUT the failover machinery can observe
    and retry, instead of hanging until suspicion.
    """
    spec = ServiceSpec(reliable=True, unique=True, execution="serial",
                      ordering="none", acceptance=1, bounded=bounded)
    rspec = ReplicaSpec(replicas=replicas, mode="passive",
                        spec=spec).with_(**overrides)
    validate_replica_spec(rspec)
    return rspec
