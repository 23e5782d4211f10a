"""Configuring a group RPC service (Section 5).

A :class:`ServiceSpec` names one variant per property; :func:`validate`
checks it against the Figure-4 dependency graph; :meth:`ServiceSpec.build`
instantiates the corresponding micro-protocols in composition order.  The
presets at the bottom give the classic semantics by name, including the
paper's Section-5 example (:func:`read_optimized`).

The encoded Figure-4 graph:

* choice groups (exactly one each): call semantics {synchronous,
  asynchronous}; orphan handling {none, avoid, terminate}; execution
  discipline {none, serial, atomic (which includes serial)};
  ordering {none, fifo, total};
* dependencies: Unique Execution -> Reliable Communication; FIFO Order ->
  Reliable Communication; Total Order -> Unique Execution, Reliable
  Communication, and *not* Bounded Termination; Atomic Execution ->
  Serial Execution; Interference Avoidance -> Reliable Communication;
* the minimal functional set {RPC Main, a call micro-protocol,
  Acceptance, Collation} is always configured.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, List, Tuple

from repro.core.framework import MicroProtocol
from repro.core.microprotocols import (
    ALL,
    Acceptance,
    AsynchronousCall,
    AtomicExecution,
    BoundedTermination,
    CausalOrder,
    Collation,
    FIFOOrder,
    InterferenceAvoidance,
    ProbeOrphanTermination,
    ReliableCommunication,
    RPCMain,
    SerialExecution,
    SynchronousCall,
    TerminateOrphan,
    TotalOrder,
    UniqueExecution,
    last_reply,
)
from repro.errors import ConfigurationError, DependencyError

__all__ = [
    "ServiceSpec",
    "validate",
    "at_least_once",
    "exactly_once",
    "at_most_once",
    "read_optimized",
    "replicated_state_machine",
    "CALL_CHOICES",
    "ORPHAN_CHOICES",
    "EXECUTION_CHOICES",
    "ORDERING_CHOICES",
]

CALL_CHOICES = ("synchronous", "asynchronous")
#: "probe" is an extension beyond the paper (probing-based orphan
#: detection, which Section 4.4.7 names but does not implement); the
#: Figure-4 enumeration counts only the paper's three policies.
ORPHAN_CHOICES = ("none", "avoid", "terminate", "probe")
PAPER_ORPHAN_CHOICES = ("none", "avoid", "terminate")
EXECUTION_CHOICES = ("none", "serial", "atomic")
#: "causal" is an extension beyond the paper (Section 2.2 mentions causal
#: order as a defined variant but implements only FIFO and Total); the
#: Figure-4 enumeration deliberately counts only the paper's three.
ORDERING_CHOICES = ("none", "fifo", "total", "causal")
PAPER_ORDERING_CHOICES = ("none", "fifo", "total")


@dataclass(frozen=True)
class ServiceSpec:
    """One point in the configuration space of Figure 4.

    ``acceptance`` counts required responses (:data:`~repro.core.
    microprotocols.ALL` for every live member).  ``collation`` is the
    ``(cum_func, init)`` pair handed to the Collation micro-protocol.
    """

    call: str = "synchronous"
    reliable: bool = True
    retrans_timeout: float = 0.05
    bounded: float = 0.0            # 0 disables Bounded Termination
    unique: bool = False
    execution: str = "none"
    ordering: str = "none"
    orphans: str = "none"
    acceptance: int = 1
    collation: Tuple[Callable[[Any, Any], Any], Any] = (last_reply, None)
    #: Parameters for the probe-based orphan detection extension.
    probe_interval: float = 0.1
    probe_missed_limit: int = 3
    #: Total Order's agreement-phase extension (the leader-change resync
    #: the paper omits "for brevity").  Needs a membership service.
    total_resync: bool = False
    total_resync_grace: float = 0.5
    #: Atomic Execution's delta-checkpoint extension (the optimization
    #: the paper proposes for large server states).
    atomic_delta: bool = False
    atomic_compact_every: int = 16

    # -- derived views ---------------------------------------------------

    @property
    def atomic(self) -> bool:
        return self.execution == "atomic"

    @property
    def failure_semantics(self) -> str:
        """The Figure-1 name of this spec's failure semantics."""
        from repro.core.properties import failure_semantics_name
        return failure_semantics_name(self.unique, self.atomic)

    def micro_protocol_names(self) -> List[str]:
        """The micro-protocols this spec selects, in composition order."""
        return [m.name for m in self.build()]

    def with_(self, **changes: Any) -> "ServiceSpec":
        """A modified copy (sweeps in the benchmarks use this)."""
        return replace(self, **changes)

    # -- building --------------------------------------------------------

    def build(self) -> List[MicroProtocol]:
        """Fresh micro-protocol instances for one composite (validated
        first).  Handler order does not depend on this list's order: it
        is the one table in :mod:`repro.core.microprotocols.base`."""
        validate(self)
        micros: List[MicroProtocol] = [RPCMain()]
        if self.call == "synchronous":
            micros.append(SynchronousCall())
        else:
            micros.append(AsynchronousCall())
        if self.reliable:
            micros.append(ReliableCommunication(self.retrans_timeout))
        if self.bounded:
            micros.append(BoundedTermination(self.bounded))
        if self.unique:
            micros.append(UniqueExecution())
        if self.execution in ("serial", "atomic"):
            micros.append(SerialExecution())
        if self.execution == "atomic":
            micros.append(AtomicExecution(
                delta=self.atomic_delta,
                compact_every=self.atomic_compact_every))
        if self.ordering == "fifo":
            micros.append(FIFOOrder())
        elif self.ordering == "total":
            micros.append(TotalOrder(resync=self.total_resync,
                                     resync_grace=self.total_resync_grace))
        elif self.ordering == "causal":
            micros.append(CausalOrder())
        if self.orphans == "avoid":
            micros.append(InterferenceAvoidance())
        elif self.orphans == "terminate":
            micros.append(TerminateOrphan())
        elif self.orphans == "probe":
            micros.append(ProbeOrphanTermination(
                self.probe_interval, self.probe_missed_limit))
        cum_func, init = self.collation
        micros.append(Collation(cum_func, init))
        micros.append(Acceptance(self.acceptance))
        return micros


def validate(spec: ServiceSpec) -> None:
    """Reject specs that violate the Figure-4 graph; no-op when legal."""
    if spec.call not in CALL_CHOICES:
        raise ConfigurationError(f"unknown call semantics {spec.call!r}; "
                                 f"choose from {CALL_CHOICES}")
    if spec.orphans not in ORPHAN_CHOICES:
        raise ConfigurationError(f"unknown orphan policy {spec.orphans!r}; "
                                 f"choose from {ORPHAN_CHOICES}")
    if spec.execution not in EXECUTION_CHOICES:
        raise ConfigurationError(
            f"unknown execution discipline {spec.execution!r}; "
            f"choose from {EXECUTION_CHOICES}")
    if spec.ordering not in ORDERING_CHOICES:
        raise ConfigurationError(f"unknown ordering {spec.ordering!r}; "
                                 f"choose from {ORDERING_CHOICES}")
    if spec.bounded < 0:
        raise ConfigurationError("bounded termination time must be >= 0")
    if spec.acceptance < 1:
        raise ConfigurationError("acceptance limit must be >= 1")

    if spec.unique and not spec.reliable:
        raise DependencyError(
            "Unique_Execution requires Reliable_Communication: its "
            "reply store is only retired on ACKs, which presume "
            "retransmission")
    if spec.ordering == "fifo" and not spec.reliable:
        raise DependencyError(
            "FIFO_Order requires Reliable_Communication: a lost call "
            "would gate all its successors forever (Figure 2)")
    if spec.ordering == "total":
        if not spec.unique:
            raise DependencyError(
                "Total_Order requires Unique_Execution: it assumes any "
                "request is received at the server only once")
        if not spec.reliable:
            raise DependencyError(
                "Total_Order requires Reliable_Communication")
        if spec.bounded:
            raise DependencyError(
                "Total_Order assumes Bounded_Termination is not present: "
                "an abandoned-but-ordered call would stall the sequence")
    if spec.ordering == "causal" and not spec.reliable:
        raise DependencyError(
            "Causal_Order requires Reliable_Communication: a call parked "
            "on its dependencies needs those dependencies to eventually "
            "arrive")
    if spec.orphans == "avoid" and not spec.reliable:
        raise DependencyError(
            "Interference_Avoidance requires Reliable_Communication: it "
            "drops deferred calls, relying on client retransmission")


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------

def at_least_once(**overrides: Any) -> ServiceSpec:
    """Figure 1 row 1: retransmission without duplicate filtering."""
    return ServiceSpec(reliable=True, unique=False,
                       execution="none").with_(**overrides)


def exactly_once(**overrides: Any) -> ServiceSpec:
    """Figure 1 row 2: unique execution, no atomicity guarantee."""
    return ServiceSpec(reliable=True, unique=True,
                       execution="none").with_(**overrides)


def at_most_once(**overrides: Any) -> ServiceSpec:
    """Figure 1 row 3: unique + atomic execution."""
    return ServiceSpec(reliable=True, unique=True,
                       execution="atomic").with_(**overrides)


def read_optimized(timebound: float = 1.0, **overrides: Any) -> ServiceSpec:
    """The paper's Section-5 example configuration.

    "A simple group RPC designed to provide quick response time to
    read-only requests ... 'at least once' semantics, acceptance one,
    synchronous call semantics, and bounded termination time", with
    reliability in the RPC layer.
    """
    return ServiceSpec(call="synchronous", reliable=True,
                       bounded=timebound, acceptance=1).with_(**overrides)


def replicated_state_machine(group_size: int,
                             **overrides: Any) -> ServiceSpec:
    """Totally ordered, exactly-once, all-replica configuration.

    The classic replicated-server deployment the paper's introduction
    motivates: every replica executes every call in the same total order.
    """
    return ServiceSpec(call="synchronous", reliable=True, unique=True,
                       ordering="total",
                       acceptance=group_size).with_(**overrides)
