"""Shared data structures of the gRPC framework (Section 4.2).

The framework half of a composite protocol "supports shared data (e.g.,
messages) that can be accessed by the micro-protocols configured into the
framework".  For gRPC that shared data is:

* ``pRPC`` — pending calls at the client, a plain dict on the composite
  from call id to :class:`ClientRecord`: the per-call semaphore the client
  thread waits on, the required-response count ``nres``, the
  per-server pending/acked/done bookkeeping, and the call's Bounded
  Termination deadline.  Insertion order is issue order, which Bounded
  Termination walks as the paper's FIFO of expiries;
* ``sRPC`` — pending calls at a server, a plain dict from
  :data:`~repro.core.messages.CallKey` to :class:`ServerRecord`, each with
  the per-call *hold array*;
* :class:`HoldRegistry` (``HOLD``) — which properties must be satisfied
  before a call may be forwarded up to the server.

The paper guards both tables with ``P``/``V`` mutexes because x-kernel
threads preempt; here every micro-protocol runs on one cooperative kernel
and no access to a table yields, so the tables carry no lock (deviation
#11 in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

from repro.core.messages import CallKey, Status
from repro.net.message import Group, ProcessId

__all__ = ["PendingEntry", "ClientRecord", "ServerRecord", "HoldRegistry"]


@dataclass(slots=True)
class PendingEntry:
    """Per-server state within a client record (the ``waiting_list``).

    ``acked`` — the server has acknowledged (or replied to) the call, so
    Reliable Communication stops retransmitting to it.
    ``done`` — the server's reply has been counted by Acceptance (or the
    server was declared failed by the membership service).
    """

    acked: bool = False
    done: bool = False


@dataclass(slots=True)
class ClientRecord:
    """One pending call at the client (the paper's ``Client_Record``)."""

    id: int
    op: str
    args: Any
    server: Group
    sem: Any                      # semaphore the client thread waits on
    nres: int = 0                 # responses still required
    pending: Dict[ProcessId, PendingEntry] = field(default_factory=dict)
    status: Status = Status.WAITING
    #: Incarnation of the client when the call was issued.
    inc: int = 0
    #: The original request arguments, kept separately because ``args``
    #: becomes the collation accumulator once Collation initializes it
    #: (the paper's retransmission path reads ``pRPC(id).args``, which
    #: would resend the accumulator — deviation #5 in DESIGN.md).
    request_args: Any = None
    #: Micro-protocol piggyback data, copied onto every transmission of
    #: this call (set during NEW_RPC_CALL, e.g. by Causal Order).
    annotations: Dict[str, Any] = field(default_factory=dict)
    #: The Bounded Termination instance that bounds this call, and the
    #: virtual instant the bound expires (issue time + ``timebound``);
    #: ``None`` for an unbounded call.  The instance expires only calls
    #: it stamped, so a call issued under an instance a live adaptation
    #: swapped out keeps no bound.
    bound_by: Any = None
    deadline: float = 0.0

    @classmethod
    def fresh(cls, call_id: int, op: str, args: Any, server: Group,
              sem: Any, inc: int) -> "ClientRecord":
        return cls(id=call_id, op=op, args=args, server=server, sem=sem,
                   pending={p: PendingEntry() for p in server},
                   inc=inc, request_args=args)


@dataclass(slots=True)
class ServerRecord:
    """One pending call at a server (the paper's ``Server_Record``)."""

    key: CallKey
    op: str
    args: Any
    server: Group
    client: ProcessId
    #: Client incarnation the call belongs to.
    inc: int
    #: Which gating properties have been satisfied for this call.
    hold: Dict[str, bool] = field(default_factory=dict)
    #: Set once the call has been handed to the server procedure, so a
    #: late-satisfied property cannot execute it a second time.
    executing: bool = False
    #: Task handle currently executing the server procedure for this call;
    #: Terminate Orphan kills orphans through it (the paper's
    #: ``kill(thread)``).
    executor: Any = None
    #: Span context the call arrived with (``NetMsg.annotations`` under
    #: :data:`repro.obs.recorder.CTX_KEY`); lets an ordering-gated
    #: execution — which runs in a *different* dispatch chain than the
    #: arrival — still parent its ``server.execute`` span correctly.
    obs_ctx: Any = None

    @property
    def call_id(self) -> int:
        return self.key[2]


class HoldRegistry:
    """``HOLD``: which properties gate forwarding a call to the server.

    Micro-protocols that must approve every call before execution (RPC
    Main itself, FIFO Order, Total Order) declare their property here;
    :meth:`satisfied` compares a call's per-record hold array against the
    registry, which is exactly the loop in the paper's ``forward_up``.
    The required names are kept as a tuple in declaration order, rebuilt
    by :meth:`declare`/:meth:`retract`, so the per-call check builds
    nothing.
    """

    def __init__(self) -> None:
        self._required: Tuple[str, ...] = ()

    def declare(self, prop: str) -> None:
        """Set ``HOLD[prop] = true``: calls wait for this property."""
        if prop not in self._required:
            self._required += (prop,)

    def retract(self, prop: str) -> None:
        """Set ``HOLD[prop] = false``: stop gating calls on it.

        Used when a live adaptation removes the micro-protocol that
        declared the property — without this, every post-swap call would
        wait forever for a signature no handler will ever provide.
        """
        self._required = tuple(name for name in self._required
                               if name != prop)

    def satisfied(self, hold: Dict[str, bool]) -> bool:
        """True when every required property is marked in ``hold``
        (a hold array only ever marks properties ``True``)."""
        return all(map(hold.get, self._required))
