"""Message and status types exchanged by the gRPC composite (Section 4.2).

Mirrors the paper's type definitions:

* ``Net_Msgtype`` -> :class:`NetMsg` with ``type`` in {Call, Reply, ACK,
  Order}, the call identifier, operation, argument field, server group,
  sender, incarnation number and ``ackid``;
* ``User_Msgtype`` -> :class:`UserMsg` with ``type`` in {Call, Request},
  used between the user protocol and gRPC;
* ``Status_type`` -> :class:`Status` = {OK, WAITING, TIMEOUT}.

From gRPC's perspective arguments are "one continuous untyped field"
produced by the stubs; we carry any Python object and let
:mod:`repro.stubs` do the marshalling above.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from repro.net.message import Group, ProcessId, wire_size

__all__ = ["NetOp", "UserOp", "Status", "MemChange", "NetMsg", "UserMsg",
           "CallKey", "CallResult"]


class MemChange(enum.Enum):
    """Membership change kinds (the paper's ``Mem_Change``)."""

    FAILURE = "FAILURE"
    RECOVERY = "RECOVERY"


class NetOp(enum.Enum):
    """Wire message kinds (the paper's ``Net_Optype``).

    CALL/REPLY/ACK/ORDER are the paper's; PING/PONG serve the
    probing-based orphan detection the paper mentions as the alternative
    to incarnation-based detection (extension).
    """

    CALL = "Call"
    REPLY = "Reply"
    ACK = "ACK"
    ORDER = "Order"
    PING = "Ping"
    PONG = "Pong"
    # Total Order's leader-change agreement phase (extension; the paper
    # omits this phase "for brevity"): the new leader queries survivors
    # for their known order assignments and redistributes the merge.
    ORDER_QUERY = "OrderQuery"
    ORDER_INFO = "OrderInfo"

    # Identity hashing in C instead of ``Enum.__hash__`` (a Python-level
    # ``hash(self._name_)``): every kind-naming trigger hashes its kind
    # to find the chain.  Hashes then differ from run to run, which is
    # safe only while nothing iterates a set of kinds — a registration's
    # kinds are only tested with ``in`` and compared for equality.
    __hash__ = object.__hash__


class UserOp(enum.Enum):
    """User-to-gRPC message kinds (the paper's ``User_Optype``)."""

    CALL = "Call"
    REQUEST = "Request"


class Status(enum.Enum):
    """Return status of a call (the paper's ``Status_type``).

    ``REDIRECT`` extends the paper's set for the placement plane: a call
    stamped with a stale view epoch is bounced back (with the current
    epoch in its args) instead of being dispatched against a routing
    table that no longer holds.  It never travels on the wire — the
    bounce happens deployment-side, before any message is built.
    """

    OK = "OK"
    WAITING = "WAITING"
    TIMEOUT = "TIMEOUT"
    REDIRECT = "REDIRECT"


#: Server-side tables key calls by (client pid, client incarnation, call id).
#: The paper indexes by the bare call id, which collides across clients
#: because ids are client-assigned (deviation #2 in DESIGN.md).
CallKey = Tuple[ProcessId, int, int]


@dataclass(slots=True)
class NetMsg:
    """One gRPC wire message (the paper's ``Net_Msgtype``)."""

    type: NetOp
    id: int = 0
    op: str = ""
    args: Any = None
    server: Optional[Group] = None
    sender: ProcessId = -1
    inc: int = 0
    ackid: int = 0
    #: Incarnation the acked/ordered call belongs to (completes ``ackid``
    #: into a full :data:`CallKey`; the paper's single-field ``ackid``
    #: under-identifies the call).
    ack_inc: int = 0
    #: Assigned total-order rank carried by ORDER messages.
    order: int = 0
    #: Client process the ordered call belongs to (ORDER messages only);
    #: together with ``inc`` and ``id`` it reconstructs the CallKey.
    client: ProcessId = -1
    #: Name of the service this message belongs to.  Stamped by the
    #: sending composite's ``net_push`` so a node hosting several
    #: composites (one per service of a deployment) can demultiplex the
    #: arrival to the right one; ``""`` on hand-built single-composite
    #: stacks, which route by payload type alone.
    service: str = ""
    #: Extension point: per-call data piggybacked by micro-protocols
    #: (e.g. Causal Order's dependency set) and by the observability
    #: layer, whose span context rides under
    #: :data:`repro.obs.recorder.CTX_KEY`.  Populated from the client
    #: record's annotations on every transmission of the call.
    annotations: Optional[dict] = None

    def annotation(self, key: str, default: Any = None) -> Any:
        if self.annotations is None:
            return default
        return self.annotations.get(key, default)

    def trace_ctx(self) -> Optional[Tuple[int, int]]:
        """The ``(trace, span)`` context this message carries, if any."""
        ctx = self.annotation("obs.ctx")
        return (int(ctx[0]), int(ctx[1])) if ctx is not None else None

    def wire_size(self) -> int:
        """Exactly what :func:`repro.net.message.wire_size` would get by
        walking all 13 fields, sizing only the five that vary: 2 of
        framing + 16 for ``type`` + 9 for each of the seven ints = 81
        fixed.  The batching wire sizes every message it buffers."""
        return (81 + wire_size(self.op) + wire_size(self.args)
                + wire_size(self.server) + wire_size(self.service)
                + wire_size(self.annotations))


@dataclass
class UserMsg:
    """One message between the user protocol and gRPC.

    For a ``CALL`` the user fills ``op``/``args``/``server``; RPC Main
    assigns ``id``.  On return from the trigger chain, ``args`` holds the
    collated results and ``status`` the outcome — arguments are in/out,
    as in the paper.
    """

    type: UserOp
    id: int = 0
    op: str = ""
    args: Any = None
    server: Optional[Group] = None
    status: Status = Status.WAITING


@dataclass(frozen=True)
class CallResult:
    """What the public client API returns for a completed call."""

    id: int
    status: Status
    args: Any

    @property
    def ok(self) -> bool:
        return self.status is Status.OK
