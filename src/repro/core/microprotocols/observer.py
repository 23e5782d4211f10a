"""Call Observer (extension): protocol-level tracing as a micro-protocol.

The framework's composition model makes *observation* just another
micro-protocol: this one registers read-only handlers at the extremes
of every event's handler order and records a per-call timeline — when the
call entered gRPC, every network message it generated, when each server
executed it, and when the client thread resumed.  Linking it into a
composite changes no behavior (it never writes shared state, never
cancels events), which the test suite verifies.

All observers in one deployment share a :class:`CallTraceLog`; query it
by call identity for a timeline or ask for summary statistics (e.g.
execution fan-out per call), as the quickstart example does.

When the deployment has the observability layer enabled, the log also
mirrors every observation into the shared
:class:`~repro.obs.recorder.Recorder` as ``call.point`` event records, so
the exported JSONL trace carries the protocol-level timeline alongside
the span tree.  The query API (:meth:`~CallTraceLog.timeline` &c.) is
unchanged either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.grpc import (
    CALL_FROM_USER,
    MSG_FROM_NETWORK,
    NEW_RPC_CALL,
    REPLY_FROM_SERVER,
)
from repro.core.messages import CallKey, NetMsg, NetOp, UserMsg, UserOp
from repro.core.microprotocols.base import GRPCMicroProtocol
from repro.obs import register_protocol

__all__ = ["TracePoint", "CallTraceLog", "CallObserver"]


@dataclass(frozen=True)
class TracePoint:
    """One timestamped observation, attributed to the observing node."""

    time: float
    node: int
    kind: str
    detail: Any = None


class CallTraceLog:
    """Shared sink for every observer in a deployment.

    Optionally mirrors into a :class:`~repro.obs.recorder.Recorder` (as
    ``call.point`` event records); pass ``recorder=None`` for the
    standalone behavior.
    """

    def __init__(self, recorder: Any = None) -> None:
        self._points: Dict[CallKey, List[TracePoint]] = {}
        self.recorder = recorder

    def record(self, key: CallKey, point: TracePoint) -> None:
        self._points.setdefault(key, []).append(point)
        if self.recorder is not None:
            self.recorder.record_event(
                "call.point", node=point.node, time=point.time,
                key=tuple(key), kind=point.kind, detail=point.detail)

    def timeline(self, key: CallKey) -> List[TracePoint]:
        """All observations of one call, in time order."""
        return sorted(self._points.get(key, []),
                      key=lambda p: (p.time, p.node))

    def calls(self) -> List[CallKey]:
        return list(self._points)

    def executions(self, key: CallKey) -> List[TracePoint]:
        return [p for p in self.timeline(key) if p.kind == "executed"]

    def first_execution_latency(self, key: CallKey) -> Optional[float]:
        """Seconds from issue to the first server execution."""
        issued = next((p.time for p in self.timeline(key)
                       if p.kind == "issued"), None)
        executed = next((p.time for p in self.timeline(key)
                         if p.kind == "executed"), None)
        if issued is None or executed is None:
            return None
        return executed - issued

    def format_timeline(self, key: CallKey) -> str:
        """A human-readable per-call timeline (used by examples)."""
        lines = [f"call {key}:"]
        for p in self.timeline(key):
            lines.append(f"  {p.time * 1000:9.2f} ms  node {p.node:<4} "
                         f"{p.kind}"
                         + (f"  {p.detail}" if p.detail is not None
                            else ""))
        return "\n".join(lines)


class CallObserver(GRPCMicroProtocol):
    """Read-only tracer; link one instance per composite."""

    protocol_name = "Call_Observer"

    def __init__(self, log: CallTraceLog):
        super().__init__()
        self.log = log
        # Issue points waiting for their call id (FIFO: ids are assigned
        # under the pRPC mutex in the same order the chains entered).
        self._pending_issues: List[TracePoint] = []

    def configure(self) -> None:
        self.register(CALL_FROM_USER, self.on_issue)
        self.register(CALL_FROM_USER, self.on_return)
        self.register(NEW_RPC_CALL, self.on_recorded)
        self.register(MSG_FROM_NETWORK, self.on_message,
                      kinds=(NetOp.CALL, NetOp.REPLY, NetOp.ORDER))
        self.register(REPLY_FROM_SERVER, self.on_executed)

    # -- helpers ---------------------------------------------------------

    def _point(self, kind: str, detail: Any = None) -> TracePoint:
        return TracePoint(self.runtime.now(), self.my_id, kind, detail)

    def _client_key(self, call_id: int) -> CallKey:
        return (self.my_id, self.grpc.inc_number, call_id)

    # -- handlers (all read-only) -----------------------------------------

    async def on_issue(self, umsg: UserMsg) -> None:
        if umsg.type is UserOp.CALL:
            # The id is not assigned yet; on_recorded matches it up.
            self._pending_issues.append(self._point("issued", umsg.op))

    async def on_recorded(self, call_id: int) -> None:
        if self._pending_issues:
            self.log.record(self._client_key(call_id),
                            self._pending_issues.pop(0))

    async def on_return(self, umsg: UserMsg) -> None:
        if umsg.type in (UserOp.CALL, UserOp.REQUEST) and umsg.id:
            self.log.record(self._client_key(umsg.id),
                            self._point("client-resumed",
                                        umsg.status.value))

    async def on_message(self, msg: NetMsg) -> None:
        if msg.type is NetOp.CALL:
            key = self.call_key(msg)
        else:
            key = (msg.client if msg.type is NetOp.ORDER
                   else self.my_id, msg.inc, msg.id)
        self.log.record(key, self._point(f"received-{msg.type.value}",
                                         f"from {msg.sender}"))

    async def on_executed(self, key: CallKey) -> None:
        record = self.grpc.sRPC.get(key)
        detail = record.op if record is not None else None
        self.log.record(key, self._point("executed", detail))


register_protocol(CallObserver.protocol_name)
