"""A compact, hand-fused point-to-point RPC (ablation baseline).

Section 4.1: "Point-to-point RPC can be seen as a special case in this
implementation, although in practice it would likely be implemented
separately to obtain a more compact and efficient protocol."  This module
is that separate implementation: one protocol object providing
synchronous calls with reliability (retransmission + acks), exactly-once
execution (duplicate filter + reply cache) and optional bounded
termination — the same semantics as the composite
``ServiceSpec(unique=True, bounded=...)`` for a group of one, but with
every property fused into a single state machine with no event bus, no
handler dispatch, and no HOLD bookkeeping.

The X7 benchmark compares the two: semantics identical, CPU cost not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Set, Tuple

from repro.core.messages import CallResult, Status
from repro.errors import ConfigurationError
from repro.net.message import ProcessId
from repro.net.node import Node
from repro.xkernel.upi import Protocol

__all__ = ["P2PMsg", "PointToPointRPC"]


@dataclass
class P2PMsg:
    """Wire message of the compact protocol (own type, own claim on the
    node's arrival table)."""

    kind: str                  # "call" | "reply" | "ack"
    id: int = 0
    op: str = ""
    args: Any = None
    sender: ProcessId = -1
    inc: int = 0


_Key = Tuple[ProcessId, int, int]


class _Pending:
    __slots__ = ("sem", "args", "status", "acked")

    def __init__(self, sem: Any):
        self.sem = sem
        self.args: Any = None
        self.status = Status.WAITING
        self.acked = False


class PointToPointRPC(Protocol):
    """Monolithic exactly-once synchronous RPC between two sites."""

    def __init__(self, node: Node, *, retrans_timeout: float = 0.05,
                 timebound: float = 0.0):
        super().__init__(f"p2p@{node.pid}")
        self.node = node
        self.runtime = node.runtime
        self.retrans_timeout = retrans_timeout
        self.timebound = timebound
        self._next_id = 1
        self._pending: Dict[int, _Pending] = {}
        self._pending_dest: Dict[int, ProcessId] = {}
        self._pending_msg: Dict[int, P2PMsg] = {}
        self._old_calls: Set[_Key] = set()
        self._old_results: Dict[_Key, Any] = {}
        self._retransmitter: Any = None
        node.crash_listeners.append(self._on_crash)
        node.recover_listeners.append(self._on_recover)

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------

    async def call(self, op: str, args: Any,
                   server: ProcessId) -> CallResult:
        """Synchronous exactly-once call to ``server``."""
        call_id = self._next_id
        self._next_id += 1
        pending = _Pending(self.runtime.semaphore(0))
        self._pending[call_id] = pending
        msg = P2PMsg("call", call_id, op, args, self.node.pid,
                     self.node.incarnation)
        self._pending_dest[call_id] = server
        self._pending_msg[call_id] = msg
        self._ensure_retransmitter()
        timer = None
        if self.timebound:
            timer = self.runtime.call_later(
                self.timebound, lambda: self._expire(call_id))
        await self._send(server, msg)
        await pending.sem.acquire()
        if timer is not None:
            # Void the expiry timer as soon as the call resolves; a
            # long-timebound workload would otherwise grow the kernel's
            # timer heap by one dead entry per call until the distant
            # expiries drained (the kernel purges cancelled entries).
            timer.cancel()
        self._pending.pop(call_id, None)
        self._pending_dest.pop(call_id, None)
        self._pending_msg.pop(call_id, None)
        return CallResult(call_id, pending.status, pending.args)

    def _expire(self, call_id: int) -> None:
        pending = self._pending.get(call_id)
        if pending is not None and pending.status is Status.WAITING:
            pending.status = Status.TIMEOUT
            pending.sem.release()

    def _ensure_retransmitter(self) -> None:
        if self._retransmitter is None or \
                getattr(self._retransmitter, "done", False):
            self._retransmitter = self.node.spawn(
                self._retransmit_loop(), name=f"{self.name}-retrans",
                daemon=True)

    async def _retransmit_loop(self) -> None:
        while True:
            await self.runtime.sleep(self.retrans_timeout)
            if not self._pending:
                continue
            for call_id, pending in list(self._pending.items()):
                if pending.acked or pending.status is not Status.WAITING:
                    continue
                await self._send(self._pending_dest[call_id],
                                 self._pending_msg[call_id])

    # ------------------------------------------------------------------
    # Wire handling (both sides)
    # ------------------------------------------------------------------

    async def _send(self, dest: ProcessId, msg: P2PMsg) -> None:
        if self.lower is None:
            raise ConfigurationError(f"{self.name} has no transport")
        await self.lower.push(dest, msg)

    async def pop(self, msg: P2PMsg, sender: ProcessId) -> None:
        if msg.kind == "call":
            await self._handle_call(msg)
        elif msg.kind == "reply":
            await self._handle_reply(msg)
        elif msg.kind == "ack":
            self._old_results.pop((msg.sender, msg.inc, msg.id), None)

    async def _handle_call(self, msg: P2PMsg) -> None:
        key = (msg.sender, msg.inc, msg.id)
        if key in self._old_results:
            reply = P2PMsg("reply", msg.id, msg.op,
                           self._old_results[key], self.node.pid, msg.inc)
            await self._send(msg.sender, reply)
            return
        if key in self._old_calls:
            return   # in progress or already acked
        self._old_calls.add(key)
        if self.upper is None:
            raise ConfigurationError(f"{self.name} has no server above")
        result = await self.upper.pop(msg.op, msg.args)
        self._old_results[key] = result
        reply = P2PMsg("reply", msg.id, msg.op, result, self.node.pid,
                       msg.inc)
        await self._send(msg.sender, reply)

    async def _handle_reply(self, msg: P2PMsg) -> None:
        ack = P2PMsg("ack", msg.id, "", None, self.node.pid, msg.inc)
        await self._send(msg.sender, ack)
        pending = self._pending.get(msg.id)
        if pending is None or msg.inc != self.node.incarnation:
            return
        pending.acked = True
        if pending.status is Status.WAITING:
            pending.args = msg.args
            pending.status = Status.OK
            pending.sem.release()

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------

    def _on_crash(self) -> None:
        self._pending.clear()
        self._pending_dest.clear()
        self._pending_msg.clear()
        self._old_calls.clear()
        self._old_results.clear()
        self._retransmitter = None

    def _on_recover(self, incarnation: int) -> None:
        self._next_id = 1
