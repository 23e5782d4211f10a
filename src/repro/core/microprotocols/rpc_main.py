"""RPC Main (Section 4.4.1): the main control flow of every RPC.

On the client side it stores the call in ``pRPC``, announces it with
``NEW_RPC_CALL`` and transmits it; on the server side it stores arriving
calls in ``sRPC`` and owns ``forward_up``, the HOLD-array gate that hands
a call to the server procedure once every configured property has signed
off, then ships the reply back.  It deliberately does *not* block user
threads — that is Synchronous/Asynchronous Call's job.
"""

from __future__ import annotations

from typing import Any

from repro.core.events import CANCEL
from repro.core.grpc import (
    CALL_FROM_USER,
    MSG_FROM_NETWORK,
    NEW_RPC_CALL,
    RECOVERY,
    REPLY_FROM_SERVER,
)
from repro.core.messages import CallKey, NetMsg, NetOp, UserMsg, UserOp
from repro.core.microprotocols.base import GRPCMicroProtocol
from repro.core.state import ClientRecord, ServerRecord
from repro.obs import CTX_KEY

__all__ = ["RPCMain"]

#: RPC Main's slot in the HOLD arrays.
MAIN = "MAIN"


class RPCMain(GRPCMicroProtocol):
    """The mandatory core micro-protocol (every configuration needs it)."""

    protocol_name = "RPC_Main"

    def __init__(self) -> None:
        super().__init__()
        self._next_id = 1

    def reset(self) -> None:
        # Call ids restart after a crash; the bumped incarnation number
        # disambiguates them at the servers.
        self._next_id = 1

    @property
    def next_call_id(self) -> int:
        """The id the next call from this composite will carry.

        The adaptation engine reads every client's cursor during a
        switch to seed freshly installed ordering gates
        (:meth:`~repro.core.microprotocols.fifo_order.FIFOOrder.
        seed_progress`).
        """
        return self._next_id

    def configure(self) -> None:
        grpc = self.grpc
        grpc.hold.declare(MAIN)
        grpc.forward_up = self.forward_up
        self.register(MSG_FROM_NETWORK, self.drop_in_progress_duplicates,
                      kinds=(NetOp.CALL,))
        self.register(MSG_FROM_NETWORK, self.msg_from_net, kinds=(NetOp.CALL,))
        self.register(CALL_FROM_USER, self.msg_from_user)
        self.register(RECOVERY, self.handle_recovery)

    # ------------------------------------------------------------------
    # Server side
    # ------------------------------------------------------------------

    async def drop_in_progress_duplicates(self, msg: NetMsg) -> Any:
        """Drop a retransmitted CALL whose original is still pending.

        Re-execution of a *finished* call is legitimate under at-least-once
        semantics, but overlapping executions of the same call triggered by
        a retransmission racing the original are not; the retransmission is
        simply discarded (the client keeps retrying until a reply lands).
        """
        if (msg.sender, msg.inc, msg.id) in self.grpc.sRPC:
            return CANCEL

    async def msg_from_net(self, msg: NetMsg) -> None:
        key = (msg.sender, msg.inc, msg.id)
        record = ServerRecord(key=key, op=msg.op, args=msg.args,
                              server=msg.server, client=msg.sender,
                              inc=msg.inc,
                              obs_ctx=msg.annotation(CTX_KEY))
        self.grpc.sRPC[key] = record
        await self.forward_up(key, MAIN)

    async def forward_up(self, key: CallKey, index: str) -> None:
        """Mark property ``index`` satisfied; execute when all are.

        This is the procedure RPC Main exports to the other
        micro-protocols.  Execution happens in the calling task, which may
        be the arrival's dispatch chain or (for ordering-gated calls) the
        chain of a previous call's reply.  The paper's version reads the
        record after removing it from ``sRPC``; we capture it first
        (deviation #1 in DESIGN.md).
        """
        grpc = self.grpc
        record = grpc.sRPC.get(key)
        if record is None or record.executing:
            return
        record.hold[index] = True
        if not grpc.hold.satisfied(record.hold):
            return
        record.executing = True
        gate = grpc.execution_gate
        if gate is not None:
            await gate.acquire()
        if grpc.kills_orphans:
            record.executor = self.current_task()
        obs = grpc.obs
        span = None
        if obs is not None:
            # Parent on the dispatch chain's context when execution runs
            # inline with the arrival; fall back to the context the call
            # arrived with for ordering-gated executions released from a
            # different chain.
            attrs = {"op": record.op, "call_id": record.call_id,
                     "client": record.client}
            if grpc.service:
                attrs["service"] = grpc.service
            span = obs.start_span(
                "server.execute", node=self.my_id,
                parent=obs.current() or record.obs_ctx,
                attrs=attrs)
        try:
            # The gate covers the procedure only: an ordering protocol's
            # REPLY_FROM_SERVER handler releases the next held call by
            # calling forward_up in this same task, which must not find
            # the gate still taken (deviation #6 in DESIGN.md).
            try:
                record.args = await grpc.deliver_to_server(record.op,
                                                           record.args)
            finally:
                if gate is not None:
                    gate.release()
            await self.trigger(REPLY_FROM_SERVER, key)
        finally:
            record.executor = None
            if obs is not None:
                obs.end_span(span)
        # The reply carries the execute span's context so the client-side
        # msg.REPLY dispatch nests under this server's subtree.
        reply_ann = {CTX_KEY: span.ctx} if span is not None else None
        reply = NetMsg(type=NetOp.REPLY, id=record.call_id, op=record.op,
                       args=record.args, server=record.server,
                       sender=self.my_id, inc=record.inc,
                       annotations=reply_ann)
        grpc.sRPC.pop(key, None)
        await grpc.net_push(record.client, reply)

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------

    async def msg_from_user(self, umsg: UserMsg) -> None:
        if umsg.type is not UserOp.CALL:
            return
        grpc = self.grpc
        record = ClientRecord.fresh(
            self._next_id, umsg.op, umsg.args, umsg.server,
            grpc.runtime.semaphore(0), grpc.inc_number)
        self._next_id += 1
        grpc.pRPC[record.id] = record
        await self.trigger(NEW_RPC_CALL, record.id)
        umsg.id = record.id
        obs = grpc.obs
        if obs is not None:
            # Stamp the client's span context into the record's
            # annotations: every transmission of this call — including
            # Reliable Communication's retransmissions — copies them onto
            # the wire, reconnecting the server subtrees to the root.
            ctx = obs.current()
            if ctx is not None:
                record.annotations[CTX_KEY] = ctx
            obs.span_event("rpc.send", node=self.my_id, parent=ctx,
                           micro=self.name, call_id=record.id,
                           dests=list(record.server))
        # The wire message carries the *request* args; NEW_RPC_CALL may
        # already have repurposed record.args as the collation accumulator
        # (deviation #5 in DESIGN.md).
        msg = NetMsg(type=NetOp.CALL, id=record.id, op=record.op,
                     args=record.request_args, server=record.server,
                     sender=self.my_id, inc=grpc.inc_number,
                     annotations=dict(record.annotations) or None)
        await grpc.net_push(record.server, msg)

    async def handle_recovery(self, inc: int) -> None:
        self.grpc.inc_number = inc
