"""Unique Execution (Section 4.4.5): the server procedure runs at most
once per call.

"The basic strategy is to keep track of requests that have already been
executed.  In our solution, the server stores its response to the original
request until the client acknowledges the response.  If a duplicate
request is received after the acknowledgement has been received, the
message is assumed to be old and simply discarded."

Server side: ``OldCalls`` remembers every call ever admitted (so
in-progress and post-ack duplicates are discarded) and ``OldResults``
stores replies awaiting client ACK (so pre-ack duplicates are answered
from the store without re-execution).  Client side: every REPLY is ACKed.

Both tables key calls by (client, incarnation, id) — the paper's bare-id
indexing collides across clients (deviation #2) — and both are volatile:
a server crash forgets them, which is precisely why "exactly once" gives
no guarantee when the invocation terminates abnormally (Section 2.1).
RPC Main + Reliable Communication alone give at-least-once; adding this
micro-protocol upgrades the pair to exactly-once (Figure 1).
"""

from __future__ import annotations

from typing import Any, Dict, Set

from repro.core.events import CANCEL
from repro.core.grpc import CALL_ABORTED, MSG_FROM_NETWORK, REPLY_FROM_SERVER
from repro.core.messages import CallKey, NetMsg, NetOp
from repro.core.microprotocols.base import GRPCMicroProtocol

__all__ = ["UniqueExecution"]


class UniqueExecution(GRPCMicroProtocol):
    """Filters duplicate calls; replays stored replies; ACKs replies."""

    protocol_name = "Unique_Execution"

    def __init__(self) -> None:
        super().__init__()
        self.old_calls: Set[CallKey] = set()
        self.old_results: Dict[CallKey, Any] = {}

    def reset(self) -> None:
        self.old_calls.clear()
        self.old_results.clear()

    def configure(self) -> None:
        self.register(MSG_FROM_NETWORK, self.msg_from_net,
                      kinds=(NetOp.CALL, NetOp.REPLY, NetOp.ACK))
        self.register(MSG_FROM_NETWORK, self.admit_call, kinds=(NetOp.CALL,))
        self.register(REPLY_FROM_SERVER, self.handle_reply)
        self.register(CALL_ABORTED, self.handle_abort)

    async def handle_abort(self, key: CallKey) -> None:
        """An orphan kill abandoned this call: forget it ever arrived.

        Without this, a *live* client's retransmission of a falsely
        killed call would be discarded as a duplicate forever.
        """
        self.old_calls.discard(key)
        self.old_results.pop(key, None)

    async def handle_reply(self, key: CallKey) -> None:
        record = self.grpc.sRPC.get(key)
        if record is not None:
            self.old_results[key] = record.args

    async def msg_from_net(self, msg: NetMsg) -> Any:
        grpc = self.grpc
        if msg.type is NetOp.CALL:
            key = (msg.sender, msg.inc, msg.id)
            if key in self.old_results:
                # Executed but not yet ACKed: replay the stored reply.
                reply = NetMsg(type=NetOp.REPLY, id=msg.id, op=msg.op,
                               args=self.old_results[key],
                               server=msg.server, sender=self.my_id,
                               inc=msg.inc)
                await grpc.net_push(msg.sender, reply)
                return CANCEL
            elif key in self.old_calls:
                # In progress, or executed and already ACKed: discard.
                return CANCEL
        elif msg.type is NetOp.REPLY:
            # Client side: acknowledge so the server can retire the result.
            ack = NetMsg(type=NetOp.ACK, server=msg.server,
                         sender=self.my_id, inc=grpc.inc_number,
                         ackid=msg.id, ack_inc=msg.inc)
            await grpc.net_push(msg.sender, ack)
        else:  # ACK
            self.old_results.pop((msg.sender, msg.ack_inc, msg.ackid), None)

    async def admit_call(self, msg: NetMsg) -> None:
        """Record a call as seen — *after* the orphan filters ran.

        Runs after the orphan filters, so a call deferred by Interference
        Avoidance (which cancels the chain) is never admitted; its
        retransmissions get a fresh decision instead of being discarded
        as duplicates.
        """
        self.old_calls.add((msg.sender, msg.inc, msg.id))
