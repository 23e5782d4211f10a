"""FIFO Order (Section 4.4.6): per-client call order at every server.

"FIFO ordering guarantees that all calls issued by any one client are
executed in the same order by all group members."  Call ids are assigned
sequentially by each client per incarnation, so FIFO order at a server
means executing each client's calls in id order within the newest
incarnation seen.

The ``In_Progress`` table tracks, per client, the incarnation and the next
id allowed to execute; arrivals ahead of their turn wait (their HOLD slot
stays unset) and are released by ``handle_reply`` when their predecessor
finishes.  Stale arrivals — older incarnation, or an id below ``next`` —
are dropped, which (as the paper notes) deliberately tolerates duplicate
execution rather than tracking history; pair with Unique Execution when
replies can be lost, so retransmits of already-answered calls are served
from the reply store instead of starving.

Requires Reliable Communication (Figure 2/4): order gating means a lost
call would block all its successors forever without retransmission.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.core.events import CANCEL
from repro.core.grpc import MSG_FROM_NETWORK, REPLY_FROM_SERVER
from repro.core.messages import CallKey, NetMsg, NetOp
from repro.core.microprotocols.base import GRPCMicroProtocol
from repro.net.message import ProcessId

__all__ = ["FIFOOrder"]

#: FIFO Order's slot in the HOLD arrays.
FIFO = "FIFO"


class _ClientProgress:
    __slots__ = ("inc", "next")

    def __init__(self, inc: int, next_id: int):
        self.inc = inc
        self.next = next_id


class FIFOOrder(GRPCMicroProtocol):
    """Executes each client's calls in issue order (per incarnation)."""

    protocol_name = "FIFO_Order"

    def __init__(self) -> None:
        super().__init__()
        self.in_progress: Dict[ProcessId, _ClientProgress] = {}

    def reset(self) -> None:
        self.in_progress.clear()

    def configure(self) -> None:
        self.grpc.hold.declare(FIFO)
        self.register(MSG_FROM_NETWORK, self.msg_from_net, kinds=(NetOp.CALL,))
        self.register(REPLY_FROM_SERVER, self.handle_reply)

    def unconfigure(self) -> None:
        self.grpc.hold.retract(FIFO)

    def seed_progress(self, client: ProcessId, inc: int,
                      next_id: int) -> None:
        """Start ``client``'s order gating at ``next_id`` (adaptation).

        A FIFO gate swapped into a *running* group must not seed from 1:
        the clients' id cursors are already past it, so every arrival
        would wait for predecessors that completed under the previous
        composition.  The adaptation engine seeds each client's cursor
        here during the switch.  Only moves forward — an already-known
        client that is further along keeps its progress.
        """
        info = self.in_progress.get(client)
        if info is None or info.inc < inc \
                or (info.inc == inc and next_id > info.next):
            self.in_progress[client] = _ClientProgress(inc, next_id)

    async def msg_from_net(self, msg: NetMsg) -> Any:
        grpc = self.grpc
        key = self.call_key(msg)
        client = msg.sender
        info = self.in_progress.get(client)
        if info is None:
            # Client ids start at 1 per incarnation (RPC Main), so order
            # gating starts there.  The paper seeds `next` from the first
            # *arrived* id instead, which livelocks when the network
            # reorders the client's opening burst (deviation #10).
            info = _ClientProgress(msg.inc, 1)
            self.in_progress[client] = info
        if info.inc > msg.inc or (info.inc == msg.inc
                                  and msg.id < info.next):
            # Stale: an old incarnation, or an already-passed id.
            grpc.sRPC.pop(key, None)
            return CANCEL
        if info.inc < msg.inc:
            # New client incarnation: its id sequence starts over at 1.
            info.inc = msg.inc
            info.next = 1
        if msg.id == info.next:
            await grpc.forward_up(key, FIFO)

    async def handle_reply(self, key: CallKey) -> None:
        grpc = self.grpc
        record = grpc.sRPC.get(key)
        if record is None:
            return
        info = self.in_progress.get(record.client)
        if info is None or info.inc != record.inc \
                or record.call_id != info.next:
            return
        info.next = record.call_id + 1
        successor = (record.client, record.inc, info.next)
        if successor in grpc.sRPC:
            await grpc.forward_up(successor, FIFO)
