"""Interference Avoidance (Section 4.4.7): orphans finish before new work.

"With interference avoidance, the orphans finish their computation before
the recovered client is allowed to issue new requests."  Client
incarnation numbers partition calls into generations: when a call with a
new incarnation arrives while calls of the old incarnation are still
executing, the new call is "simply dropped ... relying on retransmission
from the client to ensure they will eventually be executed" — hence the
dependency on Reliable Communication.  "To avoid starvation, no more
calls with the old incarnation number are started once the first one with
a new number has been seen" — modelled by freezing ``inc`` at infinity
until the old generation's count drains to zero.

The paper's handler forgets to drop the new-generation call it just
deferred (it falls through to RPC Main and executes); we cancel the event
in that case (deviation #8 in DESIGN.md).
"""

from __future__ import annotations

import sys
from typing import Dict

from repro.core.grpc import MSG_FROM_NETWORK, REPLY_FROM_SERVER
from repro.core.messages import CallKey, NetMsg, NetOp
from repro.core.microprotocols.base import GRPCMicroProtocol
from repro.net.message import ProcessId
from repro.obs import register_protocol

__all__ = ["InterferenceAvoidance"]

_FROZEN = sys.maxsize  # the paper's MAX_INT sentinel


class _ClientInfo:
    __slots__ = ("inc", "count", "next_inc")

    def __init__(self, inc: int):
        self.inc = inc          # generation currently allowed to start
        self.count = 0          # its calls still executing
        self.next_inc = inc     # generation waiting to take over


class InterferenceAvoidance(GRPCMicroProtocol):
    """Defers a recovered client's calls until its orphans drain."""

    protocol_name = "Interference_Avoidance"

    def __init__(self) -> None:
        super().__init__()
        self.cinfo: Dict[ProcessId, _ClientInfo] = {}

    def reset(self) -> None:
        self.cinfo.clear()

    def configure(self) -> None:
        self.register(MSG_FROM_NETWORK, self.msg_from_net,
                      kinds=(NetOp.CALL,))
        self.register(REPLY_FROM_SERVER, self.handle_reply)

    async def msg_from_net(self, msg: NetMsg) -> None:
        client = msg.sender
        info = self.cinfo.get(client)
        if info is None:
            info = _ClientInfo(msg.inc)
            self.cinfo[client] = info
        if info.inc > msg.inc and info.inc != _FROZEN:
            # Older incarnation than the admitted generation: orphan spam.
            self.cancel_event()
            return
        if info.inc != _FROZEN and info.inc < msg.inc:
            # First call of a newer generation: freeze admissions until
            # the current generation's executions drain.
            info.next_inc = msg.inc
            if info.count == 0:
                info.inc = msg.inc
            else:
                info.inc = _FROZEN
        elif info.inc == _FROZEN and msg.inc > info.next_inc:
            # An even newer generation supersedes the one waiting.
            info.next_inc = msg.inc
        if info.inc == msg.inc:
            info.count += 1
        else:
            # Not admitted this round; the client's retransmission will
            # bring it back once the old generation finishes.
            self.cancel_event()

    async def handle_reply(self, key: CallKey) -> None:
        record = self.grpc.sRPC.get(key)
        if record is None:
            return
        info = self.cinfo.get(record.client)
        if info is None:
            return
        info.count -= 1
        if info.count == 0 and info.inc == _FROZEN:
            info.inc = info.next_inc


register_protocol(InterferenceAvoidance.protocol_name)
