"""Reliable Communication (Section 4.4.3): retransmission + acks.

"The standard approach to making RPC reliable is to retransmit the call to
the server site until the response or some other form of acknowledgment
arrives."  A periodic one-shot TIMEOUT (re-armed by its own handler, as in
the paper) walks ``pRPC`` and retransmits every call to every server that
has not yet acknowledged it, where a REPLY or an explicit ACK both count
as acknowledgment.

Combined with RPC Main this yields *unbounded termination*: the client
keeps trying until it gets a response.
"""

from __future__ import annotations

from repro.core.events import TIMEOUT
from repro.core.grpc import MSG_FROM_NETWORK, NEW_RPC_CALL, RECOVERY
from repro.core.messages import NetMsg, NetOp
from repro.core.microprotocols.base import GRPCMicroProtocol
from repro.obs import CTX_KEY, register_protocol

__all__ = ["ReliableCommunication"]


class ReliableCommunication(GRPCMicroProtocol):
    """Client-side retransmission until each server acknowledges."""

    protocol_name = "Reliable_Communication"

    def __init__(self, retrans_timeout: float = 0.05):
        super().__init__()
        if retrans_timeout <= 0:
            raise ValueError("retransmission timeout must be positive")
        self.retrans_timeout = retrans_timeout

    def configure(self) -> None:
        self.register(MSG_FROM_NETWORK, self.msg_from_net,
                      kinds=(NetOp.REPLY, NetOp.ACK))
        self.register(NEW_RPC_CALL, self.handle_new_call)
        self.register(TIMEOUT, self.handle_timeout, self.retrans_timeout)
        # The paper's recovery story re-links the composite at reboot,
        # which re-runs configure() and thereby re-arms this timer.
        self.register(RECOVERY, self.handle_recovery)

    async def handle_new_call(self, call_id: int) -> None:
        record = self.grpc.pRPC.get(call_id)
        if record is None:
            return
        for entry in record.pending.values():
            entry.acked = False

    async def msg_from_net(self, msg: NetMsg) -> None:
        if msg.type is NetOp.REPLY:
            record = self.client_record_for(msg)
            if record is not None and msg.sender in record.pending:
                record.pending[msg.sender].acked = True
        else:  # ACK
            record = self.grpc.pRPC.get(msg.ackid)
            if record is not None and record.inc == msg.ack_inc \
                    and msg.sender in record.pending:
                record.pending[msg.sender].acked = True

    async def handle_timeout(self) -> None:
        grpc = self.grpc
        obs = grpc.obs
        for record in grpc.pRPC.records():
            for pid, entry in record.pending.items():
                if entry.acked:
                    continue
                if obs is not None:
                    # Attribute the retransmission to this micro-protocol
                    # in the call's span tree (the timer chain has no
                    # task-local context, so parent on the wire context).
                    obs.span_event("rpc.send", node=self.my_id,
                                   parent=record.annotations.get(CTX_KEY),
                                   micro=self.name, call_id=record.id,
                                   dest=pid, retransmit=True)
                msg = NetMsg(type=NetOp.CALL, id=record.id, op=record.op,
                             args=record.request_args,
                             server=record.server,
                             sender=self.my_id, inc=record.inc,
                             annotations=dict(record.annotations) or None)
                await grpc.net_push(pid, msg)
        # One-shot TIMEOUTs are re-registered for periodic behavior,
        # exactly as in the paper's pseudocode.
        self.register(TIMEOUT, self.handle_timeout, self.retrans_timeout)

    async def handle_recovery(self, inc: int) -> None:
        # Nothing to do: pRPC died with the crash and configure() re-armed
        # the retransmission timer.  Present so the recovery path is
        # explicit and testable.
        return


register_protocol(ReliableCommunication.protocol_name)
