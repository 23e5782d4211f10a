"""Synchronous Call (Section 4.4.2): blocking call semantics.

Runs on ``CALL_FROM_USER`` after RPC Main has recorded and transmitted
the call; it then blocks the client thread on the per-call semaphore
until Acceptance (or Bounded Termination) releases it, copies the
collated results and status back into the user message, and retires the
call record.
"""

from __future__ import annotations

from repro.core.grpc import CALL_FROM_USER
from repro.core.messages import UserMsg, UserOp
from repro.core.microprotocols.base import GRPCMicroProtocol

__all__ = ["SynchronousCall"]


class SynchronousCall(GRPCMicroProtocol):
    """Blocks the caller until the call terminates."""

    protocol_name = "Synchronous_Call"

    def configure(self) -> None:
        self.register(CALL_FROM_USER, self.msg_from_user)

    async def msg_from_user(self, umsg: UserMsg) -> None:
        if umsg.type is not UserOp.CALL:
            return
        grpc = self.grpc
        record = grpc.pRPC.get(umsg.id)
        if record is None:
            return
        await record.sem.acquire()
        umsg.args = record.args
        umsg.status = record.status
        grpc.pRPC.pop(umsg.id, None)
