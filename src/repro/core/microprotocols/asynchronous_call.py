"""Asynchronous Call (Section 4.4.2): non-blocking call semantics.

The caller's ``Call`` returns as soon as RPC Main has transmitted it; the
result is retrieved later with a ``Request`` message
(:meth:`repro.core.grpc.GroupRPC.request`), which returns immediately if
the result is already pending and otherwise blocks until the call
terminates.
"""

from __future__ import annotations

from repro.core.grpc import CALL_FROM_USER
from repro.core.messages import UserMsg, UserOp
from repro.core.microprotocols.base import GRPCMicroProtocol
from repro.errors import UnknownCallError

__all__ = ["AsynchronousCall"]


class AsynchronousCall(GRPCMicroProtocol):
    """Returns immediately on Call; blocks only on an explicit Request."""

    protocol_name = "Asynchronous_Call"

    def configure(self) -> None:
        self.register(CALL_FROM_USER, self.msg_from_user)

    async def msg_from_user(self, umsg: UserMsg) -> None:
        if umsg.type is not UserOp.REQUEST:
            return
        grpc = self.grpc
        record = grpc.pRPC.get(umsg.id)
        if record is None:
            raise UnknownCallError(
                f"no pending call with id {umsg.id} (already redeemed, "
                f"never issued, or lost in a crash)")
        await record.sem.acquire()
        umsg.args = record.args
        umsg.status = record.status
        grpc.pRPC.pop(umsg.id, None)
