"""Acceptance (Section 4.4.5): how many servers must respond.

"In order for a call to be accepted, it must be executed successfully by
at least Acceptance_Limit members of the server group ... If the
acceptance limit is greater than the number of group members, the number
of required responses is set to the size of the group."

When a membership service is attached, servers that fail while a call is
pending are counted as done ("the client ... is willing to settle for the
responses from all servers that are still functioning"); without one,
"the set Members will remain constant" and a call completes only when
enough responses arrive or Bounded Termination expires it — both behaviors
straight from the paper.

Acceptance is what releases the client's per-call semaphore with status
OK; it is therefore part of the minimal functional configuration.
"""

from __future__ import annotations

from typing import Any

from repro.core.events import CANCEL
from repro.core.grpc import MEMBERSHIP_CHANGE, MSG_FROM_NETWORK, NEW_RPC_CALL
from repro.core.messages import MemChange, NetMsg, NetOp, Status
from repro.core.microprotocols.base import GRPCMicroProtocol
from repro.net.message import ProcessId

__all__ = ["Acceptance", "ALL"]

#: Sentinel acceptance limit meaning "every (live) group member".
ALL = 10 ** 9


class Acceptance(GRPCMicroProtocol):
    """Completes calls once ``acceptance_limit`` members have replied."""

    protocol_name = "Acceptance"

    def __init__(self, acceptance_limit: int = 1):
        super().__init__()
        if acceptance_limit < 1:
            raise ValueError("acceptance limit must be >= 1")
        self.acceptance_limit = acceptance_limit

    def configure(self) -> None:
        self.register(NEW_RPC_CALL, self.handle_new_call)
        self.register(MEMBERSHIP_CHANGE, self.server_failure)
        self.register(MSG_FROM_NETWORK, self.msg_from_net,
                      kinds=(NetOp.REPLY,))

    async def handle_new_call(self, call_id: int) -> None:
        grpc = self.grpc
        record = grpc.pRPC.get(call_id)
        if record is None:
            return
        alive = 0
        for pid, entry in record.pending.items():
            if grpc.is_member_alive(pid):
                entry.done = False
                alive += 1
            else:
                entry.done = True
        record.nres = min(self.acceptance_limit, alive)

    async def msg_from_net(self, msg: NetMsg) -> Any:
        record = self.client_record_for(msg)
        if record is not None and msg.sender in record.pending \
                and not record.pending[msg.sender].done:
            record.pending[msg.sender].done = True
            record.nres -= 1
            if record.nres == 0:
                record.status = Status.OK
                record.sem.release()
        else:
            # Late, duplicate, or stale reply: stop the chain so Collation
            # does not double-count it.
            return CANCEL

    async def server_failure(self, who: ProcessId, change: MemChange) -> None:
        if change is not MemChange.FAILURE:
            return
        for record in list(self.grpc.pRPC.values()):
            entry = record.pending.get(who)
            if entry is not None and not entry.done:
                entry.done = True
                record.nres -= 1
                if record.nres == 0 and record.status is Status.WAITING:
                    # Every still-functioning server has responded; the
                    # paper accepts the call at this point (membership
                    # semantics) even if fewer than acceptance_limit
                    # replies were collected.
                    record.status = Status.OK
                    record.sem.release()
