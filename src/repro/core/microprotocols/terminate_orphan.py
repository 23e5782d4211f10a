"""Terminate Orphan (Section 4.4.7): kill orphans on detection.

"The micro-protocol Terminate Orphan implements the second option of
immediately killing orphans as soon as they are detected.  Detection can
be based either on receiving a message from a newer incarnation of the
client ... or by periodically probing the client.  Terminate Orphan uses
the first approach."

The paper's ``my_thread()``/``kill(thread)`` operations map to runtime
task handles and cancellation.  One refinement over the pseudocode: the
paper snapshots the thread at message-arrival time, but under ordering
micro-protocols a gated call executes later in a *different* task (the
predecessor's reply chain), so we kill through ``ServerRecord.executor``
— the handle of whichever task is actually running the procedure — and
drop the not-yet-executing records outright (deviation #9 in DESIGN.md).
The paper's unconditional ``V(serial)`` after each kill is subsumed by
``forward_up`` releasing the execution gate in a ``finally``.

Note the interplay the paper's taxonomy predicts: killing a procedure
mid-flight can leave partial stable state unless Atomic Execution is also
configured — the orphan-policy benchmarks exercise exactly this.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.core.events import CANCEL
from repro.core.grpc import CALL_ABORTED, MSG_FROM_NETWORK, REPLY_FROM_SERVER
from repro.core.messages import CallKey, NetMsg, NetOp
from repro.core.microprotocols.base import GRPCMicroProtocol
from repro.net.message import ProcessId

__all__ = ["TerminateOrphan"]


class TerminateOrphan(GRPCMicroProtocol):
    """Kills a client's in-flight executions when it reincarnates."""

    protocol_name = "Terminate_Orphan"

    def __init__(self) -> None:
        super().__init__()
        self.client_inc: Dict[ProcessId, int] = {}
        #: How many orphan executions have been killed (experiment metric).
        self.kills = 0

    def reset(self) -> None:
        self.client_inc.clear()

    def configure(self) -> None:
        # RPC Main records each call's executor only for a killer.
        self.grpc.kills_orphans = True
        self.register(MSG_FROM_NETWORK, self.msg_from_net,
                      kinds=(NetOp.CALL,))
        self.register(REPLY_FROM_SERVER, self.handle_reply)

    def unconfigure(self) -> None:
        self.grpc.kills_orphans = False

    async def msg_from_net(self, msg: NetMsg) -> Any:
        client = msg.sender
        known = self.client_inc.get(client)
        if known is None:
            self.client_inc[client] = msg.inc
            return
        if known > msg.inc:
            # A message from a dead incarnation: drop it.
            return CANCEL
        if known < msg.inc:
            # The client reincarnated: everything still pending from the
            # old incarnation is an orphan.
            self.client_inc[client] = msg.inc
            await self._kill_orphans(client, msg.inc)

    async def _kill_orphans(self, client: ProcessId, new_inc: int) -> None:
        grpc = self.grpc
        for record in list(grpc.sRPC.values()):
            if record.client != client or record.inc >= new_inc:
                continue
            if record.executor is not None:
                grpc.runtime.cancel(record.executor)
                self.kills += 1
            grpc.sRPC.pop(record.key, None)
            await self.trigger(CALL_ABORTED, record.key)

    async def handle_reply(self, key: CallKey) -> None:
        # Execution finished normally; nothing to track (the executor
        # handle is cleared by forward_up).  Present to mirror the paper's
        # handler structure and keep the registration table comparable.
        return
