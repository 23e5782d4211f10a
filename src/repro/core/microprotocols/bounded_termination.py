"""Bounded Termination (Section 4.4.3): calls terminate within a bound.

"Bounded termination states that a call always terminates and the client
thread returns within a bounded, specified time.  If the server has not
responded by the deadline, the call returns with an indication of
failure."  Implemented, as in the paper, with a per-call one-shot TIMEOUT
of ``timebound`` seconds that marks the call TIMEOUT and releases the
client's semaphore if it is still waiting.

The paper pairs timer expiries with calls through a FIFO queue, which is
correct only because its timers all share one duration; we bind the call
id into the timeout handler instead (deviation #3 in DESIGN.md).
"""

from __future__ import annotations

from repro.core.events import TIMEOUT
from repro.core.grpc import NEW_RPC_CALL
from repro.core.messages import Status
from repro.core.microprotocols.base import GRPCMicroProtocol

__all__ = ["BoundedTermination"]


class BoundedTermination(GRPCMicroProtocol):
    """Fails calls that have not completed within ``timebound`` seconds."""

    protocol_name = "Bounded_Termination"

    def __init__(self, timebound: float = 1.0):
        super().__init__()
        if timebound <= 0:
            raise ValueError("termination bound must be positive")
        self.timebound = timebound

    def configure(self) -> None:
        self.register(NEW_RPC_CALL, self.handle_new_call)

    async def handle_new_call(self, call_id: int) -> None:
        async def handle_timeout(cid: int = call_id) -> None:
            record = self.grpc.pRPC.get(cid)
            if record is not None and record.status is Status.WAITING:
                record.status = Status.TIMEOUT
                record.sem.release()

        reg = self.register(TIMEOUT, handle_timeout, self.timebound)
        record = self.grpc.pRPC.get(call_id)
        if record is not None:
            # Disarm the bound the moment the call record retires: a
            # completed call must not leave its expiry armed for the rest
            # of ``timebound``.  With long bounds and high call rates the
            # armed-but-moot timers otherwise dominate the kernel's timer
            # heap (one per call, live for the full bound) and every
            # heap push/pop pays for them.
            bus = self.bus
            record.add_disposer(lambda: bus.disarm(reg))
