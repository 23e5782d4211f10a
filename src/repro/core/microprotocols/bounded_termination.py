"""Bounded Termination (Section 4.4.3): calls terminate within a bound.

"Bounded termination states that a call always terminates and the client
thread returns within a bounded, specified time.  If the server has not
responded by the deadline, the call returns with an indication of
failure."  A call still WAITING ``timebound`` seconds after it was
issued is marked TIMEOUT and its client's semaphore released; an
answered call keeps its OK.

As in the paper, expiries are paired with calls through a FIFO: one
instance has one bound, so issue order is deadline order, and ``pRPC``
(filled as calls are issued; ``NEW_RPC_CALL`` runs in the issuing step)
is that FIFO.  Each call is stamped with its deadline and this instance,
which keeps one TIMEOUT armed, for its oldest WAITING call.  A fire
expires every stamped WAITING call past its deadline, passes over calls
no longer WAITING, and re-arms for the first deadline still ahead
(deviation #3 in DESIGN.md).  The delay ``deadline - now`` is exact: a
fire happens at ``now >= timebound`` and the head deadline is at most
``now + timebound <= 2 * now``, so by Sterbenz's lemma the kernel's
``now + (deadline - now)`` is the deadline bit for bit.
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
        #: Whether this instance's one TIMEOUT is on the bus.
        self.armed = False

    def configure(self) -> None:
        # Attached, or relinked after a crash cleared the bus: nothing of
        # this instance is armed, so the next call arms.
        self.armed = False
        self.register(NEW_RPC_CALL, self.handle_new_call)

    async def handle_new_call(self, call_id: int) -> None:
        record = self.grpc.pRPC.get(call_id)
        if record is None:
            return
        record.deadline = self.runtime.kernel._now + self.timebound
        record.bound_by = self
        if not self.armed:
            self.armed = True
            self.register(TIMEOUT, self.handle_timeout, self.timebound)

    async def handle_timeout(self) -> None:
        self.armed = False
        now = self.runtime.kernel._now
        for record in self.grpc.pRPC.values():
            if record.bound_by is not self \
                    or record.status is not Status.WAITING:
                continue
            if record.deadline > now:
                self.armed = True
                self.register(TIMEOUT, self.handle_timeout,
                              record.deadline - now)
                return
            record.status = Status.TIMEOUT
            record.sem.release()
