"""Serial Execution (Section 4.4.5): one call at a time at the server.

Needed because the checkpoint-based Atomic Execution technique "only works
if calls are processed one at a time by the server"; also useful on its
own for servers with non-reentrant procedures.

The paper's pseudocode does ``P(serial)`` in a default-priority
``msg_from_net`` handler and ``V(serial)`` on ``REPLY_FROM_SERVER``.
Registered at the default (lowest) priority that P would run *after* RPC
Main has already executed the call, and with ordering micro-protocols or
duplicate drops the P/V pairing leaks the semaphore.  We therefore
implement the property at its semantic site: this micro-protocol installs
the composite's ``serial`` semaphore as the *execution gate* that
``forward_up`` acquires around every server-procedure execution
(deviation #6 in DESIGN.md).  Mutual exclusion is released in a
``finally``, so orphan kills and crashes cannot wedge the server.
"""

from __future__ import annotations

from repro.core.microprotocols.base import GRPCMicroProtocol

__all__ = ["SerialExecution"]


class SerialExecution(GRPCMicroProtocol):
    """Serializes server-procedure executions via the execution gate."""

    protocol_name = "Serial_Execution"

    def configure(self) -> None:
        grpc = self.grpc
        grpc.execution_gate = grpc.serial

    def reset(self) -> None:
        # The composite rebuilt `serial` fresh during crash teardown;
        # configure() re-installs it as the gate.
        return

    def unconfigure(self) -> None:
        # Swapped out mid-run: clear the gate so executions stop
        # serializing.  The composite is drained at this point, so no
        # task is holding (or waiting on) the semaphore.
        grpc = self.grpc
        if grpc.execution_gate is grpc.serial:
            grpc.execution_gate = None
