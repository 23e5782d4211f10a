"""The unreliable transport protocol at the bottom of every stack.

This is the paper's "unreliable communication" composite/simple protocol:
it provides "the transport service needed to deliver messages between gRPC
on the client and server sites" with no reliability guarantees of its own —
making messages arrive despite omission failures is exactly the job of the
Reliable Communication micro-protocol above it.

``push`` accepts a :class:`~repro.net.message.ProcessId`, a
:class:`~repro.net.message.Group`, or any iterable of process ids as the
destination, covering the paper's ``Net.push(p, msg)`` and
``Net.push(msg.server, msg)`` uses uniformly.

Outbound messages are handed to the fabric's
:class:`~repro.net.wire.WirePipeline` — the single send path shared by
every protocol stack — so link-level coalescing, backpressure and the
control fast lane apply uniformly no matter which composite is sending.
The pipeline decides whether a push has to wait (:meth:`~repro.net.wire.
WirePipeline.submit`); through a pass-through pipeline it reaches the
fabric with no coroutine of the pipeline's own.

Inbound, :meth:`UnreliableTransport.arrival` turns a delivered envelope
into the coroutine the node starts for it.  A single payload's route is
resolved through the demuxes in one walk and the arrival runs the
target's ``pop`` itself, with no transport coroutine in between; a
:class:`~repro.net.wire.WireBatch` envelope is unbatched by
:meth:`UnreliableTransport.handle_arrival` into one task per payload,
so everything above this layer is batching-agnostic.
"""

from __future__ import annotations

from typing import Coroutine, Iterable, Optional, Union

from repro.net.fabric import NetworkFabric
from repro.net.message import Envelope, Group, ProcessId
from repro.net.node import Node
from repro.net.wire import WireBatch
from repro.xkernel.upi import Protocol

__all__ = ["UnreliableTransport"]

Destination = Union[ProcessId, Group, Iterable[ProcessId]]


class UnreliableTransport(Protocol):
    """x-kernel leaf protocol binding a node's stack to the fabric."""

    def __init__(self, node: Node):
        super().__init__(f"transport@{node.pid}")
        self.node = node
        self.fabric: NetworkFabric = node.fabric
        node.transport = self

    async def push(self, dest: Destination, payload: object) -> None:
        """Send ``payload`` toward ``dest`` via the wire pipeline.

        May be lost; may block briefly when the pipeline's per-link
        in-flight budget is exhausted (backpressure), never otherwise.
        """
        if not self.node.up:
            # A crashed site cannot transmit; tasks are normally cancelled
            # before reaching here, but timer callbacks may race the crash.
            return
        staged = self.fabric.pipeline.submit(self.node.pid, dest, payload)
        if staged is not None:
            await staged

    def arrival(self, envelope: Envelope) -> Optional[Coroutine]:
        """The coroutine that carries one arrived envelope up the stack
        (the node starts it, and it is a task only if it parks), or
        ``None`` when no route claims the payload: it is dropped.

        A single payload goes straight to the ``pop`` of the protocol
        its route resolves to; a coalesced envelope to
        :meth:`handle_arrival`.
        """
        payload = envelope.payload
        if payload.__class__ is WireBatch:
            return self.handle_arrival(envelope)
        target = self.upper.resolve_up(payload)
        if target is None:
            return None
        return target.pop(payload, envelope.src)

    async def handle_arrival(self, envelope: Envelope) -> None:
        """Unbatch a coalesced envelope (its own task).

        The batch fans out into one task per inner message, preserving
        arrival order at the same instant while keeping the per-message
        execution model: one blocked handler chain must not stall the
        rest of the batch.  Payloads no route claims are dropped.
        """
        for i, msg in enumerate(envelope.payload):
            target = self.upper.resolve_up(msg)
            if target is not None:
                self.node.scope.spawn(
                    target.pop(msg, envelope.src),
                    name=f"{self.node.name}-msg-{envelope.seq}.{i}",
                    daemon=True)
