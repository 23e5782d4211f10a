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

Inbound, the node looks each arrived payload up in its arrival table
(:meth:`~repro.net.node.Node.deliver`) and runs the claimant's ``pop``
itself, with no transport coroutine in between; a
:class:`~repro.net.wire.WireBatch` envelope is unbatched by
:meth:`UnreliableTransport.handle_arrival` into one task per payload,
routed through the same table, so everything above this layer is
batching-agnostic.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Union

from repro.net.fabric import NetworkFabric
from repro.net.message import Envelope, Group, ProcessId
from repro.net.node import Node
from repro.xkernel.upi import Protocol

__all__ = ["UnreliableTransport"]

Destination = Union[ProcessId, Group, Iterable[ProcessId]]


class UnreliableTransport(Protocol):
    """x-kernel leaf protocol binding a node's stack to the fabric."""

    def __init__(self, node: Node):
        super().__init__(f"transport@{node.pid}")
        self.node = node
        self.fabric: NetworkFabric = node.fabric
        #: :meth:`push` as a plain call, resolved once: the wire
        #: pipeline's :meth:`~repro.net.wire.WirePipeline.submit` from
        #: this site.  ``submit(dest, payload)`` puts the message on the
        #: way and returns ``None``, or returns the coroutine to await
        #: when a pipeline stage (a coalescing buffer, a link budget)
        #: takes it over.  A crashed site sends nothing.
        self.submit = partial(self.fabric.pipeline.submit, node.pid)
        node.transport = self

    async def push(self, dest: Destination, payload: object) -> None:
        """Send ``payload`` toward ``dest`` via the wire pipeline.

        May be lost; may block briefly when the pipeline's per-link
        in-flight budget is exhausted (backpressure), never otherwise.
        """
        staged = self.submit(dest, payload)
        if staged is not None:
            await staged

    async def handle_arrival(self, envelope: Envelope) -> None:
        """Unbatch a coalesced envelope (its own task).

        The batch fans out into one task per inner message, preserving
        arrival order at the same instant while keeping the per-message
        execution model: one blocked handler chain must not stall the
        rest of the batch.  Payloads no protocol claims are dropped.
        """
        route = self.node.route
        for i, msg in enumerate(envelope.payload):
            target = route(msg)
            if target is not None:
                self.node.scope.spawn(
                    target.pop(msg, envelope.src),
                    name=f"{self.node.name}-msg-{envelope.seq}.{i}",
                    daemon=True)
