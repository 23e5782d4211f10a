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
Inbound, the transport resolves the route through the demuxes in one
walk and awaits the target's ``pop`` directly; a :class:`~repro.net.
wire.WireBatch` envelope is unbatched into one task per payload, so
everything above this layer is batching-agnostic.
"""

from __future__ import annotations

from typing import Iterable, Union

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
        pipeline = self.fabric.pipeline
        if isinstance(dest, (Group, list, tuple, set, frozenset)):
            await pipeline.multicast(self.node.pid, dest, payload)
        else:
            await pipeline.send(self.node.pid, dest, payload)

    async def handle_arrival(self, envelope: Envelope) -> None:
        """Deliver one arrived envelope up the stack (its own task).

        A coalesced envelope fans out into one task per inner message,
        preserving arrival order at the same instant while keeping the
        per-message execution model: one blocked handler chain must not
        stall the rest of the batch.  Payloads no route claims are
        dropped.
        """
        payload = envelope.payload
        if isinstance(payload, WireBatch):
            for i, msg in enumerate(payload):
                target = self.upper.resolve_up(msg)
                if target is not None:
                    self.node.scope.spawn(
                        target.pop(msg, envelope.src),
                        name=f"{self.node.name}-msg-{envelope.seq}.{i}",
                        daemon=True)
            return
        target = self.upper.resolve_up(payload)
        if target is not None:
            await target.pop(payload, envelope.src)
