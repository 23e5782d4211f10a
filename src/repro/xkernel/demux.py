"""Payload demultiplexing above the transport.

The x-kernel demultiplexes arriving messages to the right upper protocol;
our reduced UPI does the same in two stages.  A :class:`TypeDemux` sits
directly on the transport and routes each arrived payload by its Python
type — gRPC traffic (:class:`~repro.core.messages.NetMsg`) one way, the
heartbeat membership detector's ``Heartbeat`` payloads another.  When a
node hosts *several* gRPC composites (one per named service of a
:class:`~repro.core.deployment.Deployment`), a :class:`ServiceDemux`
sits between the type demux and the composites and routes each ``NetMsg``
by the service key stamped into it on transmission — the x-kernel's
"relative protocol id" reduced to a service name.  Pushes from any of the
uppers pass straight down through both stages.

Both stages only route, so they answer ``resolve_up`` and
``resolve_down``: no arrival or send passes through either as a
coroutine of its own.  The node below caches each resolved route, so
every change of a route here (``attach``, ``detach``, a new
``default_upper``) tells it (:meth:`~repro.xkernel.upi.Protocol.
rewired`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Type

from repro.errors import ReproError
from repro.xkernel.upi import Protocol

__all__ = ["TypeDemux", "ServiceDemux"]


class _Demux(Protocol):
    """A routing-only layer: a pop goes to the resolved upper, a push
    to the lower."""

    async def pop(self, payload: Any, *args: Any, **kwargs: Any) -> Any:
        target = self.resolve_up(payload)
        if target is None:
            # Unclaimed payloads are dropped silently, like a port with
            # no listener.
            return None
        return await target.pop(payload, *args, **kwargs)

    def resolve_down(self) -> Protocol:
        return self if self.lower is None else self.lower.resolve_down()


class TypeDemux(_Demux):
    """Routes popped payloads by their Python type."""

    def __init__(self, name: str = "demux"):
        super().__init__(name)
        self._routes: Dict[Type, Protocol] = {}

    def attach(self, payload_type: Type, upper: Protocol) -> None:
        """Deliver payloads of ``payload_type`` (or subclasses) to
        ``upper``; also wires ``upper.lower`` to this demux for pushes."""
        self._routes[payload_type] = upper
        upper.lower = self
        self.rewired()

    def resolve_up(self, payload: Any) -> Optional[Protocol]:
        cls = type(payload)
        for payload_type, upper in self._routes.items():
            if issubclass(cls, payload_type):
                return upper.resolve_up(payload)
        return None


class ServiceDemux(_Demux):
    """Routes popped payloads by their ``service`` key.

    Sits between a :class:`TypeDemux` and the per-service gRPC composites
    of a node that hosts more than one.  Each composite stamps its
    service name into every wire message it transmits
    (:meth:`repro.core.grpc.GroupRPC.net_push`), so the receiving side
    can hand the payload to the composite configured for that service —
    which may run an entirely different micro-protocol stack than its
    neighbours on the same node.

    Payloads whose key matches no route fall back to the first attached
    service (messages from hand-built stacks predating service keys), so
    a single-service node behaves exactly as if the composite sat on the
    type demux directly.
    """

    def __init__(self, name: str = "services"):
        super().__init__(name)
        self._routes: Dict[str, Protocol] = {}
        self._default: Optional[Protocol] = None

    @property
    def default_upper(self) -> Optional[Protocol]:
        """Where unkeyed/unknown payloads go; defaults to the first
        attached upper, assignable for explicit control."""
        return self._default

    @default_upper.setter
    def default_upper(self, upper: Optional[Protocol]) -> None:
        self._default = upper
        self.rewired()

    def attach(self, service: str, upper: Protocol) -> None:
        """Deliver payloads stamped with ``service`` to ``upper``; also
        wires ``upper.lower`` to this demux for pushes."""
        if service in self._routes:
            raise ReproError(
                f"{self.name}: service {service!r} is already attached")
        self._routes[service] = upper
        upper.lower = self
        if self._default is None:
            self._default = upper
        self.rewired()

    def detach(self, service: str) -> None:
        upper = self._routes.pop(service, None)
        if upper is self._default:
            self._default = next(iter(self._routes.values()), None)
        self.rewired()

    def services(self) -> List[str]:
        return sorted(self._routes)

    def route(self, service: str) -> Optional[Protocol]:
        return self._routes.get(service)

    def resolve_up(self, payload: Any) -> Optional[Protocol]:
        upper = self._routes.get(getattr(payload, "service", ""),
                                 self._default)
        return None if upper is None else upper.resolve_up(payload)
