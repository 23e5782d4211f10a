"""Micro-protocols and composite protocols (Section 3).

A **micro-protocol** is "a collection of event handlers, which are
procedure-like segments of code that are invoked when an event occurs";
a **composite protocol** is "the object formed by the linking of a
collection of micro-protocols and associated framework".  The composite
exports the x-kernel Uniform Protocol Interface so it composes
hierarchically with other protocols, "even though its internal structure
is richer than a standard x-kernel protocol".

:class:`MicroProtocol` is the base class all of Section 4's
micro-protocols derive from; :class:`CompositeProtocol` owns the
:class:`~repro.core.events.EventBus` and the shared data the
micro-protocols operate on.
"""

from __future__ import annotations

from typing import (Any, Awaitable, Callable, Hashable, Iterable, List,
                    Optional)

from repro.core.events import EventBus, Handler, Registration
from repro.errors import ConfigurationError
from repro.runtime.sim_runtime import SimRuntime
from repro.xkernel.upi import Protocol

__all__ = ["MicroProtocol", "CompositeProtocol"]


class MicroProtocol:
    """Base class for micro-protocols.

    Subclasses implement :meth:`configure`, registering their event
    handlers with the framework — the moral equivalent of the
    ``register(...)`` statements at the bottom of each micro-protocol in
    the paper's pseudocode.  Construction parameters (timeouts, acceptance
    limits, collation functions) are ordinary ``__init__`` arguments.
    """

    #: Human-readable name; doubles as the configuration-graph key.
    protocol_name: str = ""

    #: The composite's event bus and runtime, resolved once by
    #: :meth:`attach` (handlers reach them on every message).
    bus: EventBus
    runtime: SimRuntime
    #: The framework operations ``trigger(event, *args)`` and
    #: ``cancel_event()`` (Section 3): the bus's own bound methods, set
    #: by :meth:`attach`, so a micro-protocol's trigger costs no
    #: coroutine of its own.
    trigger: Callable[..., Awaitable[bool]]
    cancel_event: Callable[[], None]

    def __init__(self) -> None:
        self.composite: Optional["CompositeProtocol"] = None
        #: Set by :meth:`detach` when a live adaptation swaps this
        #: instance out.  In-flight handlers of a detached instance may
        #: still be unwinding; their re-registration attempts (a
        #: self-rearming TIMEOUT loop, say) are dropped here, at the
        #: instance, so they cannot ghost handlers back into the bus
        #: even when a same-named replacement has already registered.
        self.detached = False

    # -- wiring ----------------------------------------------------------

    @property
    def name(self) -> str:
        return self.protocol_name or type(self).__name__

    def attach(self, composite: "CompositeProtocol") -> None:
        if self.composite is not None:
            raise ConfigurationError(
                f"{self.name} is already attached to a composite")
        self.composite = composite
        bus = self.bus = composite.bus
        self.runtime = composite.runtime
        self.trigger = bus.trigger
        self.cancel_event = bus.cancel_event
        self.configure()

    def configure(self) -> None:
        """Register event handlers; runs when attached and on reboot."""
        raise NotImplementedError

    def reset(self) -> None:
        """Reinitialize *volatile* state after a site crash.

        Called by the composite during recovery, just before
        :meth:`configure` re-installs the handlers, modelling the process
        being relinked from scratch at reboot.  State the paper marks
        ``stable`` (e.g. Atomic Execution's checkpoint addresses) must NOT
        be cleared here.  Default: nothing to reset.
        """

    def unconfigure(self) -> None:
        """Undo :meth:`configure`'s effects on the composite's *shared*
        state when this instance is swapped out of a running composite.

        Handler deregistration is the framework's job
        (:meth:`EventBus.retire_owner`); this hook is only for side
        effects configure() left outside the bus — an installed execution
        gate, a declared HOLD property.  Default: nothing to undo.
        """

    def detach(self) -> None:
        """Remove this instance from its composite (live adaptation).

        Runs :meth:`unconfigure`, retires every bus registration tagged
        with this instance's name, and marks the instance detached so
        in-flight handlers cannot re-register.  The composite reference
        is kept: handlers still unwinding may touch shared state through
        it.  A detached instance is never re-attached — adaptation
        builds fresh instances.
        """
        if self.composite is None or self.detached:
            return
        self.detached = True
        self.unconfigure()
        self.bus.retire_owner(self.name)

    # -- framework operations (Section 3) --------------------------------

    def register(self, event: str, handler: Handler,
                 priority: Optional[float] = None, *,
                 kinds: Optional[Iterable[Hashable]] = None
                 ) -> Registration:
        """Register ``handler``; ``kinds`` declares the message kinds it
        acts on (see :meth:`EventBus.register`).  Without a priority the
        handler registers at its :meth:`rank`."""
        if self.detached:
            # A swapped-out instance's handler unwinding after detach():
            # hand back an inert registration instead of re-wiring it.
            return Registration(event, handler, priority or 0.0, -1,
                                self.name, kinds)
        if priority is None:
            priority = self.rank(event, handler)
        # The owner tag attributes dispatch records (and per-handler
        # virtual-time costs) to this micro-protocol in the obs layer.
        return self.bus.register(event, handler, priority, owner=self.name,
                                 kinds=kinds)

    def rank(self, event: str, handler: Handler) -> Optional[float]:
        """Priority for a registration that gives none (``None``: last)."""
        return None

    def deregister(self, event: str, handler: Handler) -> bool:
        return self.bus.deregister(event, handler)


class CompositeProtocol(Protocol):
    """A framework instance plus the micro-protocols linked into it.

    Exposes the x-kernel UPI (push/pop) so the composite can sit in a
    protocol stack between the user protocol and the transport.  Concrete
    composites (:class:`repro.core.grpc.GroupRPC`) add the shared data
    structures their micro-protocols need.
    """

    def __init__(self, name: str, runtime: SimRuntime,
                 spawner: Optional[Any] = None):
        super().__init__(name)
        self.runtime = runtime
        self.bus = EventBus(runtime, spawner)
        self.micro_protocols: List[MicroProtocol] = []
        # Resolved once at construction (attach-time check; ``None``
        # means tracing is disabled and no span code runs).
        self.obs = runtime.obs

    def add(self, *micros: MicroProtocol) -> "CompositeProtocol":
        """Link micro-protocols into this composite (order preserved).

        This is the paper's parallel composition operator ``||``: each
        micro-protocol's ``configure`` runs, installing its handlers.
        """
        for micro in micros:
            self.micro_protocols.append(micro)
            micro.attach(self)
            if self.obs is not None:
                self.obs.record_event("micro.attach", node=self.bus.node_id,
                                      micro=micro.name,
                                      composite=self.name)
        return self

    def micro(self, name: str) -> MicroProtocol:
        """Look up a linked micro-protocol by name."""
        for micro in self.micro_protocols:
            if micro.name == name:
                return micro
        raise KeyError(name)

    def has_micro(self, name: str) -> bool:
        return any(m.name == name for m in self.micro_protocols)
