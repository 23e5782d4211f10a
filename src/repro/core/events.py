"""Event registration, triggering and handler dispatch (Section 3).

This is the runtime the paper's composite protocols are linked against.
It provides the four framework operations of Section 3, the fourth as a
handler's return value:

``register(event, handler, priority)``
    Request that ``handler`` run when ``event`` occurs.  For sequential
    events, handlers execute in ascending priority order; omitting the
    priority registers at the *lowest* priority (runs last).  Registering
    for the special :data:`TIMEOUT` event interprets the priority argument
    as a time interval and arms a **one-shot** timer, exactly as in the
    paper.  gRPC micro-protocols pass their rank in ``HANDLER_ORDER``.

``trigger(event, *args)``
    Execute every handler registered for ``event``, passing ``args``.
    Dispatch is *sequential and blocking*: the handlers run one after
    another in the triggering task, and ``trigger`` returns when the last
    one finishes (or the event is cancelled).

``deregister(event, handler)``
    Reverse a registration (including a pending TIMEOUT).

``CANCEL``
    A handler cancels the rest of the event it was invoked for by
    returning :data:`CANCEL`: the remaining handlers of that occurrence
    are skipped and ``trigger`` returns ``False``.  The paper's
    micro-protocols call ``cancel_event`` and then ``exit``; here that
    pair is one ``return CANCEL`` (DESIGN.md §3 deviation 12), so no
    dispatch needs a record of its own to be cancellable.

The paper's model also defines the other dispatch modes: "the invocation
of event handlers ... can be sequential ... or concurrent — performed
concurrently with each event handler given its own thread of control.
The invocation itself can be blocking ... or non-blocking".  All four
combinations are provided (:meth:`EventBus.trigger`,
:meth:`EventBus.trigger_nonblocking`,
:meth:`EventBus.trigger_concurrent`); the micro-protocols of Section 4
use only blocking-sequential dispatch, and concurrency across *messages*
comes from each network arrival dispatching in its own thread of control.
Cancelling affects only sequential dispatch, as the paper notes
("mostly useful for sequential events").

Dispatch resolves per registration what the composition fixes and pays
per message only for what varies.  A handler's trace name is fixed when
it registers (:attr:`Registration.name`), and so are the message kinds it
acts on (:attr:`Registration.kinds`): a trigger that names the kind of
its message (``trigger(event, msg, kind=msg.type)``) runs a chain
compiled once per ``(event, kind)`` that holds only the registrations
declaring that kind, plus every registration that declared none.  Every
dispatch — sequential, concurrent or expired TIMEOUT, observed or not —
runs the one body of :meth:`EventBus.trigger` off these compiled tables.
An instrumented bus adds, per handler it runs, one ``handler_enter``/
``handler_exit`` pair on the runtime's profiler, one clock read and one
recorder record (plus a ``cancel_event`` record for a handler that
returned :data:`CANCEL`).
"""

from __future__ import annotations

from bisect import insort
from functools import partial
from typing import (Any, Awaitable, Callable, Dict, FrozenSet, Hashable,
                    Iterable, List, Optional, Tuple)

from repro.errors import KernelError, NoCurrentTask
from repro.runtime.sim_runtime import SimRuntime

__all__ = ["EventBus", "TIMEOUT", "CANCEL", "LOWEST_PRIORITY",
           "Registration"]

#: The distinguished one-shot timer event (Section 3).
TIMEOUT = "TIMEOUT"

#: Returned by a handler to cancel the rest of its event; dispatch tests
#: for it with ``is``, so no other return value cancels.
CANCEL: Any = object()

#: Default priority: runs after every explicitly prioritized handler.
LOWEST_PRIORITY = 1_000_000

#: Handlers are async callables taking the trigger's positional arguments
#: and returning :data:`CANCEL` or anything else (``None``: continue).
Handler = Callable[..., Awaitable[Any]]


class Registration:
    """One (event, handler, priority) registration record."""

    __slots__ = ("event", "handler", "name", "priority", "seq", "timer",
                 "owner", "kinds")

    def __init__(self, event: str, handler: Handler, priority: float,
                 seq: int, owner: str = "",
                 kinds: Optional[Iterable[Hashable]] = None):
        self.event = event
        self.handler = handler
        #: Qualified handler name for trace records and profiler sites
        #: (stable across bound methods), resolved once here: ``repr``
        #: only for a callable that has no ``__qualname__``.
        name = getattr(handler, "__qualname__", None)
        self.name: str = repr(handler) if name is None else name
        self.priority = priority
        self.seq = seq
        self.timer: Any = None  # only for TIMEOUT registrations
        #: Name of the micro-protocol that registered the handler
        #: ("" for framework/application registrations); the obs layer
        #: attributes dispatch records and handler timings to it.
        self.owner = owner
        #: The message kinds the handler acts on, or ``None`` for every
        #: kind; a kind-naming trigger skips it for any other kind.
        self.kinds: Optional[FrozenSet[Hashable]] = \
            None if kinds is None else frozenset(kinds)

    def sort_key(self) -> Tuple[float, int]:
        return (self.priority, self.seq)


def _fuse(kernel: Any, handlers: Tuple[Handler, ...]) -> Callable[..., Any]:
    """One uninstrumented ``trigger(event, ...)`` over ``handlers``,
    compiled: the same order, the same return at the first
    :data:`CANCEL`."""

    async def run(*args: Any) -> bool:
        if kernel._current is None:
            raise NoCurrentTask("no task is currently executing")
        for handler in handlers:
            if await handler(*args) is CANCEL:
                return False
        return True
    return run


class EventBus:
    """Per-composite-protocol event registry and dispatcher."""

    def __init__(self, runtime: SimRuntime, spawner: Optional[Callable] = None):
        self.runtime = runtime
        # Expired TIMEOUT handlers run in fresh tasks created through this
        # spawner; composites owned by a node pass a node-scoped spawner so
        # a site crash also kills its in-flight timeout handlers.
        self._spawn = spawner or runtime.spawn
        self._handlers: Dict[str, List[Registration]] = {}
        # Precompiled dispatch tables: event -> priority-ordered tuple of
        # registrations.  Built lazily on first trigger, invalidated by
        # register/deregister/retire_owner/clear; ``trigger`` then
        # dispatches straight off the immutable tuple instead of copying
        # the handler list on every call (the tuple IS the snapshot).
        self._tables: Dict[str, Tuple[Registration, ...]] = {}
        # Kind chains: event -> kind -> the event's table filtered to the
        # registrations that act on ``kind``.  Built and dropped with the
        # event's own table.
        self._chains: Dict[str, Dict[Hashable,
                                     Tuple[Registration, ...]]] = {}
        # Compiled kind chains: event -> kind -> the one callable that
        # dispatches it (see :meth:`chains`).  Emptied in place, never
        # replaced, whenever the event's table is dropped.
        self._runs: Dict[str, Dict[Hashable, Callable[..., Any]]] = {}
        self._seq = 0
        # What runs is read off the kernel.
        self._kernel = runtime.kernel
        # Armed TIMEOUT registrations keyed by registration seq
        # (insertion-ordered), so an expiry leaves in O(1).
        self._timeout_regs: Dict[int, Registration] = {}
        # Observability: the recorder and the kernel profiler are
        # resolved ONCE here (attach-time check; see SimRuntime.attach_obs
        # and SimRuntime.attach_profiler).  ``None`` keeps every dispatch
        # on the untraced fast path.
        self._obs = runtime.obs
        self._prof = runtime.profiler
        #: Process id of the owning node, for trace attribution;
        #: composites bound to a node set this (-1 = unowned bus).
        self.node_id = -1

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(self, event: str, handler: Handler,
                 priority: Optional[float] = None, *,
                 owner: str = "",
                 kinds: Optional[Iterable[Hashable]] = None
                 ) -> Registration:
        """Register ``handler`` for ``event``.

        For ordinary events ``priority`` orders handlers (lower runs
        earlier; ``None`` means lowest).  For :data:`TIMEOUT`, ``priority``
        is the timeout interval in seconds and the handler will run exactly
        once, ``interval`` from now, unless deregistered first.
        ``owner`` names the registering micro-protocol for trace
        attribution (filled in by :meth:`MicroProtocol.register`).
        ``kinds`` declares the message kinds the handler acts on: a
        trigger naming another kind skips it.  ``None`` (the default)
        runs it for every kind, and a trigger that names no kind runs
        every registration.
        """
        self._seq += 1
        if event == TIMEOUT:
            if priority is None:
                raise KernelError("TIMEOUT registration requires an interval")
            reg = Registration(event, handler, float(priority), self._seq,
                               owner)
            reg.timer = self.runtime.call_later(
                float(priority), lambda: self._fire_timeout(reg))
            self._timeout_regs[reg.seq] = reg
            if self._obs is not None:
                self._obs.record_event(
                    "register", node=self.node_id, event=TIMEOUT,
                    owner=owner, handler=reg.name,
                    interval=float(priority))
            return reg
        if priority is None:
            priority = LOWEST_PRIORITY
        reg = Registration(event, handler, float(priority), self._seq,
                           owner, kinds)
        insort(self._handlers.setdefault(event, []), reg,
               key=Registration.sort_key)
        self._invalidate(event)
        if self._obs is not None:
            self._obs.record_event(
                "register", node=self.node_id, event=event, owner=owner,
                handler=reg.name, priority=float(priority))
        return reg

    def deregister(self, event: str, handler: Handler) -> bool:
        """Remove the first registration matching (event, handler).

        Returns True if a registration was removed.  Deregistering a
        pending TIMEOUT cancels its timer.
        """
        regs = self._timeout_regs.values() if event == TIMEOUT \
            else self._handlers.get(event, [])
        reg = next((reg for reg in regs if reg.handler == handler), None)
        if reg is None:
            return False
        if event == TIMEOUT:
            reg.timer.cancel()
            del self._timeout_regs[reg.seq]
        else:
            self._handlers[event].remove(reg)
            self._invalidate(event)
        if self._obs is not None:
            self._obs.record_event(
                "deregister", node=self.node_id, event=event,
                owner=reg.owner, handler=reg.name)
        return True

    def registrations(self, event: str) -> List[Registration]:
        """The current registrations for ``event`` in dispatch order."""
        return list(self._handlers.get(event, []))

    def registration_table(self) -> Dict[str, List[str]]:
        """Event -> ordered handler names; regenerates Figure 3's wiring."""
        table = {}
        for event, regs in sorted(self._handlers.items()):
            table[event] = [reg.name for reg in regs]
        return table

    # ------------------------------------------------------------------
    # Triggering
    # ------------------------------------------------------------------

    async def trigger(self, event: str, *args: Any,
                      kind: Optional[Hashable] = None,
                      _table: Optional[Tuple[Registration, ...]] = None
                      ) -> bool:
        """Run all handlers for ``event`` sequentially, in priority order.

        Returns ``True`` if every handler ran, ``False`` if some handler
        cancelled the event by returning :data:`CANCEL`.  The handler
        list is snapshotted at trigger time, so registrations made by
        handlers take effect from the next occurrence of the event (the
        precompiled table is an immutable tuple, so the snapshot is free:
        a registration mid-dispatch swaps in a new table while the
        in-flight loop keeps the old one).

        With ``kind``, only the registrations acting on that kind run
        (see :meth:`register`), off a chain compiled once per
        ``(event, kind)``; their order and :data:`CANCEL` are as in the
        full table.

        Instrumented and uninstrumented buses share this body; the
        recorder/profiler pair is tested once per trigger.  ``_table`` is
        the bus's own way in for an occurrence that has exactly one
        handler by construction (see :attr:`_dispatch`).
        """
        if _table is not None:
            table = _table
        elif kind is None:
            table = self._tables.get(event)
            if table is None:
                table = self._compile(event)
        else:
            try:
                table = self._chains[event][kind]
            except KeyError:
                table = self._compile_chain(event, kind)
        if not table:
            return True
        kernel = self._kernel
        if kernel._current is None:
            raise NoCurrentTask("no task is currently executing")
        obs = self._obs
        prof = self._prof
        if obs is not None or prof is not None:
            # The one instrumented bracket.  Dispatch is sequential in one
            # task, so a handler starts at the instant its predecessor
            # ended: one clock read per handler.
            now = self.runtime.now
            # A profiled arrival is a task from its first step.
            task_key = id(kernel._current)
            end = now()
            for reg in table:
                start = end
                if prof is not None:
                    prof.handler_enter(task_key, reg.owner, reg.name)
                try:
                    cancelled = await reg.handler(*args) is CANCEL
                finally:
                    end = now()
                    if prof is not None:
                        prof.handler_exit(task_key, end - start)
                if obs is not None:
                    if cancelled:
                        obs.record_event("cancel_event", node=self.node_id,
                                         event=event)
                    obs.record_handler(
                        event, reg.owner, reg.name, reg.priority,
                        start, end, node=self.node_id, cancelled=cancelled)
                if cancelled:
                    return False
            return True
        if len(table) == 1:
            # Single-handler case dominates micro-protocol composition.
            return await table[0].handler(*args) is not CANCEL
        for reg in table:
            if await reg.handler(*args) is CANCEL:
                return False
        return True

    #: ``trigger`` under the name the bus uses for its own one-handler
    #: occurrences — an expired TIMEOUT, one handler of a concurrent
    #: dispatch — which are not calls of the public entry point and so
    #: must not pass through whatever wraps or counts that.
    _dispatch = trigger

    def _compile(self, event: str) -> Tuple[Registration, ...]:
        """Build and cache the dispatch table for ``event``."""
        table = tuple(self._handlers.get(event, ()))
        self._tables[event] = table
        return table

    def _compile_chain(self, event: str,
                       kind: Hashable) -> Tuple[Registration, ...]:
        """Build and cache the chain of ``event`` for messages of
        ``kind``: its table without the registrations that declared
        other kinds."""
        chain = tuple(reg for reg in self._handlers.get(event, ())
                      if reg.kinds is None or kind in reg.kinds)
        self._chains.setdefault(event, {})[kind] = chain
        return chain

    def chains(self, event: str) -> Dict[Hashable, Callable[..., Any]]:
        """``event``'s compiled kind chains: kind -> ``run``, where
        ``run(*args)`` is the awaitable ``trigger(event, *args,
        kind=kind)`` would be.

        The mapping is live and the caller may keep it: a chain appears
        in it once :meth:`chain` compiles it and vanishes when any
        registration for ``event`` changes.  A dispatcher reads it per
        message and calls :meth:`chain` on a miss.
        """
        runs = self._runs.get(event)
        if runs is None:
            runs = self._runs[event] = {}
        return runs

    def chain(self, event: str, kind: Hashable) -> Callable[..., Any]:
        """Compile (once) and return the dispatch of ``event`` for
        messages of ``kind`` (see :meth:`chains`).

        On an uninstrumented bus it is one callable that runs the
        chain's handlers in table order and returns at the first that
        cancels: no keyword to parse, no table to look up, no
        registration to read.  An instrumented bus dispatches through
        :meth:`trigger`, so whatever wraps or counts that sees it; so
        does an empty chain, which has nothing to fuse.
        """
        try:
            table = self._chains[event][kind]
        except KeyError:
            table = self._compile_chain(event, kind)
        if table and self._obs is None and self._prof is None:
            run = _fuse(self._kernel, tuple(reg.handler for reg in table))
        else:
            run = partial(self.trigger, event, kind=kind)
        self.chains(event)[kind] = run
        return run

    def _invalidate(self, event: str) -> None:
        """Drop ``event``'s table and every kind chain built from it."""
        self._tables.pop(event, None)
        self._chains.pop(event, None)
        runs = self._runs.get(event)
        if runs:
            runs.clear()

    def trigger_nonblocking(self, event: str, *args: Any) -> None:
        """Sequential dispatch in a fresh task; the caller continues.

        The paper's non-blocking invocation: "the invoker continues
        execution without waiting".  Handler order and :data:`CANCEL`
        semantics are identical to :meth:`trigger`; only the caller's
        synchrony changes.
        """
        self._spawn(self.trigger(event, *args),
                    name=f"nb-{event}", daemon=True)

    async def trigger_concurrent(self, event: str, *args: Any,
                                 blocking: bool = True) -> None:
        """Run every registered handler in its own task.

        The paper's concurrent invocation: "performed concurrently with
        each event handler given its own thread of control".  With
        ``blocking=True`` the caller "waits until all the event handlers
        registered for the event have finished execution"; with
        ``blocking=False`` it continues immediately.  A concurrent handler
        that returns :data:`CANCEL` ends only its own chain — there is no
        shared sequence to abort.
        """
        handles = [
            self._spawn(self._dispatch(event, *args, _table=(reg,)),
                        name=f"cc-{event}-{reg.seq}", daemon=True)
            for reg in self.registrations(event)
        ]
        if blocking:
            for handle in handles:
                if handle is not None:
                    await self.runtime.join(handle)

    # ------------------------------------------------------------------
    # TIMEOUT plumbing
    # ------------------------------------------------------------------

    def _fire_timeout(self, reg: Registration) -> None:
        if self._timeout_regs.pop(reg.seq, None) is None:
            return
        # The expired handler runs as its own (cancellable) event.
        self._spawn(self._dispatch(TIMEOUT, _table=(reg,)),
                    name=f"timeout-{reg.seq}", daemon=True)

    # ------------------------------------------------------------------
    # Owner retirement (live adaptation)
    # ------------------------------------------------------------------

    def retire_owner(self, owner: str) -> int:
        """Remove every registration tagged ``owner``.

        The bus half of swapping a micro-protocol out of a running
        composite: its event handlers are deregistered and its pending
        TIMEOUTs disarmed (its unwinding handlers cannot re-register:
        the instance is detached).  Returns the number of registrations
        removed.  ``owner`` must be non-empty (framework registrations
        carry no owner and are never retired).
        """
        if not owner:
            raise KernelError("retire_owner() requires a non-empty owner")
        removed = 0
        for event, regs in list(self._handlers.items()):
            kept = [reg for reg in regs if reg.owner != owner]
            if len(kept) != len(regs):
                removed += len(regs) - len(kept)
                self._handlers[event] = kept
                self._invalidate(event)
        for seq, reg in list(self._timeout_regs.items()):
            if reg.owner == owner:
                reg.timer.cancel()
                del self._timeout_regs[seq]
                removed += 1
        if self._obs is not None:
            self._obs.record_event("retire_owner", node=self.node_id,
                                   owner=owner, removed=removed)
        return removed

    def pending_timeouts(self) -> int:
        """Number of armed TIMEOUT registrations (test/debug aid)."""
        return len(self._timeout_regs)

    def clear(self) -> None:
        """Drop every registration and cancel pending timers.

        Used when a node crashes: the composite protocol's volatile wiring
        is rebuilt from scratch on recovery.
        """
        self._handlers.clear()
        self._tables.clear()
        self._chains.clear()
        for runs in self._runs.values():
            runs.clear()
        for reg in self._timeout_regs.values():
            reg.timer.cancel()
        self._timeout_regs.clear()
