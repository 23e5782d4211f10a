"""The benchmark-owned layer tracer: a per-layer wall-clock ledger taken
from *outside* the program.

Nothing under ``src/`` knows this file exists.  The tracer reaches the
stack only through seams the program already offers to outsiders:

* ``SimRuntime.attach_profiler`` — the kernel's ``profile_hook`` (one
  call per task step) and the event bus's ``handler_enter`` /
  ``handler_exit`` pair around every micro-protocol handler;
* ``repro.stubs.marshal.install_profiler`` — per-call marshal /
  unmarshal byte counts and wall seconds;
* wrappers this file puts around *public* entry points of each layer
  (``Deployment.call``, ``GroupRPC.call``, ``WirePipeline.send``,
  ``NetworkFabric.send``, ``Node.deliver``, ``ShardRouter.route``,
  ``ReplicaGroup.admit`` ...), installed for the traced run only and
  removed again by :meth:`LayerTracer.installed`.

Attribution is *start to start* on a per-task layer stack: every event
(step start, layer enter, layer exit, timer fire) charges the wall time
since the previous event to the frame that was on top of the running
task's stack, then updates the stack.  Time therefore never falls
between two frames — the ledger sums to the traced wall by construction
— and a layer's figure is its **self** time: what it spent while none
of the layers it called into was on top.

Where the kernel's own time goes: a task parks through one of the
blocking primitives (``SimRuntime.sleep``/``join``, ``Semaphore.
acquire``, ``Event.wait``, ``Queue.get``), each wrapped as a ``sim``
frame.  The trap handling, the ready-queue/timer bookkeeping until the
next step starts, and the resumption back into the caller are thus
charged to ``sim``, not to the layer that happened to block.

A task's *base* frame (code running outside every wrapped entry point)
is named after the task: the benchmark's own lanes are ``bench``, the
receive loops and per-message tasks ``node``, heartbeat loops
``membership``, and so on; a task nobody recognises lands in ``other``,
which is what ``trace.ledger_coverage`` reports against.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Tuple

# Task-name prefix -> layer of the task's base frame (first match wins).
_BASE_FRAMES: Tuple[Tuple[str, str], ...] = (
    ("main", "bench"),
    ("client-", "bench"),
    ("bench-", "bench"),
    ("heartbeat@", "membership"),
    ("node-", "node"),
    ("timeout-", "events"),
    ("nb-", "events"),
    ("cc-", "events"),
    ("memchange-", "events"),
    ("recovery-event", "events"),
    ("placement-", "placement"),
    ("drain-", "placement"),
    ("resync-", "replication"),
)

_STACK_TAG = "perf.stack"


def _base_frame(task_name: str) -> str:
    for prefix, layer in _BASE_FRAMES:
        if task_name.startswith(prefix):
            return layer
    return "other"


class LayerTracer:
    """Start-to-start self-time ledger over per-task layer stacks.

    Doubles as the runtime's profiler object (``on_step`` /
    ``handler_enter`` / ``handler_exit``) and as the marshaller's
    (``on_marshal`` / ``on_unmarshal``).  When the deployment under
    test runs its own observatory, that profiler is kept as
    :attr:`inner` and fed inside an ``obs`` frame, so the observatory's
    cost shows up in its own row instead of vanishing.
    """

    def __init__(self) -> None:
        #: layer -> accumulated self seconds.
        self.self_s: Dict[str, float] = defaultdict(float)
        #: named boundary counts (triggers, handlers, retransmits ...).
        self.counts: Dict[str, int] = defaultdict(int)
        self.marshal_bytes = 0
        self.unmarshal_bytes = 0
        #: (virtual time, pid, alive) per deployment-level membership flip.
        self.membership_flips: List[Tuple[float, int, bool]] = []
        self.inner: Any = None
        # Stack used while no task is stepping (driver code, setup).
        self._idle: List[str] = ["bench"]
        self._cur: List[str] = self._idle
        self._last = perf_counter()
        self._micro_layers: Dict[str, str] = {"": "events"}

    # ------------------------------------------------------------------
    # The ledger
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Forget everything charged so far (start of the timed region)."""
        self.self_s.clear()
        self.counts.clear()
        self.marshal_bytes = self.unmarshal_bytes = 0
        self._last = perf_counter()

    def flush(self) -> None:
        """Charge the time since the last event (end of the region)."""
        self._switch(self._idle)

    def _switch(self, stack: List[str]) -> None:
        now = perf_counter()
        self.self_s[self._cur[-1]] += now - self._last
        self._last = now
        self._cur = stack

    def enter(self, layer: str) -> List[str]:
        """Push ``layer`` on the running task's stack; returns the stack
        to hand back to :meth:`exit`."""
        now = perf_counter()
        stack = self._cur
        self.self_s[stack[-1]] += now - self._last
        self._last = now
        stack.append(layer)
        return stack

    def exit(self, stack: List[str]) -> None:
        # A coroutine closed by the garbage collector unwinds outside
        # its task's step; it must pop its own stack without charging
        # the (unrelated) running task.
        if stack is self._cur:
            now = perf_counter()
            self.self_s[stack[-1]] += now - self._last
            self._last = now
        if len(stack) > 1:
            stack.pop()

    # ------------------------------------------------------------------
    # Profiler seam (kernel step hook + event-bus handler sites)
    # ------------------------------------------------------------------

    def _feed_inner(self, method: str, *args: Any) -> None:
        """Pass a seam call on to the observatory's own profiler, on
        the ``obs`` account."""
        inner = self.inner
        if inner is not None:
            frame = self.enter("obs")
            getattr(inner, method)(*args)
            self.exit(frame)

    def on_step(self, task: Any) -> None:
        stack = task.tags.get(_STACK_TAG)
        if stack is None:
            stack = task.tags[_STACK_TAG] = [_base_frame(task.name)]
        self._switch(stack)
        self._feed_inner("on_step", task)

    def handler_enter(self, task_key: int, owner: str,
                      handler: str) -> None:
        layer = self._micro_layers.get(owner)
        if layer is None:
            layer = self._micro_layers[owner] = f"micro.{owner}"
        self.counts["events.handlers"] += 1
        self.enter(layer)
        self._feed_inner("handler_enter", task_key, owner, handler)

    def handler_exit(self, task_key: int, duration: float) -> None:
        self._feed_inner("handler_exit", task_key, duration)
        self.exit(self._cur)

    # ------------------------------------------------------------------
    # Marshaller seam
    # ------------------------------------------------------------------

    def _reattribute(self, layer: str, seconds: float) -> None:
        # The marshaller times itself; move that span out of whichever
        # frame called it so marshal and unmarshal get their own rows.
        self.self_s[self._cur[-1]] -= seconds
        self.self_s[layer] += seconds

    def on_marshal(self, nbytes: int, seconds: float) -> None:
        self.marshal_bytes += nbytes
        self._reattribute("stubs.marshal", seconds)
        self._feed_inner("on_marshal", nbytes, seconds)

    def on_unmarshal(self, nbytes: int, seconds: float) -> None:
        self.unmarshal_bytes += nbytes
        self._reattribute("stubs.unmarshal", seconds)
        self._feed_inner("on_unmarshal", nbytes, seconds)

    # ------------------------------------------------------------------
    # Wrapping public entry points
    # ------------------------------------------------------------------

    def wrap_async(self, fn: Callable, layer: str,
                   count: str = "") -> Callable:
        enter, exit_, counts = self.enter, self.exit, self.counts

        async def traced(*args: Any, **kwargs: Any) -> Any:
            if count:
                counts[count] += 1
            if self._cur[-1] == layer:
                # Already inside this layer (multicast -> send): a
                # second frame would only add tracing cost to it.
                return await fn(*args, **kwargs)
            frame = enter(layer)
            try:
                return await fn(*args, **kwargs)
            finally:
                exit_(frame)
        traced.__wrapped__ = fn            # type: ignore[attr-defined]
        return traced

    def wrap_sync(self, fn: Callable, layer: str,
                  count: str = "") -> Callable:
        enter, exit_, counts = self.enter, self.exit, self.counts

        def traced(*args: Any, **kwargs: Any) -> Any:
            if count:
                counts[count] += 1
            if self._cur[-1] == layer:
                return fn(*args, **kwargs)
            frame = enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)
        traced.__wrapped__ = fn            # type: ignore[attr-defined]
        return traced

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Wrap every layer's public entry points for the duration of
        the ``with`` block; all originals are restored on exit."""
        undo: List[Tuple[Any, str, Any]] = []

        def patch(owner: Any, name: str, layer: str, *,
                  sync: bool = False, count: str = "") -> None:
            original = owner.__dict__[name]
            wrap = self.wrap_sync if sync else self.wrap_async
            undo.append((owner, name, original))
            setattr(owner, name, wrap(original, layer, count))

        marshal_mod = importlib.import_module("repro.stubs.marshal")
        previous_marshal_hook = marshal_mod.install_profiler(self)
        try:
            self._patch_layers(patch, undo)
            yield self
        finally:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)
            marshal_mod.install_profiler(previous_marshal_hook)

    def _patch_layers(self, patch: Callable, undo: List) -> None:
        from repro.apps.dispatcher import ServerApp, ServerDispatcher
        from repro.apps.sharding import ShardedKV, ShardRouter
        from repro.core.deployment import Deployment
        from repro.core.events import EventBus
        from repro.core.grpc import GroupRPC
        from repro.membership.detector import HeartbeatDetector
        from repro.net.fabric import NetworkFabric
        from repro.net.node import Node
        from repro.net.transport import UnreliableTransport
        from repro.net.wire import WirePipeline
        from repro.placement.plane import ElasticKV, PlacementPlane
        from repro.placement.view import ViewManager
        from repro.replication.group import ReplicaGroup
        from repro.runtime.sim_runtime import SimRuntime
        from repro.sim.sync import Condition, Event, Queue, Semaphore
        from repro.stubs.stubgen import ClientStub, MarshallingApp

        # sim: every way a task parks (see the module docstring), plus
        # the kernel work other layers ask for synchronously — spawning
        # a task, waking a waiter.
        patch(SimRuntime, "sleep", "sim")
        patch(SimRuntime, "join", "sim")
        patch(SimRuntime, "spawn", "sim", sync=True)
        patch(Semaphore, "acquire", "sim")
        patch(Semaphore, "release", "sim", sync=True)
        patch(Event, "wait", "sim")
        patch(Event, "set", "sim", sync=True)
        patch(Condition, "wait", "sim")
        patch(Queue, "get", "sim")
        patch(Queue, "put", "sim", sync=True)

        patch(EventBus, "trigger", "events", count="events.triggers")

        patch(GroupRPC, "call", "grpc")
        patch(GroupRPC, "pop", "grpc")
        patch(GroupRPC, "deliver_to_server", "grpc")
        self._patch_net_push(GroupRPC, undo)

        patch(Deployment, "call", "deployment")
        patch(Deployment, "rebind", "placement", sync=True,
              count="placement.rebinds")

        self._patch_stub_methods(ClientStub, undo)
        patch(MarshallingApp, "handle", "stubs")

        patch(WirePipeline, "send", "wire")
        patch(WirePipeline, "multicast", "wire")
        patch(NetworkFabric, "send", "fabric", sync=True)
        patch(NetworkFabric, "multicast", "fabric", sync=True)

        # node: transport + demux + deliver.  Only the two ends are
        # framed; the demux hops between them are one-line forwards, and
        # a frame each would charge this layer mostly for being traced.
        # Upward they run inside ``handle_arrival``'s frame; downward
        # (grpc -> demuxes -> transport) they stay on grpc's account.
        patch(Node, "deliver", "node", sync=True)
        patch(UnreliableTransport, "push", "node")
        patch(UnreliableTransport, "handle_arrival", "node")

        patch(ShardRouter, "route", "placement", sync=True)
        for view in (ShardedKV, ElasticKV):
            for op in ("put", "get", "delete"):
                patch(view, op, "placement")
        patch(PlacementPlane, "call", "placement")
        for name in ("sync", "commit", "propose", "rollback"):
            patch(ViewManager, name, "placement", sync=True)

        patch(ReplicaGroup, "admit", "replication")
        patch(ReplicaGroup, "complete", "replication")
        patch(ReplicaGroup, "on_suspect", "replication", sync=True)
        patch(ReplicaGroup, "on_recover", "replication", sync=True)

        patch(HeartbeatDetector, "pop", "membership")

        patch(ServerDispatcher, "pop", "apps")
        patch(ServerApp, "handle", "apps")

    def _patch_net_push(self, grpc_cls: Any, undo: List) -> None:
        """``GroupRPC.net_push`` as a ``grpc`` frame that also counts
        retransmissions: Reliable Communication only ever pushes from
        its retransmit timer, so a push issued while its frame is on top
        is one retransmitted message."""
        original = grpc_cls.__dict__["net_push"]
        traced = self.wrap_async(original, "grpc")
        counts = self.counts

        async def net_push(grpc: Any, dest: Any, msg: Any) -> None:
            if self._cur[-1] == "micro.Reliable_Communication":
                counts["micro.retransmits"] += 1
            await traced(grpc, dest, msg)
        undo.append((grpc_cls, "net_push", original))
        grpc_cls.net_push = net_push

    def _patch_stub_methods(self, stub_cls: Any, undo: List) -> None:
        """A generated stub's operations are per-instance closures, so
        they are wrapped as each stub is constructed."""
        construct = stub_cls.__dict__["__init__"]

        def init(stub: Any, interface: Any, grpc: Any, group: Any) -> None:
            construct(stub, interface, grpc, group)
            for op in interface.operations:
                setattr(stub, op, self.wrap_async(getattr(stub, op),
                                                  "stubs"))
        undo.append((stub_cls, "__init__", construct))
        stub_cls.__init__ = init

    # ------------------------------------------------------------------
    # Per-runtime / per-deployment attachment
    # ------------------------------------------------------------------

    def attach_runtime(self, runtime: Any) -> None:
        """Become ``runtime``'s profiler (before any event bus is built)
        and tag every timer action with the layer that armed it, so the
        fabric's deliveries and the wire's round flushes — which run in
        kernel context, between steps — are charged to their layer."""
        runtime.attach_profiler(self)
        arm = runtime.call_later

        def call_later(delay: float, action: Callable[[], None]) -> Any:
            layer = self._cur[-1]

            def fire() -> None:
                parked = self._cur
                self._switch([layer])
                try:
                    action()
                finally:
                    self._switch(parked)
            frame = self.enter("sim")
            try:
                return arm(delay, fire)
            finally:
                self.exit(frame)
        runtime.call_later = call_later

    def adopt(self, deployment: Any) -> None:
        """Hook one freshly constructed deployment (before services are
        added): keep its observatory's instruments running inside
        ``obs`` frames and watch its membership stream."""
        observatory = deployment.observatory
        if observatory is not None:
            # The observatory installed its own profiler on construction;
            # take the seat back and feed it from inside.
            self.inner = observatory.profiler
            deployment.runtime.attach_profiler(self)
            importlib.import_module(
                "repro.stubs.marshal").install_profiler(self)
            for owner, name in ((observatory.slo, "observe"),
                                (observatory.flight, "note"),
                                (observatory.load, "note")):
                setattr(owner, name,
                        self.wrap_sync(getattr(owner, name), "obs"))
        deployment.watch_membership(self._on_membership(deployment))

    def _on_membership(self, deployment: Any) -> Callable[[int, bool], None]:
        def flipped(pid: int, alive: bool) -> None:
            self.membership_flips.append(
                (deployment.runtime.now(), pid, alive))
        return flipped
