"""Simulated sites with crash failures, recovery and incarnation numbers.

The paper's system model: "sites can experience crash failures" and
recovering clients carry an *incarnation number* so servers can partition
calls into generations (Interference Avoidance, Terminate Orphan).  A
:class:`Node` models one site:

* **crash** — every task the site was running is cancelled (volatile state
  is the protocol layers' to reset via crash listeners), arrivals still
  being handled die with their tasks, and the fabric stops delivering to
  it;
* **recover** — the incarnation number is bumped and recovery listeners
  fire (gRPC turns this into the ``RECOVERY`` event of Section 4.3).

Every arrival runs up the stack in its own thread of control, started
inside the fabric's delivery (:meth:`Node.deliver`), so one blocked
handler chain never stalls the next message — the paper's execution
model.  For a single payload it runs the ``pop`` of the protocol the
route resolves to, with no transport coroutine around it (a coalesced
batch is fanned out by the transport's own task).  It runs inline in
the delivery (:meth:`~repro.sim.kernel.Kernel.start`) and is a task,
in the node's scope, only once it parks; one that completes first
never touches the ready queue, the live-task table or the scope.

The incarnation counter survives crashes.  On real hardware it would be
read from stable storage at reboot; here the :class:`Node` object plays the
role of the machine, which persists while its volatile contents do not.
"""

from __future__ import annotations

import typing
from typing import Any, Callable, Coroutine, List

from repro.errors import NodeDown
from repro.net.message import Envelope, ProcessId
from repro.runtime.sim_runtime import CancelScope, SimRuntime
from repro.stablestore import StableStore

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.net.fabric import NetworkFabric

__all__ = ["Node"]


class Node:
    """One simulated site: a process id, a stable store, a task scope."""

    def __init__(self, pid: ProcessId, runtime: SimRuntime,
                 fabric: "NetworkFabric", *, name: str = ""):
        self.pid = pid
        self.name = name or f"node-{pid}"
        self._arrival_name = f"{self.name}-msg"
        self.runtime = runtime
        self._kernel = runtime.kernel
        self.fabric = fabric
        self.incarnation = 1
        self.up = False
        #: This site's "disk": survives crashes (the Node object persists
        #: while the tasks' volatile state does not).
        self.stable = StableStore()
        self.scope = CancelScope(runtime)
        #: Called with no arguments the moment the node crashes; protocol
        #: layers register resets of their volatile state here.
        self.crash_listeners: List[Callable[[], None]] = []
        #: Called with the new incarnation number once the node restarts.
        self.recover_listeners: List[Callable[[int], None]] = []
        #: The bottom protocol of this node's stack; set by the transport.
        self.transport: Any = None
        fabric.add_node(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Bring the node up for the first time (no listeners fire)."""
        self.up = True

    def crash(self) -> None:
        """Crash the site: kill tasks (arrivals in progress too), go down."""
        if not self.up:
            return
        self.up = False
        self.fabric.trace.record(self.runtime.now(), "crash", self.pid,
                                 self.pid)
        self.scope.cancel_all()
        # Outbound messages still sitting in the wire pipeline's
        # coalescing buffers die with the site: a down node cannot
        # transmit on the flush timer.
        self.fabric.pipeline.drop_source(self.pid)
        for listener in list(self.crash_listeners):
            listener()
        self.fabric.notify_membership(self.pid, alive=False)

    def recover(self) -> None:
        """Restart the site with the next incarnation number."""
        if self.up:
            return
        self.incarnation += 1
        self.up = True
        self.fabric.trace.record(self.runtime.now(), "recover", self.pid,
                                 self.pid, detail=self.incarnation)
        for listener in list(self.recover_listeners):
            listener(self.incarnation)
        self.fabric.notify_membership(self.pid, alive=True)

    # ------------------------------------------------------------------
    # Task and message plumbing
    # ------------------------------------------------------------------

    def spawn(self, coro: Coroutine, *, name: str = "",
              daemon: bool = False) -> Any:
        """Spawn a task owned by this node (killed when the node crashes)."""
        if not self.up:
            coro.close()
            raise NodeDown(f"{self.name} is down")
        return self.scope.spawn(
            coro, name=name or f"{self.name}-task", daemon=daemon)

    def deliver(self, envelope: Envelope) -> None:
        """Called by the fabric to hand over an arrived envelope: it runs
        up the stack under its own thread of control (:meth:`~repro.net.
        transport.UnreliableTransport.arrival` says what runs), so a
        chain that blocks cannot stall later arrivals.  The delivery is
        the last act of the fabric's timer action, so the arrival is
        started in place; the scope adopts it if it is a live task after
        that first step, which is the only way a crash can find it."""
        transport = self.transport
        if transport is None:
            return
        coro = transport.arrival(envelope)
        if coro is not None:
            task = self._kernel.start(coro, self._arrival_name, True,
                                      envelope.seq)
            if task is not None:
                self.scope.adopt(task)
