"""The user protocol above gRPC: server apps and their dispatcher.

The paper assumes "a stub on the server site [that] unmarshalls the data
and invokes the actual procedure".  :class:`ServerDispatcher` is that
protocol: it sits on top of the gRPC composite, receives the blocking
``Server.pop(op, args)`` upcall, and invokes the application procedure.
It also implements the ``checkpoint_state``/``restore_state`` surface the
Atomic Execution micro-protocol requires, and wires the application's
volatile state to the node's crash lifecycle.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.errors import UnknownCallError
from repro.net.node import Node
from repro.obs.metrics import Counter, MetricsRegistry
from repro.xkernel.upi import Protocol

__all__ = ["ServerApp", "ServerDispatcher"]


class ServerApp:
    """Base class for server applications.

    Subclasses implement ``handle_<op>`` coroutine methods (e.g.
    ``handle_put``) taking the unmarshalled argument object and returning
    the reply value.  State management hooks:

    * :meth:`get_state` / :meth:`set_state` — the *full* application state
      for Atomic Execution checkpoints;
    * :meth:`on_crash` — reinitialize volatile state when the site
      crashes (stable state, living in ``node.stable``, survives);
    * :meth:`bind` — called once with the owning node, giving the app
      access to the runtime (for simulated work delays) and to stable
      storage.
    """

    def __init__(self) -> None:
        self.node: Optional[Node] = None

    def bind(self, node: Node) -> None:
        self.node = node

    async def handle(self, op: str, args: Any) -> Any:
        method = getattr(self, f"handle_{op}", None)
        if method is None:
            raise UnknownCallError(
                f"{type(self).__name__} has no operation {op!r}")
        return await method(args)

    async def work(self, seconds: float) -> None:
        """Simulate ``seconds`` of server-side computation."""
        if self.node is not None and seconds > 0:
            await self.node.runtime.sleep(seconds)

    # -- state hooks -----------------------------------------------------

    def get_state(self) -> Any:
        """Full (volatile + stable) state for checkpoints."""
        return None

    def set_state(self, state: Any) -> None:
        """Restore from a checkpoint taken with :meth:`get_state`."""

    def on_crash(self) -> None:
        """Volatile state dies with the site.  Default: nothing."""


class ServerDispatcher(Protocol):
    """x-kernel user protocol invoking application procedures."""

    def __init__(self, node: Node, app: ServerApp, *,
                 service: str = "",
                 metrics: Optional[MetricsRegistry] = None,
                 keep_log: bool = True):
        super().__init__(f"server@{node.pid}")
        self.node = node
        self.app = app
        self.service = service
        app.bind(node)
        node.crash_listeners.append(app.on_crash)
        #: Every execution as (op, args) in order: the server side of a
        #: :class:`repro.analysis.History`.  ``keep_log=False``
        #: (deployments built with ``keep_trace=False``) skips it: a
        #: million-call perf run would otherwise retain every request's
        #: args forever, growing each gc generation-2 sweep.
        self.keep_log = keep_log
        self.execution_log: List[Tuple[str, Any]] = []
        #: Per-service execution counter (``service.<name>.executions``)
        #: when deployed with a service label and a shared registry.
        self._exec_counter: Optional[Counter] = None
        if metrics is not None and service:
            self._exec_counter = metrics.counter(
                f"service.{service}.executions")

    async def pop(self, op: str, args: Any) -> Any:
        """The blocking ``Server.pop`` upcall from gRPC."""
        if self.keep_log:
            self.execution_log.append((op, args))
        if self._exec_counter is not None:
            self._exec_counter.value += 1
        return await self.app.handle(op, args)

    # -- Atomic Execution's checkpoint surface ---------------------------

    def checkpoint_state(self) -> Any:
        return self.app.get_state()

    def restore_state(self, state: Any) -> None:
        self.app.set_state(state)

    def pop_delta(self) -> Any:
        """App-tracked state changes since the last checkpoint.

        Returns ``None`` when the app does not track changes, in which
        case delta-mode Atomic Execution falls back to structural diffs.
        """
        pop = getattr(self.app, "pop_delta", None)
        return pop() if callable(pop) else None
