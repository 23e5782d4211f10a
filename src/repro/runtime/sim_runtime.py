"""The runtime: the deterministic simulation kernel behind one facade.

Protocol code obtains every primitive it blocks on from the runtime
(``rt.semaphore()``, ``rt.queue()``, ``await rt.sleep(...)``) rather than
from :mod:`repro.sim` directly, so a stack is built against one object
that also carries the attached recorder and profiler.
"""

from __future__ import annotations

from typing import Any, Callable, Coroutine

from repro.errors import NoCurrentTask
from repro.sim import kernel as _kernel
from repro.sim.kernel import Kernel, Task, Timer
from repro.sim.sync import Event, Lock, Queue, Semaphore

__all__ = ["SimRuntime", "CancelScope"]


class SimRuntime:
    """Virtual time, deterministic scheduling.

    Wraps a :class:`repro.sim.kernel.Kernel`.  Experiments construct one
    runtime, build the simulated network and protocol stacks against it,
    then drive it with :meth:`run`/:meth:`run_for`.
    """

    def __init__(self, kernel: Kernel | None = None):
        self.kernel = kernel or Kernel()
        #: ``call_later(delay, action)``: run the plain function
        #: ``action()`` after ``delay`` seconds; returns a cancellable
        #: :class:`~repro.sim.kernel.Timer`.  The kernel's own method,
        #: bound once here (an instance attribute, so a profiler may
        #: still wrap it per runtime).
        self.call_later: Callable[[float, Callable[[], None]], Timer] = \
            self.kernel.call_later
        #: The attached recorder, or ``None`` (tracing disabled).
        self.obs: Any = None
        #: The attached profiler, or ``None`` (profiling disabled).
        self.profiler: Any = None

    # -- time -----------------------------------------------------------

    def now(self) -> float:
        return self.kernel._now

    async def sleep(self, delay: float) -> None:
        await _kernel.sleep(delay)

    # -- tasks ----------------------------------------------------------

    def spawn(self, coro: Coroutine, *, name: str = "",
              daemon: bool = False) -> Task:
        return self.kernel.spawn(coro, name=name, daemon=daemon)

    def cancel(self, handle: Task) -> None:
        handle.cancel()

    async def current_handle(self) -> Task:
        """Handle for the calling task (the paper's ``my_thread()``)."""
        return await _kernel.current_task()

    def current_handle_nowait(self) -> Task:
        """Synchronous :meth:`current_handle`, valid only while a task runs
        (``cancel_event`` is a plain operation); an inline run's is made."""
        task = self.kernel._promote()
        if task is None:
            raise NoCurrentTask("no task is currently executing")
        return task

    async def join(self, handle: Task) -> Any:
        return await handle.join()

    # -- primitives -----------------------------------------------------

    def semaphore(self, value: int = 1) -> Semaphore:
        return Semaphore(value)

    def lock(self) -> Lock:
        return Lock()

    def event(self) -> Event:
        # Bound to the owning kernel so configuration actions (crash ->
        # promotion -> gate release) may set it between runs.
        return Event(kernel=self.kernel)

    def queue(self) -> Queue:
        return Queue()

    # -- drivers --------------------------------------------------------

    def run(self, coro: Coroutine | None = None, *, strict: bool = True,
            shutdown: bool = True):
        """Run the kernel; see :meth:`repro.sim.kernel.Kernel.run`."""
        return self.kernel.run(coro, strict=strict, shutdown=shutdown)

    def run_for(self, duration: float, *, strict: bool = True) -> None:
        self.kernel.run_for(duration, strict=strict)

    def run_until_idle(self, *, strict: bool = True) -> None:
        self.kernel.run_until_idle(strict=strict)

    # -- observability ---------------------------------------------------

    def attach_obs(self, recorder: Any) -> None:
        """Install an observability recorder (``None`` = tracing off)
        for this runtime's stacks.

        Every instrumented component (event buses, composites, the
        fabric) captures ``runtime.obs`` at construction time — so the
        disabled hot path is a single ``is None`` test.  Attach before
        building protocol stacks.
        """
        self.obs = recorder
        if recorder is not None:
            recorder.bind(self)

    def attach_profiler(self, profiler: Any) -> None:
        """Install a :class:`~repro.obs.profiler.KernelProfiler` and hook
        the kernel's step path.

        Same contract as :meth:`attach_obs`: event buses capture
        ``runtime.profiler`` once at construction, so attach before
        building protocol stacks.
        """
        self.profiler = profiler
        self.kernel.profile_hook = (profiler.on_step
                                    if profiler is not None else None)

    def stats(self) -> dict:
        """The kernel's scheduler counters (steps, spawns, timer fires)."""
        return self.kernel.stats()


class CancelScope:
    """Tracks spawned task handles so a group can be torn down together.

    Simulated node crashes use one scope per node: crash = cancel every
    handle registered in the scope.  Handles that finish are pruned lazily.
    """

    def __init__(self, runtime: SimRuntime):
        self._runtime = runtime
        self._handles: list[Task] = []
        # Prune finished handles once the list reaches this length, then
        # re-arm at twice the surviving count: amortized O(1) per spawn,
        # and a long-lived node's scope stays proportional to its *live*
        # tasks instead of retaining every task it ever ran (a per-message
        # task model spawns millions over a long run; keeping them all
        # also inflates every gc generation-2 sweep).
        self._prune_at = 64

    def _register(self, handle: Task) -> None:
        handles = self._handles
        handles.append(handle)
        if len(handles) >= self._prune_at:
            self._handles = [h for h in handles if not h.done]
            self._prune_at = max(64, 2 * len(self._handles))

    def spawn(self, coro: Coroutine, *, name: str = "",
              daemon: bool = False) -> Task:
        handle = self._runtime.spawn(coro, name=name, daemon=daemon)
        self._register(handle)
        return handle

    def adopt(self, handle: Task) -> None:
        """Register an externally spawned handle with this scope."""
        self._register(handle)

    def cancel_all(self) -> int:
        """Cancel every live handle; returns how many were cancelled."""
        cancelled = 0
        for handle in self._handles:
            if not handle.done:
                handle.cancel()
                cancelled += 1
        self._handles.clear()
        self._prune_at = 64
        return cancelled
