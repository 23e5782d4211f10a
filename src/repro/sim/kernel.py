"""A deterministic cooperative simulation kernel.

This module implements a small curio-style coroutine kernel with a *virtual*
clock.  It is the substrate on which the reproduced group RPC system runs:
the paper assumes an asynchronous distributed system with threads that may
block on semaphores, and this kernel provides exactly that — ``async def``
tasks that can block on synchronization primitives — while keeping execution
fully deterministic and instantaneous (simulated time advances only when every
runnable task has yielded).

Design notes
------------

* Tasks are plain Python coroutines driven by :meth:`Kernel._step`.  They
  communicate with the kernel by ``await``-ing *traps* — small request
  objects yielded up through ``types.coroutine`` shims.  The awaitable
  helpers at the bottom of this module are themselves ``types.coroutine``
  generators (one frame per await, no intermediate ``async def`` shim),
  and the no-argument traps (yield, current-task) are module singletons,
  so the common suspension points allocate at most one small object.
* The ready queue is FIFO and timers break ties by insertion sequence, so a
  given program plus a given seed always produces the same schedule.  The
  network fabric layers randomness on top using seeded RNG streams.
* The timer heap stores plain ``(when, seq, Timer)`` tuples, so heap
  sifting compares tuples in C rather than calling a Python ``__lt__``;
  ``(when, seq)`` is unique, which keeps the pop order total and
  deterministic.  Cancelled timers are purged lazily: normally a dead
  entry is discarded when popped, but once dead entries outnumber half
  the heap (heartbeat-heavy runs cancel timers by the thousand) the heap
  is compacted in one pass, so it cannot grow unboundedly.
* A sleeping task parks *directly on its timer* (``Timer.task``): waking
  it is a field test in the timer loop instead of a per-sleep closure.
* Cancellation mirrors ``asyncio``: :meth:`Task.cancel` throws
  :class:`~repro.errors.TaskCancelled` into the coroutine at its suspension
  point.  Simulated node crashes and the Terminate Orphan micro-protocol are
  built on this.
* ``daemon`` tasks (heartbeat senders, retransmitters) do not keep the
  kernel alive and are cancelled silently when the main task finishes.
"""

from __future__ import annotations

import heapq
import itertools
import types
from collections import deque
from typing import Any, Callable, Coroutine, Iterable, Optional

from repro.errors import KernelError, NoCurrentTask, TaskCancelled

__all__ = [
    "Kernel",
    "Task",
    "Timer",
    "current_kernel",
    "current_task",
    "spawn",
    "sleep",
    "suspend",
    "checkpoint_yield",
]


# The kernel currently executing tasks.  The simulation is single-threaded,
# so a module-level variable (rather than a contextvar) is sufficient and
# considerably faster.
_KERNEL: Optional["Kernel"] = None


def current_kernel() -> "Kernel":
    """Return the kernel currently running tasks.

    Raises :class:`~repro.errors.NoCurrentTask` when called outside of
    :meth:`Kernel.run`.
    """
    if _KERNEL is None:
        raise NoCurrentTask("no kernel is currently running")
    return _KERNEL


class _Trap:
    """Base class for requests a task makes to the kernel."""

    __slots__ = ()


class _SpawnTrap(_Trap):
    __slots__ = ("coro", "name", "daemon")

    def __init__(self, coro: Coroutine, name: str, daemon: bool):
        self.coro = coro
        self.name = name
        self.daemon = daemon


class _SleepTrap(_Trap):
    __slots__ = ("delay",)

    def __init__(self, delay: float):
        self.delay = delay


class _SuspendTrap(_Trap):
    """Park the current task until something reschedules it.

    ``park`` is called with the task so the waiter can be recorded in a
    wait structure; ``unpark`` must remove it again (used on cancellation).
    """

    __slots__ = ("park", "unpark")

    def __init__(self, park: Callable[["Task"], None],
                 unpark: Callable[["Task"], None]):
        self.park = park
        self.unpark = unpark


class _JoinTrap(_Trap):
    __slots__ = ("task",)

    def __init__(self, task: "Task"):
        self.task = task


class _CurrentTaskTrap(_Trap):
    __slots__ = ()


class _YieldTrap(_Trap):
    __slots__ = ()


#: Singleton no-payload traps: awaiting them must not allocate.
_YIELD_TRAP = _YieldTrap()
_CURRENT_TASK_TRAP = _CurrentTaskTrap()


# Task states.  Small ints compare faster than interned strings on the
# step hot path; ``state >= _DONE`` is the "finished" test.
_READY = 0
_RUNNING = 1
_WAITING = 2
_DONE = 3
_CANCELLED = 4

_INLINE: Any = object()   # Kernel._current while start() runs inline

# Task ids.  A module-level counter, not a class attribute: writing an
# attribute of ``Task`` on every spawn would invalidate the class's type
# version, and with it every specialized ``task.<field>`` read in the
# step loop.
_task_ids = itertools.count(1)


class Task:
    """A unit of cooperative execution managed by the kernel.

    Tasks are created through :func:`spawn` (from inside a task) or
    :meth:`Kernel.spawn` (from setup code).  A finished task exposes
    :attr:`result` or :attr:`exception`; other tasks can block on it with
    :meth:`join`.
    """

    __slots__ = ("id", "coro", "name", "daemon", "state", "result",
                 "exception", "cancelled", "_kernel", "_joiners",
                 "_unpark", "_sleep_timer", "_pending_exc", "tags", "dispatch")

    def __init__(self, coro: Coroutine, name: str, daemon: bool,
                 kernel: "Kernel"):
        self.id = next(_task_ids)
        self.coro = coro
        self.name = name or f"task-{self.id}"
        self.daemon = daemon
        self.state = _READY
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self.cancelled = False
        self._kernel = kernel
        # Tasks blocked in join(); the list is made by the first joiner.
        self._joiners: Optional[list[Task]] = None
        # Called if it is cancelled first: parked on a _SuspendTrap, removes
        # it from the wait structure; woken, passes on what it was handed.
        self._unpark: Optional[Callable[["Task"], None]] = None
        # Timer associated with a sleep, so cancellation can void it.
        self._sleep_timer: Optional[Timer] = None
        # Exception to throw into the coroutine at the next step.
        self._pending_exc: Optional[BaseException] = None
        # Arbitrary annotations (e.g. owning node) set by higher layers.
        self.tags: dict[str, Any] = {}
        self.dispatch: Any = None   # parked in a dispatch: its record

    @property
    def done(self) -> bool:
        return self.state >= _DONE

    def cancel(self) -> bool:
        """Request cancellation of this task.

        Returns ``True`` if a cancellation was delivered (or is pending),
        ``False`` if the task had already finished.  Cancelling the
        currently-running task from within itself is disallowed; raise
        :class:`~repro.errors.TaskCancelled` directly instead.
        """
        return self._kernel._cancel_task(self)

    async def join(self) -> Any:
        """Wait for this task to finish and return its result.

        Re-raises the task's exception, including
        :class:`~repro.errors.TaskCancelled` if it was cancelled.
        """
        if self.state < _DONE:
            await _invoke(_JoinTrap(self))
        if self.exception is not None:
            raise self.exception
        if self.state == _CANCELLED:
            raise TaskCancelled(f"{self.name} was cancelled")
        return self.result


class Timer:
    """Handle for a scheduled timer; :meth:`cancel` voids it.

    Heap entries are ``(when, seq, timer)`` tuples owned by the kernel;
    the object itself is the user-facing handle.  A timer created for a
    plain sleep parks the sleeping task in :attr:`task` instead of
    carrying an action closure.  Cancelling a kernel-attached timer
    feeds the kernel's dead-entry count, which drives the lazy purge.
    A timer lets go of its action once it has fired or been cancelled:
    an action that refers back to its own timer (a registration that
    keeps its timer handle, say) would otherwise hold both in a
    reference cycle until the cycle collector ran.
    """

    __slots__ = ("when", "seq", "action", "cancelled", "task", "_kernel")

    def __init__(self, when: float, seq: int,
                 action: Optional[Callable[[], None]]):
        self.when = when
        self.seq = seq
        self.action = action
        self.cancelled = False
        #: The task to wake (sleep timers), or None (action timers).
        self.task: Optional[Task] = None
        self._kernel: Optional["Kernel"] = None

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            self.action = None
            kernel = self._kernel
            if kernel is not None:
                kernel._note_dead_timer()


class Kernel:
    """Deterministic virtual-time scheduler for cooperative tasks.

    Typical use::

        kernel = Kernel()

        async def main():
            ...

        kernel.run(main())

    The clock starts at ``0.0`` and advances to the deadline of the next
    timer whenever the ready queue drains.  Within one instant, tasks run in
    FIFO order and each task runs until it blocks — there is no preemption,
    which is what makes experiments repeatable.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._ready: deque[tuple[Task, Any]] = deque()
        #: Timer heap of (when, seq, Timer) tuples; comparisons stay in C.
        self._timers: list[tuple[float, int, Timer]] = []
        self._timer_seq = 0
        #: Cancelled-but-not-popped entries still sitting in the heap.
        self._timers_dead = 0
        self._current: Optional[Task] = None      # or _INLINE
        self._inline: Optional[tuple] = None      # start()'s arguments
        self._dispatch: Any = None    # innermost event dispatch record
        self._tasks: dict[int, Task] = {}
        self._running = False
        #: Exceptions from tasks that finished with an error and were never
        #: joined.  ``run(..., strict=True)`` re-raises the first of these.
        self.failures: list[tuple[Task, BaseException]] = []
        # Scheduler counters for the observability layer (plain integer
        # increments on the hot paths; summarized by :meth:`stats`).
        self.tasks_spawned = 0
        self.steps_executed = 0
        self.timers_scheduled = 0
        self.timers_fired = 0
        self.timers_purged = 0
        #: Step-sampling hook (``hook(task)``), installed by the
        #: observatory's kernel profiler via ``SimRuntime.
        #: attach_profiler``; ``None`` costs one is-None test per step.
        self.profile_hook: Optional[Callable[[Task], None]] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def spawn(self, coro: Coroutine, *, name: str = "",
              daemon: bool = False) -> Task:
        """Create a task and place it on the ready queue.

        May be called from setup code (outside :meth:`run`) or from inside a
        running task; :func:`spawn` is the in-task convenience wrapper.
        """
        task = Task(coro, name, daemon, self)
        self._tasks[task.id] = task
        self._ready.append((task, None))
        self.tasks_spawned += 1
        return task

    def start(self, coro: Coroutine, name: str = "",
              daemon: bool = False, serial: Any = None) -> Optional[Task]:
        """Take ``coro``'s first step now when the loop would take it next
        anyway, and make it a task only if it needs one.

        That is the case inside a timer action (the kernel is running,
        nothing else is) while the ready queue is empty: the loop drains
        the ready queue right after the action returns, so a coroutine
        spawned there runs first.  It runs *inline*, with no task, until
        it asks for its identity, yields a trap or fails (a profile hook
        gets a task at once); schedule and step count are as if spawned.
        Returns the task if it is live after that step, else ``None``; a
        task is named ``f"{name}-{serial}"`` if ``serial`` is given.
        Anywhere else (setup, in a task, behind queued work): :meth:`spawn`.

        The caller must make this the action's last scheduling act: a
        coroutine started later in the same action would run after
        whatever this step queued instead of before it.  (This is why
        ``spawn`` itself never steps.)
        """
        if self._current is not None or not self._running or self._ready:
            return self.spawn(coro, daemon=daemon, name=name if serial is None
                              else f"{name}-{serial}")
        self._current = _INLINE
        self._inline = (coro, name, daemon, serial)
        task = self._step(self._promote() if self.profile_hook else _INLINE,
                          None)
        self._inline = None
        if task is _INLINE or task.state >= _DONE:
            return None
        self._tasks[task.id] = task
        return task

    def call_later(self, delay: float, action: Callable[[], None]) -> Timer:
        """Run ``action()`` (a plain function) after ``delay`` seconds.

        The action executes in kernel context; it may call :meth:`spawn`
        but must not block.  Returns a cancellable :class:`Timer`.
        """
        if delay < 0:
            raise KernelError(f"negative delay: {delay}")
        seq = self._timer_seq
        self._timer_seq = seq + 1
        timer = Timer(self._now + delay, seq, action)
        timer._kernel = self
        heapq.heappush(self._timers, (timer.when, seq, timer))
        self.timers_scheduled += 1
        return timer

    def call_at(self, when: float, action: Callable[[], None]) -> Timer:
        """Run ``action()`` at absolute virtual time ``when``."""
        return self.call_later(max(0.0, when - self._now), action)

    def run(self, coro: Optional[Coroutine] = None, *,
            strict: bool = True, shutdown: bool = True) -> Any:
        """Run the simulation.

        With ``coro``, a main task is spawned and the kernel runs until it
        finishes; its result is returned (its exception re-raised) and —
        unless ``shutdown=False`` — every other task is cancelled.
        ``shutdown=False`` leaves the rest of the system (server loops,
        timers) intact so further ``run`` calls can continue the same
        simulation.  Without ``coro``, the kernel runs until no task is
        runnable and no timer is pending (useful after seeding work with
        :meth:`spawn`).

        ``strict`` re-raises the first unjoined task failure once the run
        completes, so broken protocol code cannot fail silently.
        """
        main: Optional[Task] = None
        if coro is not None:
            main = self.spawn(coro, name="main")
        self._loop(main, None)
        if main is not None and shutdown:
            self._cancel_all(except_task=main)
            # The main task's outcome is reported directly, not through the
            # unjoined-failure channel.
            self.failures = [(t, e) for (t, e) in self.failures
                             if t is not main]
            if main.exception is not None:
                raise main.exception
            if main.state == _CANCELLED:
                raise TaskCancelled("main task was cancelled")
        self._raise_if_strict(strict)
        return main.result if main is not None else None

    def run_until_idle(self, *, strict: bool = True) -> None:
        """Run until no task is runnable and no timer is pending."""
        self._loop(None, None)
        self._raise_if_strict(strict)

    def run_until(self, deadline: float, *, strict: bool = True) -> None:
        """Run until virtual time reaches ``deadline`` (or the system idles).

        The clock is left at ``deadline`` if it was reached, so repeated
        calls advance time monotonically even when nothing is scheduled.
        """
        self._loop(None, deadline)
        if self._now < deadline:
            self._now = deadline
        self._raise_if_strict(strict)

    def run_for(self, duration: float, *, strict: bool = True) -> None:
        """Run for ``duration`` seconds of virtual time."""
        self.run_until(self._now + duration, strict=strict)

    def live_tasks(self) -> Iterable[Task]:
        """All tasks that have not finished."""
        return [t for t in self._tasks.values() if t.state < _DONE]

    def stats(self) -> dict:
        """Scheduler counters, as plain data for the obs exporters."""
        return {
            "now": self._now,
            "tasks_spawned": self.tasks_spawned,
            "tasks_live": len(self._tasks),
            "steps_executed": self.steps_executed,
            "timers_scheduled": self.timers_scheduled,
            "timers_fired": self.timers_fired,
            "timers_purged": self.timers_purged,
        }

    def shutdown(self) -> None:
        """Cancel every live task and run their cleanup to completion.

        Call at the end of an experiment that deliberately leaves work in
        flight (e.g. an overloaded open-loop run), so ``finally`` blocks
        execute under the kernel instead of at garbage collection.
        """
        self._cancel_all()
        self.failures.clear()

    # ------------------------------------------------------------------
    # Scheduling internals
    # ------------------------------------------------------------------

    def _raise_if_strict(self, strict: bool) -> None:
        if strict and self.failures:
            task, exc = self.failures[0]
            raise KernelError(
                f"task {task.name!r} died with {exc!r}") from exc

    def _note_dead_timer(self) -> None:
        """Count a cancelled heap entry; compact once they dominate.

        The purge predicate is pure bookkeeping (counts, no clock, no
        randomness), so compaction points are deterministic; and because
        ``(when, seq)`` is unique, re-heapifying the survivors cannot
        change the pop order.
        """
        self._timers_dead += 1
        if self._timers_dead > 16 and \
                self._timers_dead * 2 >= len(self._timers):
            self._timers = [entry for entry in self._timers
                            if not entry[2].cancelled]
            heapq.heapify(self._timers)
            self.timers_purged += self._timers_dead
            self._timers_dead = 0

    def _loop(self, main: Optional[Task],
              deadline: Optional[float]) -> None:
        """Drive the simulation until ``main`` finishes (when given), the
        ``deadline`` is reached (when given), or the system idles.

        The ready queue is drained in one tight inner loop per instant —
        a run of ready tasks executes back to back without re-entering
        the timer bookkeeping — and the stop condition is an inline field
        test rather than a callback.
        """
        if self._running:
            raise KernelError("kernel is already running (nested run)")
        global _KERNEL
        self._running = True
        prev = _KERNEL
        _KERNEL = self
        ready = self._ready
        popleft = ready.popleft
        step = self._step
        try:
            while True:
                # Batched drain: every task runnable at this instant.
                while ready:
                    if main is not None and main.state >= _DONE:
                        return
                    task, value = popleft()
                    if task.state >= _DONE:
                        continue
                    step(task, value)
                if main is not None and main.state >= _DONE:
                    return
                # Ready queue drained: advance the clock to the next timer.
                timer = self._pop_timer()
                if timer is None:
                    return
                if deadline is not None and timer.when > deadline:
                    # Put it back; it fires on a later run_until call.
                    heapq.heappush(self._timers,
                                   (timer.when, timer.seq, timer))
                    self._now = deadline
                    return
                if timer.when > self._now:
                    self._now = timer.when
                self.timers_fired += 1
                sleeper = timer.task
                if sleeper is not None:
                    # Direct task wake-up: the sleep fast path.
                    timer.task = None
                    sleeper._sleep_timer = None
                    if sleeper.state < _DONE:
                        sleeper.state = _READY
                        ready.append((sleeper, None))
                else:
                    action = timer.action
                    timer.action = None
                    action()
        finally:
            self._running = False
            _KERNEL = prev

    def _pop_timer(self) -> Optional[Timer]:
        timers = self._timers
        while timers:
            timer = heapq.heappop(timers)[2]
            if not timer.cancelled:
                return timer
            self._timers_dead -= 1
        return None

    def _reschedule(self, task: Task, value: Any = None,
                    unpark: Optional[Callable[[Task], None]] = None) -> None:
        """Make a parked task runnable again with ``value`` as the await
        result; ``unpark`` is its ``_unpark`` until it runs."""
        if task.state >= _DONE:
            return
        task.state = _READY
        task._unpark = unpark
        self._ready.append((task, value))

    def _promote(self) -> Optional[Task]:
        """The running task; an inline run's is made now."""
        task = self._current
        if task is _INLINE:
            coro, name, daemon, serial = self._inline
            task = self._current = Task(coro, name if serial is None
                                        else f"{name}-{serial}", daemon, self)
            task.state = _RUNNING
            self.tasks_spawned += 1
        return task

    def _step(self, task: Task, value: Any) -> Task:
        """Run one task (``_INLINE``: :meth:`start`'s coroutine) until it
        blocks, yields, or finishes; return it, or the task it made."""
        self._current = task
        self.steps_executed += 1
        if task is _INLINE:
            coro, pending = self._inline[0], None
        else:
            task.state = _RUNNING
            task._unpark = None
            if task.dispatch is not None:
                self._dispatch, task.dispatch = task.dispatch, None
            if self.profile_hook is not None:
                self.profile_hook(task)
            coro = task.coro
            pending = task._pending_exc
        send = coro.send
        try:
            while True:
                try:
                    if pending is None:
                        trap = send(value)
                    else:
                        task._pending_exc = None
                        trap = coro.throw(pending)
                        pending = None
                except StopIteration as stop:
                    task = self._current    # an inline run's, if it made one
                    if task is not _INLINE:
                        self._finish(task, stop.value)
                    return task
                except TaskCancelled:
                    task = self._promote()
                    self._finish(task, cancelled=True)
                    return task
                except BaseException as exc:  # noqa: BLE001 - task crash
                    task = self._promote()
                    task.exception = exc
                    self._finish(task, failed=True)
                    return task

                if task is _INLINE:
                    task = self._promote()
                # Immediate traps keep the task running without a yield;
                # blocking traps park it and return to the loop.  Ordered
                # by observed frequency: suspends (sync primitives) and
                # sleeps dominate protocol workloads.
                cls = trap.__class__
                if cls is _SuspendTrap:
                    task.state = _WAITING
                    task._unpark = trap.unpark
                    trap.park(task)
                    return task
                elif cls is _SleepTrap:
                    delay = trap.delay
                    if delay < 0:
                        raise KernelError(f"negative delay: {delay}")
                    # Inlined call_later with the task parked directly on
                    # the timer — no closure, no bound-method hop.
                    task.state = _WAITING
                    seq = self._timer_seq
                    self._timer_seq = seq + 1
                    timer = Timer(self._now + delay, seq, None)
                    timer.task = task
                    timer._kernel = self
                    heapq.heappush(self._timers,
                                   (timer.when, seq, timer))
                    self.timers_scheduled += 1
                    task._sleep_timer = timer
                    return task
                elif cls is _YieldTrap:
                    task.state = _READY
                    self._ready.append((task, None))
                    return task
                elif cls is _SpawnTrap:
                    value = self.spawn(trap.coro, name=trap.name,
                                       daemon=trap.daemon)
                elif cls is _CurrentTaskTrap:
                    value = task
                elif cls is _JoinTrap:
                    target = trap.task
                    if target.state >= _DONE:
                        value = None
                    else:
                        task.state = _WAITING
                        joiners = target._joiners
                        if joiners is None:
                            joiners = target._joiners = []
                        joiners.append(task)
                        task._unpark = joiners.remove
                        return task
                else:
                    raise KernelError(f"unknown trap {trap!r} from "
                                      f"{task.name}")
        finally:
            self._current = None
            if self._dispatch is not None:    # it parked inside a dispatch
                task.dispatch, self._dispatch = self._dispatch, None

    def _finish(self, task: Task, result: Any = None, failed: bool = False,
                cancelled: bool = False) -> None:
        task.result = result
        if cancelled:
            task.state = _CANCELLED
            task.cancelled = True
        else:
            task.state = _DONE
        # A task started in place that finished in its first step was
        # never entered in the table.
        self._tasks.pop(task.id, None)
        joiners = task._joiners
        if joiners:
            task._joiners = None
            for joiner in joiners:
                self._reschedule(joiner)
        elif failed and not task.daemon:
            self.failures.append((task, task.exception))

    def _cancel_task(self, task: Task) -> bool:
        if task.state >= _DONE:
            return False
        if task is self._current:
            raise KernelError("a task cannot cancel() itself; raise "
                              "TaskCancelled instead")
        task.cancelled = True
        unpark = task._unpark
        if unpark is not None:
            task._unpark = None
            unpark(task)
        task._pending_exc = TaskCancelled(f"{task.name} cancelled")
        if task.state == _WAITING:
            if task._sleep_timer is not None:
                task._sleep_timer.task = None
                task._sleep_timer.cancel()
                task._sleep_timer = None
            task.state = _READY
            self._ready.append((task, None))
        return True

    def _cancel_all(self, except_task: Optional[Task] = None) -> None:
        for task in list(self._tasks.values()):
            if task is except_task or task.state >= _DONE:
                continue
            task.cancel()
        # Drain so cancellations actually execute their cleanup code.
        self._loop(None, self._now)


# ----------------------------------------------------------------------
# Awaitable convenience functions (usable from inside tasks)
# ----------------------------------------------------------------------
#
# Each is a ``types.coroutine`` generator rather than an ``async def``
# wrapper around a shim: awaiting one runs a single generator frame, so
# the kernel's trap round-trip costs one ``send`` per suspension.

@types.coroutine
def _invoke(trap: _Trap):
    """Yield a trap to the kernel and return its response."""
    return (yield trap)


@types.coroutine
def spawn(coro: Coroutine, *, name: str = "", daemon: bool = False):
    """Spawn a child task from inside a running task; returns the
    :class:`Task`."""
    return (yield _SpawnTrap(coro, name, daemon))


@types.coroutine
def sleep(delay: float):
    """Suspend the current task for ``delay`` seconds of virtual time."""
    yield _SleepTrap(delay)


@types.coroutine
def current_task():
    """Return the currently running :class:`Task`."""
    return (yield _CURRENT_TASK_TRAP)


@types.coroutine
def checkpoint_yield():
    """Yield to the scheduler, letting other ready tasks run first."""
    yield _YIELD_TRAP


@types.coroutine
def suspend(park: Callable[[Task], None],
            unpark: Callable[[Task], None]):
    """Park the current task; used by the synchronization primitives.

    ``park(task)`` records the task in a wait structure and ``unpark(task)``
    removes it (called if the task is cancelled while parked).  The task
    resumes when :meth:`Kernel._reschedule` is called on it, returning the
    value passed to ``_reschedule``.
    """
    return (yield _SuspendTrap(park, unpark))
