"""Synchronization primitives for the simulation kernel.

The paper's micro-protocols are written against classic counting semaphores
(``P``/``V``) plus mutexes guarding the shared ``pRPC``/``sRPC`` tables.
These primitives provide the same blocking semantics on top of
:mod:`repro.sim.kernel`, with two properties that matter for faithfulness:

* **Uncontended acquires do not yield.**  A trigger chain that takes and
  releases a free mutex runs atomically with respect to other tasks, which
  matches the sequential-and-blocking event dispatch described in Section 3
  of the paper and keeps schedules deterministic.
* **Releases never preempt.**  ``V`` makes a waiter runnable but the caller
  keeps running, so (for example) the Collation micro-protocol still gets to
  fold in the final reply after Acceptance has released the client's
  semaphore but before the client thread resumes.
* **A wakeup is never lost.**  A waiter handed a permit, an item or a
  notification but cancelled before it runs passes it on.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.errors import KernelError
from repro.sim.kernel import Task, current_kernel, suspend

__all__ = ["Semaphore", "Lock", "Event", "Condition", "Queue"]


class Semaphore:
    """A counting semaphore with FIFO wakeup order.

    ``acquire`` is the paper's ``P`` operation and ``release`` is ``V``.
    The starting ``value`` may be zero, which is how per-call completion
    semaphores are created (the client blocks until Acceptance or Bounded
    Termination releases it).
    """

    def __init__(self, value: int = 1):
        if value < 0:
            raise ValueError(f"semaphore value must be >= 0, got {value}")
        self._value = value
        self._waiters: Deque[Task] = deque()

    @property
    def value(self) -> int:
        """Current counter value (0 while any task is blocked)."""
        return self._value

    def locked(self) -> bool:
        """True if an ``acquire`` would block right now."""
        return self._value == 0

    async def acquire(self) -> None:
        """P: decrement the counter, blocking while it is zero."""
        if self._value > 0 and not self._waiters:
            self._value -= 1
            return
        await suspend(self._waiters.append, self._waiters.remove)

    def release(self) -> None:
        """V: increment the counter, waking the longest waiter if any.

        This is a plain function (not async) because releases never block;
        the paper's handlers call ``V`` freely from any context.
        """
        if self._waiters:
            task = self._waiters.popleft()
            task._kernel._reschedule(task, None, self._pass_on)
        else:
            self._value += 1

    def _pass_on(self, task: Task) -> None:
        self.release()      # ``task`` was cancelled before it could run

    def reset(self, value: int) -> None:
        """Forcibly set the counter, waking waiters while value allows.

        Used by recovery code (the paper's Atomic Execution handler does
        ``sRPC_mutex = 0``) to reinitialize semaphores after a crash.
        """
        if value < 0:
            raise ValueError(f"semaphore value must be >= 0, got {value}")
        self._value = value
        while self._value > 0 and self._waiters:
            self._value -= 1
            task = self._waiters.popleft()
            current_kernel()._reschedule(task, None, self._pass_on)

    async def __aenter__(self) -> "Semaphore":
        await self.acquire()
        return self

    async def __aexit__(self, *exc: Any) -> None:
        self.release()


class Lock(Semaphore):
    """A mutex: a binary semaphore initialized to 1."""

    def __init__(self) -> None:
        super().__init__(1)

    def release(self) -> None:
        if self._value >= 1 and not self._waiters:
            raise KernelError("Lock.release() called on an unlocked lock")
        super().release()


class Event:
    """A one-shot level-triggered event (like ``threading.Event``).

    ``kernel`` optionally binds the event to its owning kernel, which
    lets :meth:`set` be called *between* kernel runs (membership-driven
    reconfiguration — a crash notification promoting a replica, say —
    happens outside any task); parked waiters are moved to the ready
    queue and resume at the next run.  Unbound events fall back to the
    currently running kernel, as before.
    """

    def __init__(self, kernel: Optional[Any] = None) -> None:
        self._set = False
        self._kernel = kernel
        self._waiters: Deque[Task] = deque()

    def is_set(self) -> bool:
        return self._set

    def set(self) -> None:
        """Set the flag and wake every waiter."""
        if self._set:
            return
        self._set = True
        if not self._waiters:
            return
        kernel = self._kernel if self._kernel is not None \
            else current_kernel()
        while self._waiters:
            kernel._reschedule(self._waiters.popleft())

    def clear(self) -> None:
        self._set = False

    async def wait(self) -> None:
        """Block until the flag is set (returns immediately if already)."""
        if self._set:
            return
        await suspend(self._waiters.append, self._waiters.remove)


class Condition:
    """A condition variable bound to a :class:`Lock`.

    Mirrors ``threading.Condition``: ``wait`` atomically releases the lock
    and re-acquires it before returning; ``notify`` wakes waiters.
    """

    def __init__(self, lock: Optional[Lock] = None):
        self._lock = lock or Lock()
        self._waiters: Deque[Task] = deque()

    async def acquire(self) -> None:
        await self._lock.acquire()

    def release(self) -> None:
        self._lock.release()

    async def wait(self) -> None:
        if not self._lock.locked():
            raise KernelError("Condition.wait() without holding the lock")
        self._lock.release()
        try:
            await suspend(self._waiters.append, self._waiters.remove)
        finally:
            await self._lock.acquire()

    def notify(self, n: int = 1) -> None:
        for _ in range(min(n, len(self._waiters))):
            task = self._waiters.popleft()
            task._kernel._reschedule(task, None, self._pass_on)

    def _pass_on(self, task: Task) -> None:
        self.notify()       # ``task`` was cancelled before it could run

    def notify_all(self) -> None:
        self.notify(len(self._waiters))

    async def __aenter__(self) -> "Condition":
        await self.acquire()
        return self

    async def __aexit__(self, *exc: Any) -> None:
        self.release()


class Queue:
    """An unbounded FIFO queue with blocking ``get`` (the runtime's
    :meth:`~repro.runtime.SimRuntime.queue`)."""

    def __init__(self) -> None:
        self._items: Deque[Any] = deque()
        self._getters: Deque[Task] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def empty(self) -> bool:
        return not self._items

    def put(self, item: Any) -> None:
        """Enqueue ``item``; never blocks."""
        if self._getters:
            task = self._getters.popleft()
            task._kernel._reschedule(task, item, lambda _: self._unget(item))
        else:
            self._items.append(item)

    def _unget(self, item: Any) -> None:
        # Its getter was cancelled before it ran: next getter, or the head.
        if self._getters:
            self.put(item)
        else:
            self._items.appendleft(item)

    async def get(self) -> Any:
        """Dequeue the oldest item, blocking while the queue is empty."""
        if self._items:
            return self._items.popleft()
        return await suspend(self._getters.append, self._getters.remove)

    def get_nowait(self) -> Any:
        """Dequeue without blocking; raises ``IndexError`` when empty."""
        return self._items.popleft()

    def clear(self) -> None:
        """Drop all queued items (crash cleanup)."""
        self._items.clear()
