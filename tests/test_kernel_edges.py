"""Edge cases of the simulation kernel and event bus."""

import pytest

from repro.core.events import CANCEL, TIMEOUT, EventBus
from repro.errors import KernelError, TaskCancelled
from repro.runtime import SimRuntime
from repro.sim import (
    Event,
    Kernel,
    Lock,
    Semaphore,
    checkpoint_yield,
    sleep,
    spawn,
)


# ----------------------------------------------------------------------
# Kernel
# ----------------------------------------------------------------------

def test_cancel_task_queued_in_ready_state():
    kernel = Kernel()
    ran = []

    async def victim():
        ran.append("ran")

    async def main():
        task = await spawn(victim())   # queued, not yet started
        task.cancel()
        await sleep(0)

    kernel.run(main())
    assert ran == []


def test_join_already_cancelled_task_raises():
    kernel = Kernel()

    async def victim():
        await sleep(100)

    async def main():
        task = await spawn(victim())
        await sleep(1)
        task.cancel()
        await sleep(0)
        with pytest.raises(TaskCancelled):
            await task.join()

    kernel.run(main())


def test_joiner_woken_when_target_cancelled():
    kernel = Kernel()
    outcome = []

    async def victim():
        await sleep(100)

    async def joiner(task):
        try:
            await task.join()
        except TaskCancelled:
            outcome.append("cancelled")

    async def main():
        task = await spawn(victim())
        await spawn(joiner(task))
        await sleep(1)
        task.cancel()
        await sleep(1)

    kernel.run(main())
    assert outcome == ["cancelled"]


def test_task_exception_propagates_to_joiner_not_failures():
    kernel = Kernel()

    async def bad():
        raise ValueError("expected")

    async def main():
        task = await spawn(bad())
        with pytest.raises(ValueError):
            await task.join()

    kernel.run(main())
    assert kernel.failures == []


def test_daemon_failure_is_not_strict_fatal():
    kernel = Kernel()

    async def bad_daemon():
        raise RuntimeError("daemon oops")

    async def main():
        await spawn(bad_daemon(), daemon=True)
        await sleep(1)

    kernel.run(main())   # strict=True must not raise for daemons


def test_cancelling_cancelled_task_is_noop():
    kernel = Kernel()

    async def victim():
        await sleep(100)

    async def main():
        task = await spawn(victim())
        await sleep(1)
        assert task.cancel() is True
        await sleep(0)
        assert task.cancel() is False

    kernel.run(main())


def test_task_catches_cancellation_for_cleanup():
    kernel = Kernel()
    cleaned = []

    async def careful():
        try:
            await sleep(100)
        except TaskCancelled:
            cleaned.append("cleanup")
            raise

    async def main():
        task = await spawn(careful())
        await sleep(1)
        task.cancel()
        await sleep(0)

    kernel.run(main())
    assert cleaned == ["cleanup"]


def test_negative_call_later_rejected():
    with pytest.raises(KernelError):
        Kernel().call_later(-1.0, lambda: None)


def test_call_at_absolute_time():
    kernel = Kernel()
    fired = []
    kernel.run_until(5.0)
    kernel.call_at(7.5, lambda: fired.append(kernel.now))
    kernel.call_at(1.0, lambda: fired.append(kernel.now))  # in the past
    kernel.run_until_idle()
    assert fired == [pytest.approx(5.0), pytest.approx(7.5)]


def test_live_tasks_listing():
    kernel = Kernel()

    async def sleeper():
        await sleep(10)

    async def main():
        await spawn(sleeper(), name="zzz")
        live = [t.name for t in kernel.live_tasks()]
        assert "zzz" in live and "main" in live

    kernel.run(main())


def test_timer_during_run_for_boundary():
    kernel = Kernel()
    fired = []
    kernel.call_later(1.0, lambda: fired.append("exact"))
    kernel.run_for(1.0)   # boundary inclusive
    assert fired == ["exact"]


# ----------------------------------------------------------------------
# Sync edge cases
# ----------------------------------------------------------------------

def test_event_set_idempotent_and_no_kernel_needed_when_empty():
    kernel = Kernel()

    async def main():
        event = Event()
        event.set()
        event.set()     # second set: no waiters, no error
        await event.wait()

    kernel.run(main())


def test_lock_contention_queue_order_survives_cancellation():
    kernel = Kernel()
    lock = Lock()
    order = []

    async def contender(tag):
        async with lock:
            order.append(tag)
            await sleep(1)

    async def main():
        await lock.acquire()
        tasks = [await spawn(contender(i)) for i in range(3)]
        await sleep(1)
        tasks[1].cancel()        # middle waiter leaves the queue
        await sleep(0)
        lock.release()
        for i in (0, 2):
            await tasks[i].join()

    kernel.run(main())
    assert order == [0, 2]


def test_semaphore_acquire_order_with_mixed_free_and_blocked():
    kernel = Kernel()
    sem = Semaphore(1)
    order = []

    async def worker(tag):
        await sem.acquire()
        order.append(tag)

    async def main():
        for i in range(3):
            await spawn(worker(i))
        await sleep(1)
        sem.release()
        sem.release()
        await sleep(1)

    kernel.run(main())
    assert order == [0, 1, 2]


# ----------------------------------------------------------------------
# Event bus edges
# ----------------------------------------------------------------------

def test_deregister_pending_handler_during_dispatch():
    rt = SimRuntime()
    bus = EventBus(rt)
    ran = []

    async def second():
        ran.append("second")

    async def first():
        ran.append("first")
        # Deregistering mid-dispatch does not affect the running snapshot.
        bus.deregister("E", second)

    bus.register("E", first, 1)
    bus.register("E", second, 2)
    rt.run(bus.trigger("E"))
    assert ran == ["first", "second"]
    ran.clear()
    rt.run(bus.trigger("E"))
    assert ran == ["first"]


def test_timeout_handler_can_cancel_its_own_dispatch():
    rt = SimRuntime()
    spawned = []

    def spawner(coro, **kwargs):
        spawned.append(rt.spawn(coro, **kwargs))
        return spawned[-1]

    bus = EventBus(rt, spawner)
    ran = []

    async def on_timeout():
        ran.append(rt.now())
        return CANCEL        # legal inside a TIMEOUT dispatch

    bus.register(TIMEOUT, on_timeout, 1.0)
    rt.kernel.run_until(2.0)
    assert ran == [1.0]
    assert [task.result for task in spawned] == [False]


def test_handler_exception_propagates_to_trigger_caller():
    rt = SimRuntime()
    bus = EventBus(rt)

    async def bad():
        raise RuntimeError("handler blew up")

    async def after():
        pass  # pragma: no cover - must not run

    bus.register("E", bad, 1)
    bus.register("E", after, 2)

    async def main():
        with pytest.raises(RuntimeError, match="handler blew up"):
            await bus.trigger("E")

    rt.run(main())
