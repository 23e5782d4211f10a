"""Unit tests for semaphores, locks, events, conditions, and queues."""

import pytest

from repro.errors import KernelError, TaskCancelled
from repro.sim import (
    Condition,
    Event,
    Kernel,
    Lock,
    Queue,
    Semaphore,
    sleep,
    spawn,
)


def test_semaphore_uncontended_acquire_does_not_yield():
    kernel = Kernel()
    order = []

    async def other():
        order.append("other")

    async def main():
        sem = Semaphore(1)
        await spawn(other())
        await sem.acquire()   # free: must not yield to `other`
        order.append("main")
        sem.release()
        await sleep(0)

    kernel.run(main())
    assert order == ["main", "other"]


def test_semaphore_blocks_at_zero_and_fifo_wakeup():
    kernel = Kernel()
    sem = Semaphore(0)
    order = []

    async def waiter(tag):
        await sem.acquire()
        order.append(tag)

    async def main():
        for tag in ("a", "b", "c"):
            await spawn(waiter(tag))
        await sleep(1)
        sem.release()
        sem.release()
        sem.release()
        await sleep(1)

    kernel.run(main())
    assert order == ["a", "b", "c"]


def test_semaphore_release_does_not_preempt():
    kernel = Kernel()
    sem = Semaphore(0)
    order = []

    async def waiter():
        await sem.acquire()
        order.append("waiter")

    async def main():
        await spawn(waiter())
        await sleep(1)
        sem.release()
        order.append("releaser-continues")
        await sleep(0)

    kernel.run(main())
    assert order == ["releaser-continues", "waiter"]


def test_semaphore_value_tracking():
    kernel = Kernel()

    async def main():
        sem = Semaphore(2)
        assert sem.value == 2
        await sem.acquire()
        await sem.acquire()
        assert sem.value == 0
        assert sem.locked()
        sem.release()
        assert sem.value == 1

    kernel.run(main())


def test_semaphore_negative_value_rejected():
    with pytest.raises(ValueError):
        Semaphore(-1)


def test_semaphore_reset_wakes_waiters():
    kernel = Kernel()
    sem = Semaphore(0)
    woken = []

    async def waiter(tag):
        await sem.acquire()
        woken.append(tag)

    async def main():
        await spawn(waiter("a"))
        await spawn(waiter("b"))
        await sleep(1)
        sem.reset(2)
        await sleep(1)

    kernel.run(main())
    assert woken == ["a", "b"]


def test_semaphore_context_manager():
    kernel = Kernel()

    async def main():
        sem = Semaphore(1)
        async with sem:
            assert sem.locked()
        assert sem.value == 1

    kernel.run(main())


def test_cancelled_waiter_is_removed_from_semaphore():
    kernel = Kernel()
    sem = Semaphore(0)
    outcome = []

    async def waiter():
        try:
            await sem.acquire()
            outcome.append("acquired")
        except TaskCancelled:
            outcome.append("cancelled")
            raise

    async def main():
        task = await spawn(waiter())
        await sleep(1)
        task.cancel()
        await sleep(0)
        sem.release()  # should not be consumed by the dead waiter
        assert sem.value == 1

    kernel.run(main())
    assert outcome == ["cancelled"]


def test_lock_release_unlocked_raises():
    kernel = Kernel()

    async def main():
        lock = Lock()
        with pytest.raises(KernelError):
            lock.release()
        await lock.acquire()
        lock.release()

    kernel.run(main())


def test_lock_mutual_exclusion():
    kernel = Kernel()
    lock = Lock()
    trace = []

    async def critical(tag):
        async with lock:
            trace.append((tag, "in"))
            await sleep(1)
            trace.append((tag, "out"))

    async def main():
        t1 = await spawn(critical("a"))
        t2 = await spawn(critical("b"))
        await t1.join()
        await t2.join()

    kernel.run(main())
    assert trace == [("a", "in"), ("a", "out"), ("b", "in"), ("b", "out")]


def test_event_set_wakes_all_waiters():
    kernel = Kernel()
    event = Event()
    woken = []

    async def waiter(tag):
        await event.wait()
        woken.append(tag)

    async def main():
        for tag in range(3):
            await spawn(waiter(tag))
        await sleep(1)
        assert not event.is_set()
        event.set()
        await sleep(0)
        await event.wait()  # already set: returns immediately

    kernel.run(main())
    assert woken == [0, 1, 2]


def test_event_clear_allows_rewait():
    kernel = Kernel()
    event = Event()

    async def main():
        event.set()
        await event.wait()
        event.clear()
        assert not event.is_set()

    kernel.run(main())


def test_condition_wait_notify():
    kernel = Kernel()
    cond = Condition()
    items = []
    got = []

    async def consumer():
        async with cond:
            while not items:
                await cond.wait()
            got.append(items.pop())

    async def main():
        task = await spawn(consumer())
        await sleep(1)
        async with cond:
            items.append("x")
            cond.notify()
        await task.join()

    kernel.run(main())
    assert got == ["x"]


def test_condition_wait_requires_lock():
    kernel = Kernel()

    async def main():
        cond = Condition()
        with pytest.raises(KernelError):
            await cond.wait()

    kernel.run(main())


def test_condition_notify_all():
    kernel = Kernel()
    cond = Condition()
    woken = []

    async def waiter(tag):
        async with cond:
            await cond.wait()
            woken.append(tag)

    async def main():
        tasks = [await spawn(waiter(i)) for i in range(3)]
        await sleep(1)
        async with cond:
            cond.notify_all()
        for t in tasks:
            await t.join()

    kernel.run(main())
    assert sorted(woken) == [0, 1, 2]


def test_queue_fifo_and_blocking_get():
    kernel = Kernel()
    queue = Queue()
    got = []

    async def consumer():
        for _ in range(3):
            got.append(await queue.get())

    async def main():
        task = await spawn(consumer())
        await sleep(1)
        queue.put(1)
        queue.put(2)
        queue.put(3)
        await task.join()

    kernel.run(main())
    assert got == [1, 2, 3]


def test_queue_get_nowait_and_len():
    kernel = Kernel()

    async def main():
        queue = Queue()
        queue.put("a")
        queue.put("b")
        assert len(queue) == 2
        assert queue.get_nowait() == "a"
        assert not queue.empty()
        queue.clear()
        assert queue.empty()
        with pytest.raises(IndexError):
            queue.get_nowait()

    kernel.run(main())


def test_queue_handoff_to_waiting_getter():
    kernel = Kernel()
    queue = Queue()
    got = []

    async def consumer():
        got.append(await queue.get())

    async def main():
        await spawn(consumer())
        await sleep(1)
        queue.put("direct")
        assert queue.empty()  # handed straight to the waiter
        await sleep(0)

    kernel.run(main())
    assert got == ["direct"]


# ---------------------------------------------------------------------------
# A waiter woken and then cancelled before it runs passes its wakeup on
# ---------------------------------------------------------------------------

def _woken_then_cancelled(wait, wake):
    """Two tasks wait; ``wake()`` hands one wakeup to the first, which is
    cancelled in the same instant, before it runs.  Returns what each
    waiter got."""
    kernel = Kernel()
    got = []

    async def waiter(tag):
        try:
            got.append((tag, await wait()))
        except TaskCancelled:
            got.append((tag, "cancelled"))
            raise

    async def main():
        first = await spawn(waiter("A"))
        await spawn(waiter("B"))
        await sleep(1)
        wake()
        first.cancel()
        await sleep(1)

    kernel.run(main())
    return got


def test_a_cancelled_waiter_passes_its_semaphore_permit_on():
    sem = Semaphore(0)
    got = _woken_then_cancelled(sem.acquire, sem.release)
    assert got == [("A", "cancelled"), ("B", None)]
    assert sem.value == 0


def test_a_permit_handed_to_a_cancelled_lone_waiter_returns():
    kernel = Kernel()
    sem = Semaphore(0)

    async def main():
        waiter = await spawn(sem.acquire())
        await sleep(1)
        sem.release()
        waiter.cancel()
        await sleep(1)
        assert waiter.cancelled and sem.value == 1

    kernel.run(main())


def test_a_cancelled_waiter_passes_the_lock_on():
    lock = Lock()
    kernel = Kernel()

    async def hold():
        await lock.acquire()

    kernel.run(hold())
    got = _woken_then_cancelled(lock.acquire, lock.release)
    assert got == [("A", "cancelled"), ("B", None)]
    assert lock.locked()


def test_a_cancelled_getter_passes_its_item_on():
    queue = Queue()
    got = _woken_then_cancelled(queue.get, lambda: queue.put("item"))
    assert got == [("A", "cancelled"), ("B", "item")]
    assert queue.empty()


def test_an_item_handed_to_a_cancelled_lone_getter_is_requeued_first():
    kernel = Kernel()
    queue = Queue()

    async def main():
        getter = await spawn(queue.get())
        await sleep(1)
        queue.put("first")
        queue.put("second")
        getter.cancel()
        await sleep(1)
        assert [queue.get_nowait(), queue.get_nowait()] == ["first",
                                                            "second"]

    kernel.run(main())


def test_a_cancelled_waiter_passes_a_notification_on():
    cond = Condition()
    kernel = Kernel()
    got = []

    async def waiter(tag):
        async with cond:
            try:
                await cond.wait()
            except TaskCancelled:
                got.append((tag, "cancelled"))
                raise
            got.append((tag, "notified"))

    async def main():
        first = await spawn(waiter("A"))
        await spawn(waiter("B"))
        await sleep(1)
        async with cond:
            cond.notify()
        first.cancel()
        await sleep(1)

    kernel.run(main())
    assert got == [("A", "cancelled"), ("B", "notified")]


def test_a_waiter_woken_by_an_event_may_be_cancelled():
    kernel = Kernel()
    event = Event()

    async def main():
        waiter = await spawn(event.wait())
        await sleep(1)
        event.set()
        waiter.cancel()
        await sleep(1)
        assert waiter.cancelled

    kernel.run(main())


def test_a_waiter_that_ran_with_its_permit_passes_nothing_on_later():
    kernel = Kernel()
    sem = Semaphore(0)

    async def holder():
        await sem.acquire()
        await sleep(5)          # holds the permit, then is cancelled

    async def main():
        task = await spawn(holder())
        await sleep(1)
        sem.release()
        await sleep(1)
        task.cancel()
        await sleep(1)
        assert task.cancelled and sem.value == 0

    kernel.run(main())


def test_a_wakeup_is_passed_on_when_cancelled_between_runs():
    kernel = Kernel()
    sem = Semaphore(0)

    async def setup():
        first = await spawn(sem.acquire())
        second = await spawn(sem.acquire())
        await sleep(1)
        return first, second

    first, second = kernel.run(setup(), shutdown=False)
    sem.release()
    first.cancel()
    kernel.run_until_idle()
    assert first.cancelled
    assert second.done and not second.cancelled and sem.value == 0
