"""Unit tests for the simulation kernel: scheduling, time, cancellation."""

import weakref

import pytest

from repro.errors import KernelError, TaskCancelled
from repro.sim import (
    Kernel,
    Semaphore,
    checkpoint_yield,
    current_kernel,
    current_task,
    sleep,
    spawn,
)


def test_run_returns_main_result():
    async def main():
        return 42

    assert Kernel().run(main()) == 42


def test_run_propagates_main_exception():
    async def main():
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        Kernel().run(main())


def test_virtual_time_advances_on_sleep():
    kernel = Kernel()

    async def main():
        assert kernel.now == 0.0
        await sleep(2.5)
        assert kernel.now == 2.5
        await sleep(0.5)
        return kernel.now

    assert kernel.run(main()) == 3.0


def test_sleep_zero_yields_but_keeps_time():
    kernel = Kernel()
    order = []

    async def child():
        order.append("child")

    async def main():
        await spawn(child())
        await sleep(0)
        order.append("main")

    kernel.run(main())
    assert order == ["child", "main"]
    assert kernel.now == 0.0


def test_spawn_runs_concurrently_in_fifo_order():
    kernel = Kernel()
    order = []

    async def worker(tag, delay):
        await sleep(delay)
        order.append(tag)

    async def main():
        t1 = await spawn(worker("a", 2.0))
        t2 = await spawn(worker("b", 1.0))
        await t1.join()
        await t2.join()

    kernel.run(main())
    assert order == ["b", "a"]


def test_join_returns_result_and_reraises():
    async def ok():
        return "fine"

    async def bad():
        raise RuntimeError("nope")

    async def main():
        t_ok = await spawn(ok())
        assert await t_ok.join() == "fine"
        t_bad = await spawn(bad())
        with pytest.raises(RuntimeError, match="nope"):
            await t_bad.join()

    Kernel().run(main())


def test_join_finished_task_returns_immediately():
    async def quick():
        return 7

    async def main():
        task = await spawn(quick())
        await sleep(1)
        assert task.done
        assert await task.join() == 7

    Kernel().run(main())


def test_cancel_sleeping_task():
    kernel = Kernel()
    witness = []

    async def sleeper():
        try:
            await sleep(100)
            witness.append("finished")
        except TaskCancelled:
            witness.append("cancelled")
            raise

    async def main():
        task = await spawn(sleeper())
        await sleep(1)
        assert task.cancel()
        with pytest.raises(TaskCancelled):
            await task.join()

    kernel.run(main())
    assert witness == ["cancelled"]
    assert kernel.now == 1.0  # did not wait out the 100s sleep


def test_cancel_finished_task_returns_false():
    async def quick():
        return 1

    async def main():
        task = await spawn(quick())
        await sleep(0)
        assert task.cancel() is False

    Kernel().run(main())


def test_self_cancel_is_rejected():
    async def main():
        me = await current_task()
        with pytest.raises(KernelError):
            me.cancel()

    Kernel().run(main())


def test_unjoined_failure_surfaces_in_strict_mode():
    async def bad():
        raise RuntimeError("lost")

    async def main():
        await spawn(bad())
        await sleep(1)

    with pytest.raises(KernelError, match="lost"):
        Kernel().run(bad_main := main())


def test_daemon_tasks_cancelled_at_shutdown():
    kernel = Kernel()
    beats = []

    async def heartbeat():
        while True:
            beats.append(kernel.now)
            await sleep(1.0)

    async def main():
        await spawn(heartbeat(), daemon=True)
        await sleep(3.5)

    kernel.run(main())
    assert beats == [0.0, 1.0, 2.0, 3.0]


def test_call_later_fires_in_order():
    kernel = Kernel()
    fired = []
    kernel.call_later(2.0, lambda: fired.append("b"))
    kernel.call_later(1.0, lambda: fired.append("a"))
    kernel.call_later(2.0, lambda: fired.append("c"))  # same time: FIFO
    kernel.run_until_idle()
    assert fired == ["a", "b", "c"]
    assert kernel.now == 2.0


def test_call_later_cancel():
    kernel = Kernel()
    fired = []
    timer = kernel.call_later(1.0, lambda: fired.append("x"))
    timer.cancel()
    kernel.run_until_idle()
    assert fired == []


def test_run_until_advances_clock_even_when_idle():
    kernel = Kernel()
    kernel.run_until(5.0)
    assert kernel.now == 5.0
    kernel.run_for(2.0)
    assert kernel.now == 7.0


def test_run_until_does_not_fire_later_timers():
    kernel = Kernel()
    fired = []
    kernel.call_later(10.0, lambda: fired.append("late"))
    kernel.run_until(5.0)
    assert fired == []
    kernel.run_until(15.0)
    assert fired == ["late"]


def test_current_kernel_inside_and_outside():
    from repro.errors import NoCurrentTask

    with pytest.raises(NoCurrentTask):
        current_kernel()

    kernel = Kernel()

    async def main():
        assert current_kernel() is kernel

    kernel.run(main())


def test_checkpoint_yield_interleaves_equal_tasks():
    kernel = Kernel()
    order = []

    async def worker(tag):
        for i in range(3):
            order.append((tag, i))
            await checkpoint_yield()

    async def main():
        t1 = await spawn(worker("a"))
        t2 = await spawn(worker("b"))
        await t1.join()
        await t2.join()

    kernel.run(main())
    assert order == [("a", 0), ("b", 0), ("a", 1), ("b", 1),
                     ("a", 2), ("b", 2)]


def test_nested_run_is_rejected():
    kernel = Kernel()

    async def main():
        with pytest.raises(KernelError):
            kernel.run_until_idle()

    kernel.run(main())


def test_determinism_same_program_same_schedule():
    def run_once():
        kernel = Kernel()
        trace = []

        async def worker(tag, delay):
            await sleep(delay)
            trace.append((tag, kernel.now))

        async def main():
            for i in range(10):
                await spawn(worker(i, (i * 7) % 5 + 0.5))
            await sleep(10)

        kernel.run(main())
        return trace

    assert run_once() == run_once()


# ---------------------------------------------------------------------------
# Kernel.start: a task's first step, taken where the loop would take it next
# ---------------------------------------------------------------------------

def test_start_steps_at_once_from_a_timer_action():
    kernel = Kernel()
    log = []

    async def arrival():
        log.append("stepped")
        await sleep(1.0)
        log.append("resumed")

    def deliver():
        task = kernel.start(arrival(), name="arrival")
        log.append(("returned", task.done))

    kernel.call_later(0.5, deliver)
    kernel.run_until_idle()
    assert log == ["stepped", ("returned", False), "resumed"]
    assert kernel.now == 1.5


def test_start_is_spawn_from_setup_code_and_inside_a_task():
    kernel = Kernel()
    log = []

    async def child(tag):
        log.append(tag)

    task = kernel.start(child("setup"))
    assert log == [] and not task.done

    async def main():
        kernel.start(child("in-task"))
        log.append("main")
        await checkpoint_yield()

    kernel.run(main())
    assert log == ["setup", "main", "in-task"]


def test_start_behind_queued_work_is_spawn():
    kernel = Kernel()
    log = []

    async def tagged(tag):
        log.append(tag)

    def action():
        kernel.spawn(tagged("queued first"))
        kernel.start(tagged("started second"))
        log.append("action done")

    kernel.call_later(1.0, action)
    kernel.run_until_idle()
    assert log == ["action done", "queued first", "started second"]


def _same_instant_deliveries(launch_with):
    """Two deliveries due at one instant, each waking a parked task and
    spawning a child; returns what ran, in order, and the counters."""
    kernel = Kernel()
    log, stepped_in_action = [], []
    gate = Semaphore(0)

    async def waiter(tag):
        await gate.acquire()
        log.append((tag, "woken"))
        await checkpoint_yield()
        log.append((tag, "done"))

    async def echo(tag):
        log.append((tag, "child"))

    async def arrival(tag):
        log.append((tag, "in"))
        gate.release()
        await spawn(echo(tag))
        await checkpoint_yield()
        log.append((tag, "out"))

    def deliver(tag):
        getattr(kernel, launch_with)(arrival(tag), name=f"msg-{tag}",
                                     daemon=True)
        stepped_in_action.append((tag, "in") in log)

    for tag in ("w1", "w2"):
        kernel.spawn(waiter(tag))
    for tag in ("a", "b"):
        kernel.call_later(1.0, lambda tag=tag: deliver(tag))
    kernel.run_until_idle()
    stats = kernel.stats()
    return (log, stats["steps_executed"], stats["tasks_spawned"],
            stepped_in_action)


def test_same_instant_deliveries_run_exactly_as_spawned():
    *started, immediate = _same_instant_deliveries("start")
    *spawned, deferred = _same_instant_deliveries("spawn")
    assert immediate == [True, True] and deferred == [False, False]
    assert started == spawned


def test_timer_drops_its_action_once_fired_or_cancelled():
    """An action that refers back to its own timer must not keep both
    alive in a reference cycle after the timer is spent."""
    kernel = Kernel()
    fired = kernel.call_later(1.0, lambda: None)
    cancelled = kernel.call_later(1.0, lambda: None)
    cancelled.cancel()
    kernel.run_until_idle()
    assert fired.action is None and cancelled.action is None


def test_task_ids_and_envelope_seqs_stay_unique_and_increasing():
    """Ids and sequence numbers come from module-level counters (no class
    attribute is written per task or per envelope): every new one is
    larger than the last, across kernels too."""
    from repro.net.message import Envelope

    ids = []
    for _ in range(3):
        kernel = Kernel()

        async def noop():
            pass

        for _ in range(5):
            ids.append(kernel.spawn(noop()).id)
        ids.append(kernel.start(noop()).id)
        kernel.run_until_idle()
    assert ids == sorted(set(ids)) and len(ids) == 18
    seqs = [Envelope(1, 2, None, 0.0).seq for _ in range(10)]
    assert seqs == sorted(set(seqs))
    assert Envelope(1, 2, None, 0.0, seq=7).seq == 7
    assert Envelope(1, 2, None, 0.0).seq > seqs[-1]


def test_a_task_finished_in_its_started_step_never_enters_the_table():
    """An inline start that finishes in its first step is no task at
    all; one that parks enters the table as a task."""
    kernel = Kernel()
    seen = []

    async def quick():
        seen.append("quick")

    async def parks():
        await sleep(1.0)

    def deliver():
        seen.append(kernel.start(quick()))
        seen.append(kernel.start(parks()))

    kernel.call_later(0.5, deliver)
    kernel.run_until(0.75)
    _, finished, parked = seen
    assert finished is None and not parked.done
    assert list(kernel.live_tasks()) == [parked]
    assert kernel.stats()["tasks_spawned"] == 1
    kernel.run_until_idle()
    assert list(kernel.live_tasks()) == []


# ---------------------------------------------------------------------------
# Inline runs: a started coroutine becomes a task only when it needs one
# ---------------------------------------------------------------------------

def _start_at(kernel, when, coro, **kwargs):
    """Start ``coro`` from a timer action at ``when``; the returned list
    receives what ``start`` returned."""
    started = []
    kernel.call_later(
        when, lambda: started.append(kernel.start(coro, **kwargs)))
    return started


def test_an_inline_run_keeps_one_task_across_a_park():
    kernel = Kernel()
    seen = []

    async def arrival():
        before = await current_task()
        await sleep(1.0)
        seen.extend((before, await current_task()))

    started = _start_at(kernel, 0.5, arrival(), name="msg", serial=7)
    kernel.run_until_idle()
    task, = started
    assert seen == [task, task] and task.name == "msg-7"
    assert kernel.stats()["tasks_spawned"] == 1


def test_asking_for_the_handle_makes_the_task_on_the_spot():
    from repro.runtime import SimRuntime

    rt = SimRuntime()
    seen = []

    async def arrival():
        seen.append(rt.current_handle_nowait())
        seen.append(await current_task())

    started = _start_at(rt.kernel, 0.5, arrival(), name="msg")
    rt.run_until_idle()
    assert started == [None]                  # not live after its step
    first, second = seen
    assert first is second and first.done and first.name == "msg"
    assert rt.kernel.stats()["tasks_spawned"] == 1


@pytest.mark.parametrize("exc", [ValueError("boom"), TaskCancelled()])
@pytest.mark.parametrize("daemon", [False, True])
def test_an_inline_failure_is_accounted_as_a_tasks(daemon, exc):
    def failures(launch):
        kernel = Kernel()

        async def arrival():
            raise exc

        kernel.call_later(0.5, lambda: getattr(kernel, launch)(
            arrival(), name="msg", daemon=daemon))
        kernel.run_until_idle(strict=False)
        stats = kernel.stats()
        return ([(task.name, task.done, repr(err))
                 for task, err in kernel.failures],
                stats["steps_executed"], stats["tasks_spawned"])

    expected = [("msg", True, "ValueError('boom')")]
    if daemon or isinstance(exc, TaskCancelled):
        expected = []
    assert failures("start") == failures("spawn") == (expected, 1, 1)


def test_a_profile_hook_sees_every_step_with_its_task():
    kernel = Kernel()
    steps = []
    kernel.profile_hook = steps.append

    async def parks():
        await sleep(1.0)

    async def quick():
        pass

    parked = _start_at(kernel, 0.5, parks(), name="parks")
    finished = _start_at(kernel, 2.0, quick(), name="quick")
    kernel.run_until_idle()
    task, = parked
    assert finished == [None]
    assert [step.name for step in steps] == ["parks", "parks", "quick"]
    assert steps[0] is steps[1] is task
    assert kernel.stats()["steps_executed"] == len(steps)
    assert kernel.stats()["tasks_spawned"] == 2


def test_a_parked_arrival_is_in_its_nodes_scope_and_dies_with_it():
    from repro.net import Envelope, NetworkFabric, Node, UnreliableTransport
    from repro.runtime import SimRuntime
    from repro.xkernel import Protocol

    rt = SimRuntime()
    node = Node(1, rt, NetworkFabric(rt))
    node.start()
    log = []

    async def handle(payload):
        log.append(payload)
        if payload == "parks":
            try:
                await sleep(10.0)
            except TaskCancelled:
                log.append("cancelled")
                raise

    class Top(Protocol):
        def pop(self, payload, sender):
            return handle(payload)

    UnreliableTransport(node)

    node.attach(object, Top("top"))
    for when, payload in ((0.5, "quick"), (1.0, "parks")):
        rt.call_later(when, lambda payload=payload: node.deliver(
            Envelope(2, 1, payload, 0.0)))
    rt.call_later(2.0, node.crash)
    rt.run_until_idle()
    assert log == ["quick", "parks", "cancelled"]
    assert rt.kernel.stats()["tasks_spawned"] == 1     # "quick" was none
    assert rt.now() == 2.0


def test_a_finished_inline_run_leaves_nothing_behind():
    kernel = Kernel()

    async def quick():
        pass

    coro = quick()
    ref = weakref.ref(coro)
    started = _start_at(kernel, 0.5, coro)
    del coro
    kernel.run_until_idle()
    assert started == [None] and ref() is None
