"""The runtime: SimRuntime surface and CancelScope."""

import importlib

import pytest

from repro.errors import NoCurrentTask, TaskCancelled
from repro.runtime import CancelScope, SimRuntime


def test_now_tracks_virtual_clock():
    rt = SimRuntime()
    assert rt.now() == 0.0
    rt.run_for(2.5)
    assert rt.now() == 2.5


def test_sleep_and_spawn_roundtrip():
    rt = SimRuntime()
    log = []

    async def child():
        await rt.sleep(1.0)
        log.append(rt.now())
        return "done"

    async def main():
        handle = rt.spawn(child(), name="child")
        assert await rt.join(handle) == "done"

    rt.run(main())
    assert log == [1.0]


def test_call_later_handle_cancellation():
    rt = SimRuntime()
    fired = []
    keep = rt.call_later(1.0, lambda: fired.append("keep"))
    drop = rt.call_later(1.0, lambda: fired.append("drop"))
    drop.cancel()
    rt.run_for(2.0)
    assert fired == ["keep"]


def test_current_handle_inside_and_sync_variant():
    rt = SimRuntime()
    seen = {}

    async def main():
        seen["async"] = await rt.current_handle()
        seen["sync"] = rt.current_handle_nowait()

    rt.run(main())
    assert seen["async"] is seen["sync"]
    with pytest.raises(NoCurrentTask):
        rt.current_handle_nowait()


def test_primitive_factories_are_independent_instances():
    rt = SimRuntime()
    assert rt.semaphore(2) is not rt.semaphore(2)
    assert rt.lock() is not rt.lock()
    assert rt.queue() is not rt.queue()
    assert rt.event() is not rt.event()


def test_cancel_scope_kills_live_tasks_only():
    rt = SimRuntime()
    scope = CancelScope(rt)
    log = []

    async def quick():
        log.append("quick")

    async def slow(tag):
        try:
            await rt.sleep(100)
            log.append(f"{tag}-finished")
        except TaskCancelled:
            log.append(f"{tag}-cancelled")
            raise

    async def main():
        scope.spawn(quick())
        scope.spawn(slow("a"))
        scope.spawn(slow("b"))
        await rt.sleep(1.0)
        cancelled = scope.cancel_all()
        assert cancelled == 2      # quick already finished
        await rt.sleep(1.0)

    rt.run(main())
    assert sorted(log) == ["a-cancelled", "b-cancelled", "quick"]


def test_cancel_scope_adopt_external_handle():
    rt = SimRuntime()
    scope = CancelScope(rt)

    async def forever():
        await rt.sleep(1000)

    async def main():
        handle = rt.spawn(forever())
        scope.adopt(handle)
        assert scope.cancel_all() == 1
        await rt.sleep(0)
        assert handle.done

    rt.run(main())


def test_cancel_scope_prunes_finished_handles():
    rt = SimRuntime()
    scope = CancelScope(rt)

    async def quick():
        return None

    async def forever():
        await rt.sleep(1000)

    async def main():
        for _ in range(63):
            scope.spawn(quick())
        await rt.sleep(0)
        live = scope.spawn(forever())     # 64th handle triggers a prune
        assert scope._handles == [live]
        assert scope.cancel_all() == 1

    rt.run(main())


def test_cancel_all_empties_the_scope():
    rt = SimRuntime()
    scope = CancelScope(rt)

    async def forever():
        await rt.sleep(1000)

    async def main():
        scope.spawn(forever())
        assert scope.cancel_all() == 1
        assert scope.cancel_all() == 0   # second call: nothing tracked

    rt.run(main())


def test_run_until_idle_via_runtime():
    rt = SimRuntime()
    fired = []
    rt.call_later(3.0, lambda: fired.append(rt.now()))
    rt.run_until_idle()
    assert fired == [3.0]


def test_tracer_patch_seams_exist():
    """``benchmarks/perf/tracer.py`` imports this module path and patches
    these three methods in the class dict; renaming or inheriting them
    would silently drop the ``sim`` layer from the perf ledger."""
    module = importlib.import_module("repro.runtime.sim_runtime")
    assert module.SimRuntime is SimRuntime
    for name in ("sleep", "join", "spawn"):
        assert name in SimRuntime.__dict__
