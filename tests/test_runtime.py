"""The runtime: SimRuntime surface and CancelScope."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from repro.errors import NoCurrentTask, TaskCancelled
from repro.runtime import CancelScope, SimRuntime
from repro.sim.kernel import current_task


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
        seen["kernel"] = await current_task()
        seen["sync"] = rt.current_handle_nowait()

    rt.run(main())
    assert seen["kernel"] is seen["sync"]
    with pytest.raises(NoCurrentTask):
        rt.current_handle_nowait()


def test_primitive_factories_are_independent_instances():
    rt = SimRuntime()
    assert rt.semaphore(2) is not rt.semaphore(2)
    assert rt.lock() is not rt.lock()
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


def _perf_tracer():
    """``benchmarks/perf/tracer.py``, loaded by path (it is not part of
    the ``repro`` package)."""
    path = (Path(__file__).resolve().parents[1]
            / "benchmarks" / "perf" / "tracer.py")
    spec = importlib.util.spec_from_file_location("perf_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Plain methods that return a coroutine, which the tracer wraps as
#: async: ``GroupRPC.pop`` hands back the bus's dispatch, and the async
#: wrapper awaits it like a coroutine function's result.
_RETURN_COROUTINES = {"GroupRPC.pop"}


def _shape(fn, qualname=""):
    if qualname in _RETURN_COROUTINES or inspect.iscoroutinefunction(fn):
        return "async"
    return "sync"


def test_tracer_patch_seams_exist():
    """Every seam the perf tracer wraps is its owner's own class-dict
    entry, keeps the sync/async shape the tracer wraps it with, and is
    restored when the tracer is uninstalled.  A renamed, inherited or
    sync-flipped seam would otherwise fail only the perf smoke run, or
    silently drop a layer from its ledger."""
    tracer = _perf_tracer().LayerTracer()
    patch_layers = tracer._patch_layers
    patched, missing = [], []

    def checked_patch_layers(patch, undo):
        def checked(owner, name, layer, **kwargs):
            if name in vars(owner):
                patch(owner, name, layer, **kwargs)
            else:
                missing.append(f"{owner.__name__}.{name}")
        patch_layers(checked, undo)
        patched.extend(undo)

    tracer._patch_layers = checked_patch_layers
    marshal = importlib.import_module("repro.stubs.marshal")
    hook = marshal._PROFILER
    with tracer.installed():
        assert missing == []
        assert len(patched) > 40
        for owner, name, original in patched:
            wrapped = vars(owner)[name]
            seam = f"{owner.__name__}.{name}"
            assert wrapped is not original
            assert _shape(wrapped) == _shape(original, seam), (
                f"{seam} is {_shape(original, seam)}; the tracer wraps "
                f"it as {_shape(wrapped)}")
    for owner, name, original in patched:
        assert vars(owner)[name] is original, f"{owner.__name__}.{name}"
    assert marshal._PROFILER is hook
