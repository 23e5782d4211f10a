"""Overhead guards for the observability layer, disabled and enabled.

The obs contract: instrumented components resolve the recorder and the
profiler ONCE (at attach/construction time); there is one dispatch path,
``EventBus.trigger``, on which a disabled deployment pays a single
``is None`` pair per trigger and an enabled one a fixed, countable
amount per handler.  This module guards that contract three ways:

* structurally — a disabled recorder is never installed, nothing records;
* by count — an instrumented trigger over k handlers reads the clock
  k + 1 times, and ``trigger`` stays one coroutine function on the class
  (the seam ``benchmarks/perf``'s tracer patches), never shadowed on an
  instance;
* empirically — the event-dispatch hot loop with tracing disabled stays
  within 5% of a baseline running the pre-instrumentation trigger loop
  (the exact code minus the ``_obs`` check), using interleaved min-of-k
  timing so scheduler noise cancels.
"""

import inspect
import time

import pytest

from repro.core.events import EventBus, _Dispatch
from repro.errors import NoCurrentTask
from repro.obs import Recorder
from repro.runtime import SimRuntime

TRIGGERS = 2000
SAMPLES = 5
ATTEMPTS = 3
THRESHOLD = 1.05


async def _raw_trigger(self, event, *args):
    """The pre-instrumentation trigger loop: EventBus.trigger as it would
    stand without the obs layer — no ``_obs``/``_prof`` test, no compiled
    tables — keeping the bus's bookkeeping, one ``_Dispatch`` record per
    trigger linked to the running context's enclosing one on the kernel.
    It is the timing baseline only; the bus itself has a single path
    that serves both cases."""
    snapshot = list(self._handlers.get(event, []))
    if not snapshot:
        return True
    kernel = self._kernel
    if kernel._current is None:
        raise NoCurrentTask("no task is currently executing")
    dispatch = kernel._dispatch = _Dispatch(self, event, kernel._dispatch)
    try:
        for reg in snapshot:
            if dispatch.cancelled:
                break
            await reg.handler(*args)
    finally:
        kernel._dispatch = dispatch.outer
    return not dispatch.cancelled


def _dispatch_loop_seconds(*, raw: bool) -> float:
    """Wall-clock for TRIGGERS sequential dispatches of 3 handlers."""
    runtime = SimRuntime()
    runtime.attach_obs(None)  # the disabled path
    bus = EventBus(runtime)
    hits = []

    async def handler(arg):
        hits.append(arg)

    for prio in (1, 2, 3):
        bus.register("EVT", handler, prio, owner=f"micro-{prio}")

    trigger = _raw_trigger.__get__(bus) if raw else bus.trigger

    async def loop():
        for i in range(TRIGGERS):
            await trigger("EVT", i)

    start = time.perf_counter()
    runtime.run(loop())
    elapsed = time.perf_counter() - start
    assert len(hits) == 3 * TRIGGERS  # both variants did the same work
    return elapsed


def test_disabled_recorder_is_never_installed():
    runtime = SimRuntime()
    runtime.attach_obs(None)
    assert runtime.obs is None
    bus = EventBus(runtime)
    assert bus._obs is None  # dispatch stays on the untraced branch

    async def noop():
        pass

    bus.register("EVT", noop, 1, owner="micro")
    runtime.run(bus.trigger("EVT"))


def test_enabled_recorder_is_installed():
    runtime = SimRuntime()
    rec = Recorder()
    runtime.attach_obs(rec)
    assert runtime.obs is rec
    assert EventBus(runtime)._obs is rec


def test_observatory_hooks_absent_by_default():
    """Every observatory seam holds None unless observatory=True.

    The profiler, the SLO tracker, the flight recorder and the load
    tracker each ride an attach-once hook; a default deployment must
    leave all of them unresolved so the hot paths stay on their single
    ``is None`` test (kernel step, event dispatch, wire send, route,
    call return, marshal).
    """
    import importlib

    from repro import Deployment

    deployment = Deployment()
    assert deployment.observatory is None
    assert deployment.flight is None       # rebinds go untaped
    assert deployment._slo is None         # call latencies unobserved
    assert deployment.runtime.profiler is None
    assert deployment.runtime.kernel.profile_hook is None
    assert deployment.fabric.pipeline.flight is None
    marshal = importlib.import_module("repro.stubs.marshal")
    assert marshal._PROFILER is None
    bus = EventBus(deployment.runtime)
    assert bus._obs is None and bus._prof is None
    deployment.shutdown()


def test_instrumented_trigger_reads_the_clock_once_per_handler():
    """k handlers, k + 1 clock reads: a handler starts at the instant
    its predecessor ended, so only the ends are read (the profiler's
    durations and the recorder's start/end pairs come from those)."""
    from repro.obs.profiler import KernelProfiler

    class CountingRuntime(SimRuntime):
        reads = 0

        def now(self):
            self.reads += 1
            return super().now()

    for attach in ("profiler", "recorder", "both"):
        runtime = CountingRuntime()
        if attach != "recorder":
            runtime.attach_profiler(KernelProfiler())
        if attach != "profiler":
            runtime.attach_obs(Recorder())
        bus = EventBus(runtime)

        async def handler():
            pass

        async def canceller():
            bus.cancel_event()

        for prio in range(4):
            bus.register("EVT", handler, prio, owner=f"micro-{prio}")
        bus.register("CUT", handler, 1)
        bus.register("CUT", canceller, 2)
        bus.register("CUT", handler, 3)
        reads = []

        async def main():
            for event in ("EVT", "CUT", "NONE"):
                before = runtime.reads
                await bus.trigger(event)
                reads.append(runtime.reads - before)

        runtime.run(main())
        # record_handler is handed its times; the recorder's own
        # "cancel_event" record stamps itself (one more read).
        stamp = 0 if attach == "profiler" else 1
        assert reads == [4 + 1, 2 + 1 + stamp, 0], (attach, reads)


def test_trigger_is_one_coroutine_function_on_the_class():
    """The seam outside tracers patch: ``EventBus.trigger`` is an
    ``async def`` in the class dict, whatever is attached, and no
    instance carries its own."""
    from repro.obs.profiler import KernelProfiler

    assert "trigger" in EventBus.__dict__
    assert inspect.iscoroutinefunction(EventBus.__dict__["trigger"])
    assert not hasattr(EventBus, "_trigger_traced")
    plain = EventBus(SimRuntime())
    runtime = SimRuntime()
    runtime.attach_profiler(KernelProfiler())
    runtime.attach_obs(Recorder())
    observed = EventBus(runtime)
    assert observed._prof is runtime.profiler and observed._obs is runtime.obs
    for bus in (plain, observed):
        assert "trigger" not in vars(bus)
        assert type(bus).trigger is EventBus.__dict__["trigger"]


def test_disabled_marshal_loop_does_not_profile():
    """The marshaller's module-global hook: nothing recorded, and the
    disabled loop costs a single global read per call."""
    import importlib

    marshal = importlib.import_module("repro.stubs.marshal")
    assert marshal._PROFILER is None
    payload = {"key": "k", "value": list(range(8))}
    for _ in range(100):
        marshal.unmarshal(marshal.marshal(payload))
    assert marshal._PROFILER is None       # round-trips installed nothing


def test_disabled_dispatch_overhead_under_5_percent():
    # Interleaved min-of-k: the minimum over several alternating samples
    # discards scheduler interference; retry the whole comparison a
    # couple of times before declaring a real regression.
    for attempt in range(ATTEMPTS):
        baseline, guarded = [], []
        for _ in range(SAMPLES):
            baseline.append(_dispatch_loop_seconds(raw=True))
            guarded.append(_dispatch_loop_seconds(raw=False))
        ratio = min(guarded) / min(baseline)
        if ratio < THRESHOLD:
            break
    assert ratio < THRESHOLD, (
        f"disabled-tracing dispatch is {ratio:.3f}x the raw baseline "
        f"(limit {THRESHOLD}); the disabled hot path must stay a single "
        f"is-None check")
