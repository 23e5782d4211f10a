"""Child-side machinery every workload shares: seeded inputs, the
client-side key model that verifies outputs, the timed region with its
watchdog, and the arithmetic that turns raw counts into named metrics.

A *workload* (see ``workloads.py``) supplies five things — ``build``,
``plan``, ``launch``, ``virtual_budget`` and optionally ``audit`` /
``extras`` — and :func:`measure` drives them::

    setup (x repeats)   build deployment, preload, plan inputs, warm up
    timed region        launch the lanes, wait for the last completion
                        (or the virtual-time watchdog), cut the region
                        into equal completion-count chunks
    audit               workload-specific read-back, outside the region

Everything a workload draws comes from :meth:`Ctx.rng`, so one seed
fixes the inputs; the op count is fixed by the caller, so every count
and every virtual-time figure is exactly reproducible.
"""

from __future__ import annotations

import gc
import hashlib
import math
import random
import resource
import statistics
from time import perf_counter
from typing import Any, Callable, Dict, List, Sequence

from catalog import MICRO_OWNERS, SELF_LAYERS

from repro.core.deployment import Deployment
from repro.runtime import SimRuntime

#: The timed region is cut into this many equal completion-count chunks.
CHUNKS = 128

_NET_DROPS = ("net.drop-loss", "net.drop-dead", "net.drop-partition",
              "net.drop-filter", "net.drop-src-down")

_COUNTERS = ("net.send", "net.envelopes", "net.queue.waits",
             "net.fastlane.sends", "placement.router.lookups",
             "placement.view.stale_bounces", "repl.promotions",
             "repl.parked_writes", "repl.sync.calls") + _NET_DROPS


# ----------------------------------------------------------------------
# Seeded context
# ----------------------------------------------------------------------

class Ctx:
    """One run's seed, and the tracer every deployment must be born
    with (``None`` on untraced runs)."""

    def __init__(self, seed: int, tracer: Any = None):
        self.seed = seed
        self.tracer = tracer
        #: Mixed into key names, so a different seed is a different
        #: key set (and a different ring placement), not just a
        #: different order over the same keys.
        self.salt = hashlib.sha1(str(seed).encode()).hexdigest()[:6]

    def rng(self, *parts: Any) -> random.Random:
        """An independent stream per (seed, purpose); string seeds hash
        with SHA-512 inside ``random``, so PYTHONHASHSEED is irrelevant."""
        return random.Random(":".join(str(p) for p in (self.seed,) + parts))

    def runtime(self) -> SimRuntime:
        runtime = SimRuntime()
        if self.tracer is not None:
            self.tracer.attach_runtime(runtime)
        return runtime

    def adopt(self, deployment: Deployment) -> Deployment:
        if self.tracer is not None:
            self.tracer.adopt(deployment)
        return deployment

    def deployment(self, **kwargs: Any) -> Deployment:
        """A deployment seeded from the run seed, traced when the run is.
        Services must be added *after* this returns: event buses capture
        the runtime's profiler when they are built."""
        return self.adopt(Deployment(seed=self.seed, keep_trace=False,
                                     runtime=self.runtime(), **kwargs))


def digest(parts: Sequence[Any]) -> str:
    """Short stable fingerprint of a workload's generated inputs."""
    sha = hashlib.sha1()
    for part in parts:
        sha.update(repr(part).encode())
    return sha.hexdigest()[:16]


# ----------------------------------------------------------------------
# Output verification
# ----------------------------------------------------------------------

class KeyModel:
    """Client-side model of which values a read may legally return.

    Every write this client issues is recorded with the logical instants
    it began and ended (a counter bumped on every begin/end, so the
    order holds even when virtual time stands still).  A read that
    began at instant *r* may return the value of any write **not
    superseded before r** — a write is superseded once a later write,
    begun after it ended, has been acknowledged.  For a single-writer
    key that is exactly "the last acknowledged put"; under concurrent
    writers it is membership in the set of writes still in contention;
    writes that failed or never completed stay in the set, because they
    may or may not have taken effect.
    """

    def __init__(self) -> None:
        self._tick = 0
        #: key -> [[begin, end|None, value, acknowledged], ...]
        self._writes: Dict[Any, List[list]] = {}
        self._reading: Dict[Any, int] = {}

    def begin_write(self, key: Any, value: Any) -> list:
        self._tick += 1
        write = [self._tick, None, value, False]
        self._writes.setdefault(key, []).append(write)
        return write

    def end_write(self, key: Any, write: list, ok: bool) -> None:
        self._tick += 1
        write[1] = self._tick
        write[3] = ok
        # Superseded writes can be forgotten — unless a read is in
        # flight on the key, which may still legally observe them.
        if ok and not self._reading.get(key):
            begun = write[0]
            writes = self._writes[key]
            if len(writes) > 1:
                writes[:] = [w for w in writes
                             if w[1] is None or w[1] >= begun]

    def begin_read(self, key: Any) -> int:
        self._tick += 1
        self._reading[key] = self._reading.get(key, 0) + 1
        return self._tick

    def end_read(self, key: Any, began: int, value: Any) -> bool:
        """Close the read; True when ``value`` was a legal answer."""
        left = self._reading[key] - 1
        if left:
            self._reading[key] = left
        else:
            del self._reading[key]
        writes = self._writes.get(key, ())
        floor = max((w[0] for w in writes
                     if w[3] and w[1] is not None and w[1] < began),
                    default=0)
        for w in writes:
            if w[1] is not None and w[1] < floor:
                continue
            if w[2] == value:
                return True
        # Nothing acknowledged before the read: the store's initial
        # "no such key" is a legal answer too.
        return floor == 0 and value is None

    def acknowledged(self) -> Dict[Any, List[Any]]:
        """key -> values still legal for a read issued now (the audit)."""
        out: Dict[Any, List[Any]] = {}
        for key, writes in self._writes.items():
            floor = max((w[0] for w in writes if w[3]), default=0)
            if floor:
                out[key] = [w[2] for w in writes
                            if w[1] is None or w[1] >= floor]
        return out


# ----------------------------------------------------------------------
# The timed region
# ----------------------------------------------------------------------

class Run:
    """Completion bookkeeping for one driven phase (warm-up or timed)."""

    def __init__(self, now: Callable[[], float]):
        self.now = now
        #: Outlives the phases: the warm-up's writes are still in the
        #: store when the timed region reads.
        self.model = KeyModel()
        self.arm(0, lambda: None)

    def arm(self, total: int, on_finish: Callable[[], None]) -> None:
        self.total = total
        self.completed = self.ok = 0
        self.latencies: List[float] = []
        #: kind -> latencies, for workloads that tell reads from writes.
        self.by_kind: Dict[str, List[float]] = {}
        self.max_late = 0.0
        self.marks: List[float] = []
        self._chunk = -(-total // CHUNKS)
        self._next_mark = self._chunk
        self._on_finish = on_finish

    def done(self, ok: bool, latency: float, kind: str = "") -> None:
        """One call finished; ``ok`` means acknowledged *and* verified."""
        self.completed += 1
        if ok:
            self.ok += 1
        self.latencies.append(latency)
        if kind:
            self.by_kind.setdefault(kind, []).append(latency)
        if self.completed == self._next_mark:
            self.marks.append(perf_counter())
            self._next_mark += self._chunk
        if self.completed == self.total:
            self._on_finish()

    def late(self, by: float) -> None:
        if by > self.max_late:
            self.max_late = by


async def closed_lane(run: Run, ops: Sequence[Any],
                      perform: Callable[[Any], Any]) -> None:
    """A caller that waits for each reply before sending the next.
    ``perform(op)`` returns ``(ok, kind)``."""
    now = run.now
    for op in ops:
        begin = now()
        ok, kind = await perform(op)
        run.done(ok, now() - begin, kind)


async def open_lane(dep: Deployment, pid: int, run: Run,
                    ops: Sequence[Any], interval: float,
                    perform: Callable[[Any], Any],
                    window: int = 0) -> None:
    """Independent arrivals on a fixed virtual-time schedule: op *i* is
    due at ``start + i * interval`` whatever happened to its
    predecessors, runs in its own task, and is timed from its due
    instant.  ``window`` caps in-flight calls purely as a memory guard
    (bench_x17's admission window); how late it ever made the
    generator is reported."""
    runtime = dep.runtime
    now = runtime.now
    gate = runtime.semaphore(window) if window else None

    async def one(op: Any, due: float) -> None:
        try:
            ok, kind = await perform(op)
        finally:
            if gate is not None:
                gate.release()
        run.done(ok, now() - due, kind)

    start = now()
    for i, op in enumerate(ops):
        due = start + i * interval
        wait = due - now()
        if wait > 0:
            await runtime.sleep(wait)
        if gate is not None:
            await gate.acquire()
        run.late(now() - due)
        dep.spawn_client(pid, one(op, due))


def _execute(workload: Any, ctx: Ctx, state: Any, plan: Any,
             run: Run) -> None:
    """Drive one phase to its last completion — or to the watchdog: a
    virtual-time deadline after which whatever is still pending counts
    as failed instead of hanging the run."""
    dep = state.dep
    runtime = dep.runtime
    finished = runtime.event()
    run.arm(plan.n_ops, finished.set)
    watchdog = runtime.call_later(workload.virtual_budget(plan.n_ops),
                                  finished.set)

    async def main() -> None:
        workload.launch(ctx, state, plan, run)
        await finished.wait()

    dep.run_scenario(main())
    watchdog.cancel()


def _snapshot(dep: Deployment) -> Dict[str, float]:
    metrics = dep.metrics
    snap: Dict[str, float] = dict(dep.runtime.stats())
    for name in _COUNTERS:
        snap[name] = metrics.value(name)
    for suffix in ("hits", "misses"):
        snap[f"reply_cache.{suffix}"] = sum(
            metrics.value(name)
            for name in metrics.counter_names("service.")
            if name.endswith(f".reply_cache.{suffix}"))
    snap["flight.notes"] = (dep.flight.total_noted
                            if dep.flight is not None else 0)
    snap["view.epoch"] = dep.views.epoch if dep.views is not None else 0
    return snap


def measure(workload: Any, seed: int, n_ops: int, *,
            tracer: Any = None) -> Dict[str, Any]:
    """One repetition: set the workload up, run its timed region, audit,
    tear down; returns the raw figures."""
    began = perf_counter()
    ctx = Ctx(seed, tracer)
    state = workload.build(ctx)
    dep = state.dep
    run = Run(dep.runtime.now)
    # A quarter of the region at most, so smoke-sized runs are not all
    # warm-up; full-sized runs always get the workload's figure.
    warm_ops = workload.whole_ops(min(workload.warmup_ops, n_ops / 4))
    _execute(workload, ctx, state,
             workload.plan(ctx, state, warm_ops, "warmup"), run)
    warm_failed = run.total - run.ok
    plan = workload.plan(ctx, state, n_ops, "timed")
    setup_wall = perf_counter() - began
    # Collecting here also zeroes the collector's allocation counts, so
    # its sweeps fall on the same calls in every repetition.
    gc.collect()
    before = _snapshot(dep)
    virt_start = dep.runtime.now()
    if tracer is not None:
        tracer.reset()
    wall_start = perf_counter()
    _execute(workload, ctx, state, plan, run)
    wall = perf_counter() - wall_start
    if tracer is not None:
        tracer.flush()
        ledger = dict(tracer.self_s)
        counts = dict(tracer.counts)
    after = _snapshot(dep)
    marks = [wall_start] + run.marks
    result: Dict[str, Any] = {
        "attempted": run.total,
        "completed": run.completed,
        "ok": run.ok,
        "warmup_failed": warm_failed,
        "wall_s": wall,
        "virt_s": dep.runtime.now() - virt_start,
        "setup_walls": [setup_wall],
        "chunk": -(-run.total // CHUNKS),
        "chunk_walls": [b - a for a, b in zip(marks, marks[1:])],
        "latencies": run.latencies,
        "by_kind": run.by_kind,
        "max_late": run.max_late,
        "inputs": plan.digest,
        "replicated": dep.replication is not None,
        "delta": {k: after[k] - before[k] for k in after},
        "extras": {},
        "repetitions": 1,
        "repeatable": True,
    }
    if tracer is not None:
        result.update(ledger=ledger, trace_counts=counts,
                      marshal_bytes=tracer.marshal_bytes,
                      unmarshal_bytes=tracer.unmarshal_bytes,
                      flips=list(tracer.membership_flips))
    audit = getattr(workload, "audit", None)
    if audit is not None:
        result["extras"].update(audit(ctx, state, run))
    extras = getattr(workload, "extras", None)
    if extras is not None:
        result["extras"].update(extras(state, run))
    dep.shutdown()
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def measure_repeated(workload: Any, seed: int, n_ops: int,
                     repetitions: int) -> Dict[str, Any]:
    """Run the identical repetition several times and keep, for every
    chunk, its *least disturbed* wall.

    The inputs and the op count are fixed, so chunk *k* does exactly
    the same work in every repetition; on a shared host the only thing
    that differs is interference, and interference only ever adds time.
    The per-chunk minimum is therefore the workload's own cost profile
    (slow phases, collector sweeps and heap growth stay in it — they
    recur at the same chunk every time) with the neighbours taken out.
    Each repetition also sets the workload up afresh, which yields the
    several set-up times ``setup_s`` is the median of.
    """
    result = measure(workload, seed, n_ops)
    fingerprint = _fingerprint(result)
    for _ in range(repetitions - 1):
        again = measure(workload, seed, n_ops)
        result["setup_walls"] += again["setup_walls"]
        result["chunk_walls"] = [min(pair) for pair in zip(
            result["chunk_walls"], again["chunk_walls"])]
        result["peak_rss_mb"] = again["peak_rss_mb"]
        result["repetitions"] += 1
        if _fingerprint(again) != fingerprint:
            result["repeatable"] = False
    return result


def _fingerprint(result: Dict[str, Any]) -> Any:
    """Everything a repetition must reproduce exactly."""
    return (result["inputs"], result["ok"], result["completed"],
            result["latencies"], result["delta"], result["extras"])


# ----------------------------------------------------------------------
# Raw figures -> named metrics
# ----------------------------------------------------------------------

def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def failed_calls(result: Dict[str, Any]) -> int:
    """Attempted calls that were not completed-OK-and-verified, plus
    acknowledged writes the audit could not read back."""
    lost = result["extras"].get("acked_lost", 0)
    return result["attempted"] - result["ok"] + lost


def exact_metrics(result: Dict[str, Any]) -> Dict[str, float]:
    """Seed-deterministic outcomes: any change is behaviour, not speed."""
    lat = result["latencies"]
    extras = result["extras"]
    return {
        "virt_latency_ms_p50": percentile(lat, 50) * 1e3,
        "virt_latency_ms_p99": percentile(lat, 99) * 1e3,
        "failed_share": failed_calls(result) / result["attempted"],
        "unavailable_virt_ms": extras.get("unavailable_virt_ms", 0.0),
        "acked_lost": extras.get("acked_lost", 0),
    }


def end_to_end(result: Dict[str, Any]) -> Dict[str, float]:
    chunk = result["chunk"]
    walls = result["chunk_walls"]
    per_call_us = [wall / chunk * 1e6 for wall in walls]
    timed_calls = len(walls) * chunk * result["ok"] / result["attempted"]
    return {
        "setup_s": statistics.median(result["setup_walls"]),
        "calls_per_s": timed_calls / sum(walls),
        "wall_us_per_call_p50": percentile(per_call_us, 50),
        "wall_us_per_call_p90": percentile(per_call_us, 90),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: Dict[str, Any], reference: Dict[str, Any],
              probes: Dict[str, float]) -> Dict[str, float]:
    """The traced run's ledger and counts, per completed call.

    ``reference`` is the same workload at the same size run untraced in
    the same process; the ratio of the two walls is what tracing cost.
    """
    calls = max(1, result["completed"])
    delta = result["delta"]
    ledger = result["ledger"]
    counts = result["trace_counts"]
    wall = result["wall_s"]

    def per_call(count: float) -> float:
        return count / calls

    def us(layer: str) -> float:
        return ledger.get(layer, 0.0) / calls * 1e6

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    out: Dict[str, float] = {}
    sim_self = ledger.get("sim", 0.0)
    out["sim.steps_per_call"] = per_call(delta["steps_executed"])
    out["sim.timers_per_call"] = per_call(delta["timers_scheduled"])
    out["sim.timers_purged_share"] = share(delta["timers_purged"],
                                           delta["timers_scheduled"])
    out["sim.tasks_per_call"] = per_call(delta["tasks_spawned"])
    out["sim.self_share"] = share(sim_self, wall)

    out["events.triggers_per_call"] = per_call(
        counts.get("events.triggers", 0))
    out["events.handlers_per_call"] = per_call(
        counts.get("events.handlers", 0))

    micro_total = sum(seconds for layer, seconds in ledger.items()
                      if layer.startswith("micro."))
    named = 0.0
    for owner in MICRO_OWNERS:
        seconds = ledger.get(f"micro.{owner}", 0.0)
        named += seconds
        out[f"micro.{owner}.self_us_per_call"] = seconds / calls * 1e6
    out["micro.other.self_us_per_call"] = \
        (micro_total - named) / calls * 1e6
    out["micro.self_share"] = share(micro_total, wall)
    out["micro.retransmits_per_call"] = per_call(
        counts.get("micro.retransmits", 0))

    for layer in SELF_LAYERS:
        out[f"{layer}.self_us_per_call"] = us(layer)
    out["apps.handle_us_per_call"] = us("apps")

    out["deployment.redirects_per_call"] = per_call(
        delta["placement.view.stale_bounces"])
    out["deployment.reply_cache_hit_share"] = share(
        delta["reply_cache.hits"],
        delta["reply_cache.hits"] + delta["reply_cache.misses"])

    out["stubs.marshal_us_per_call"] = us("stubs.marshal")
    out["stubs.unmarshal_us_per_call"] = us("stubs.unmarshal")
    out["stubs.bytes_per_call"] = per_call(
        result["marshal_bytes"] + result["unmarshal_bytes"])

    out["wire.msgs_per_envelope"] = share(delta["net.send"],
                                          delta["net.envelopes"])
    out["wire.queue_waits_per_call"] = per_call(delta["net.queue.waits"])
    out["fabric.envelopes_per_call"] = per_call(delta["net.envelopes"])
    out["fabric.dropped_share"] = share(
        sum(delta[name] for name in _NET_DROPS), delta["net.send"])

    out["placement.lookups_per_call"] = per_call(
        delta["placement.router.lookups"])
    out["placement.rebinds"] = counts.get("placement.rebinds", 0)
    out["placement.view_epochs"] = delta["view.epoch"]

    kinds = result["by_kind"] if result["replicated"] else {}
    out["replication.read_virt_ms_p50"] = \
        percentile(kinds.get("read", ()), 50) * 1e3
    out["replication.write_virt_ms_p50"] = \
        percentile(kinds.get("write", ()), 50) * 1e3
    out["replication.promotions"] = delta["repl.promotions"]
    out["replication.parked_writes"] = delta["repl.parked_writes"]
    out["replication.sync_calls_per_write"] = share(
        delta["repl.sync.calls"], len(kinds.get("write", ())))

    out["membership.heartbeats_per_virt_s"] = share(
        delta["net.fastlane.sends"], result["virt_s"])
    suspicions = [flip for flip in result["flips"] if not flip[2]]
    out["membership.suspicions"] = len(suspicions)
    crashed_at = result["extras"].get("crashed_at_virt_s")
    detected = [when for when, _, _ in suspicions
                if crashed_at is not None and when >= crashed_at]
    out["membership.detect_virt_ms"] = \
        (detected[0] - crashed_at) * 1e3 if detected else 0.0

    out["obs.flight_notes"] = delta["flight.notes"]
    out["bench.late_virt_ms_max"] = result["max_late"] * 1e3
    out["bench.client_retries"] = result["extras"].get("client_retries", 0)

    out["trace.overhead_ratio"] = share(wall / calls,
                                        reference["wall_s"]
                                        / max(1, reference["completed"]))
    out["trace.ledger_coverage"] = 1.0 - share(ledger.get("other", 0.0),
                                               sum(ledger.values()))
    out.update(exact_metrics(result))
    out.update(probes)
    return out
