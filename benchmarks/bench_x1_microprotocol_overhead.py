"""X1 — per-micro-protocol overhead (extension; the paper defers
performance evaluation).

Starting from the minimal functional composite, micro-protocols are added
one at a time and the same KV workload is replayed.  Two costs are
reported per configuration: the simulated per-call latency (protocol
round trips the semantics add) and the real CPU time per call (the
framework/composition overhead a 1995 reviewer would have asked about).

Expected shape: each addition costs a little; ordering micro-protocols
cost the most (extra ORDER round for Total Order); nothing is
catastrophic — the paper's claim that micro-protocol composition is a
practical way to build RPC.
"""

import time

from _common import attach, run_once, save_result

from repro import LinkSpec, ServiceCluster, ServiceSpec
from repro.apps import KVStore
from repro.bench import ClosedLoopWorkload, banner, kv_workload, render_table

LINK = LinkSpec(delay=0.01, jitter=0.002)
CALLS = 80

LADDER = [
    ("minimal (Main+Sync+Collation+Acceptance)",
     ServiceSpec(reliable=False, acceptance=1)),
    ("+ Reliable Communication",
     ServiceSpec(acceptance=1)),
    ("+ Bounded Termination",
     ServiceSpec(acceptance=1, bounded=5.0)),
    ("+ Unique Execution",
     ServiceSpec(acceptance=1, bounded=5.0, unique=True)),
    ("+ Serial Execution",
     ServiceSpec(acceptance=1, bounded=5.0, unique=True,
                 execution="serial")),
    ("+ Atomic Execution",
     ServiceSpec(acceptance=1, bounded=5.0, unique=True,
                 execution="atomic")),
    ("+ Terminate Orphan",
     ServiceSpec(acceptance=1, bounded=5.0, unique=True,
                 execution="atomic", orphans="terminate")),
    ("FIFO Order variant",
     ServiceSpec(acceptance=1, bounded=5.0, unique=True,
                 ordering="fifo")),
    ("Total Order variant",
     ServiceSpec(acceptance=1, unique=True, ordering="total")),
]


def run_rung(label, spec):
    cluster = ServiceCluster(spec, KVStore, n_servers=3, seed=2,
                             default_link=LINK, keep_trace=False)
    workload = ClosedLoopWorkload(lambda i: kv_workload(seed=i),
                                  calls_per_client=CALLS)
    wall_start = time.perf_counter()
    result = workload.run(cluster, settle_time=0.5)
    wall = time.perf_counter() - wall_start
    stats = result.latency_stats().scaled(1000.0)
    # Message cost straight from the metrics registry (the workload's
    # messages_per_call reads the same counter; asserting they agree
    # keeps the two reporting paths honest).
    sends = cluster.deployment.metrics.value("net.send")
    assert sends / result.calls == result.messages_per_call
    return {"label": label,
            "micros": len(spec.build()),
            "mean_ms": stats.mean,
            "p95_ms": stats.p95,
            "msgs_per_call": sends / result.calls,
            "cpu_us_per_call": wall / result.calls * 1e6,
            "ok": result.ok_ratio}


def test_x1_microprotocol_overhead(benchmark):
    def experiment():
        return [run_rung(label, spec) for label, spec in LADDER]

    rows = run_once(benchmark, experiment)

    table = render_table(
        ["configuration", "#micros", "sim mean ms", "sim p95 ms",
         "msgs/call", "cpu us/call"],
        [[r["label"], r["micros"], f"{r['mean_ms']:.2f}",
          f"{r['p95_ms']:.2f}", f"{r['msgs_per_call']:.1f}",
          f"{r['cpu_us_per_call']:.0f}"] for r in rows])
    save_result("x1_microprotocol_overhead", "\n".join([
        banner("X1 — cost of adding micro-protocols",
               f"3 servers, {CALLS} mixed KV calls, link "
               f"{LINK.delay * 1000:.0f}ms +/- {LINK.jitter * 1000:.0f}ms"),
        table]))
    attach(benchmark, {r["label"]: round(r["mean_ms"], 3) for r in rows})

    by_label = {r["label"]: r for r in rows}
    assert all(r["ok"] == 1.0 for r in rows)
    minimal = by_label["minimal (Main+Sync+Collation+Acceptance)"]
    total = by_label["Total Order variant"]
    # Total Order pays an extra ordering round: strictly more messages
    # and higher latency than the minimal service.
    assert total["msgs_per_call"] > minimal["msgs_per_call"]
    assert total["mean_ms"] > minimal["mean_ms"]
    # Reliability/termination/unique-execution rungs add bookkeeping but
    # no extra blocking round trips on the failure-free path: within 3x
    # of minimal latency.
    for label in ("+ Reliable Communication", "+ Bounded Termination",
                  "+ Unique Execution"):
        assert by_label[label]["mean_ms"] < 3 * minimal["mean_ms"]
