"""The benchmark's vocabulary: workload names with their *why*, every
metric with unit, direction and regression bound.

One place, so ``run.py`` (what to print), ``compare.py`` (what bound to
judge by), the smoke test (what must be present) and the root
``BENCHMARK.json`` (what the PR driver checks) cannot drift apart:
``python3 benchmarks/perf/catalog.py`` prints the JSON that file holds.

Two kinds of end-to-end figure exist.  *Wall-clock* ones carry a
relative bound and are the ``end_to_end`` list.  *Exact* ones
(virtual-time latency, failed share, the crash workload's
unavailability and lost-write count) are seed-deterministic, several
are legitimately 0, and "any change at all" is not a relative bound —
so they travel with the traced run's per-layer list, unbounded, and
``compare.py`` demands equality of them instead.
"""

from __future__ import annotations

import json
from typing import Dict, List, NamedTuple

#: Micro-protocols that get their own ledger row; anything else a
#: composition links in is summed under ``micro.other``.
MICRO_OWNERS = ("RPC_Main", "Synchronous_Call", "Reliable_Communication",
                "Bounded_Termination", "Unique_Execution",
                "Serial_Execution", "Total_Order", "Collation",
                "Acceptance")

#: Ledger rows reported as ``<layer>.self_us_per_call``.
SELF_LAYERS = ("events", "grpc", "deployment", "stubs", "wire", "fabric",
               "node", "placement", "replication", "membership", "obs",
               "bench")

#: How long one driver-invoked run measures (``--seconds``).
RUN_SECONDS = 10

WORKLOADS: Dict[str, str] = {
    "minimal_rpc":
        "1 client, 1 server, 4 micro-protocols, zero-delay link, tiny "
        "args: only sim/runtime/events/grpc work, so kernel or dispatch "
        "changes show undiluted and nothing else may move it",
    "sharded_put":
        "bench_x17's shape (8 shards, 16 open-loop lanes, ring router, "
        "bounded+acceptance): the Deployment.call + router + wire + "
        "fabric path with many in-flight tasks and a timer per call",
    "sharded_put_observed":
        "sharded_put with Deployment(observatory=True): the obs layer "
        "works here and not there, so the pair is the observatory budget",
    "replicated_mixed":
        "4 shards x 3 active replicas, total order + unique + "
        "acceptance ALL, 8 closed-loop clients, 50/50 get/put, Zipf(1.1): "
        "the paper's group fan-out and ordering core",
    "stub_bulk":
        "3 servers behind MarshallingApp, client stubs, batched wire, "
        "2 KB nested values put then read back: the only workload where "
        "stubs.marshal runs at all",
    "crash_failover":
        "2 primary-backup shards, heartbeat membership, 1% loss, open "
        "loop; shard-0's primary crashes at 40% and recovers at 70%: the "
        "whole control plane, and zero acknowledged writes may be lost",
}


class Metric(NamedTuple):
    name: str
    #: ``virt_ms`` / ``1/virt_s`` are *virtual* (simulated) time: exact
    #: under a seed, and not to be read as wall clock.
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen
    #: (end-to-end only; per-layer metrics carry no bound).
    bound: float = 0.0


# Bounds come from what the 2-core shared host the benchmark was built
# on actually does to identical code.  Within a quiet period, ten seeds
# per workload spread (interquartile / median) by <= 3 % (calls_per_s),
# <= 4 % (p50), <= 5.5 % (p90), <= 3 % (rss).  But the host also has
# noisy spells that outlast a whole run: one workload's ten runs once
# spread 7 / 7 / 13 %, and two back-to-back sets of the same code
# differed by 12 % (calls_per_s), 10 % (p50), 15 % (p90) and 29 %
# (setup_s) in their medians.  A bound has to sit above that.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("calls_per_s", "1/s", "higher", 0.20),
    Metric("wall_us_per_call_p50", "us", "lower", 0.20),
    Metric("wall_us_per_call_p90", "us", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
]

#: Seed-deterministic outcomes; equality is the only acceptable result.
EXACT: List[Metric] = [
    Metric("virt_latency_ms_p50", "virt_ms", "lower"),
    Metric("virt_latency_ms_p99", "virt_ms", "lower"),
    Metric("failed_share", "share", "lower"),
    Metric("unavailable_virt_ms", "virt_ms", "lower"),
    Metric("acked_lost", "count", "lower"),
]

PROBES: List[Metric] = [
    Metric("sim.step_ns", "ns", "lower"),
    Metric("sim.timer_ns", "ns", "lower"),
    Metric("runtime.indirection_ns", "ns", "lower"),
    Metric("events.trigger1_ns", "ns", "lower"),
    Metric("events.trigger8_ns", "ns", "lower"),
    Metric("stubs.marshal_mb_per_s", "MB/s", "higher"),
    Metric("stubs.unmarshal_mb_per_s", "MB/s", "higher"),
    Metric("wire.size_ns_per_kb", "ns/KB", "lower"),
    Metric("fabric.send_ns", "ns", "lower"),
    Metric("placement.route_ns", "ns", "lower"),
]

LEDGER: List[Metric] = [
    Metric("sim.steps_per_call", "count", "lower"),
    Metric("sim.timers_per_call", "count", "lower"),
    Metric("sim.timers_purged_share", "share", "lower"),
    Metric("sim.tasks_per_call", "count", "lower"),
    Metric("sim.self_share", "share", "lower"),
    Metric("events.triggers_per_call", "count", "lower"),
    Metric("events.handlers_per_call", "count", "lower"),
    *[Metric(f"micro.{owner}.self_us_per_call", "us", "lower")
      for owner in MICRO_OWNERS + ("other",)],
    Metric("micro.self_share", "share", "lower"),
    Metric("micro.retransmits_per_call", "count", "lower"),
    *[Metric(f"{layer}.self_us_per_call", "us", "lower")
      for layer in SELF_LAYERS],
    Metric("apps.handle_us_per_call", "us", "lower"),
    Metric("deployment.redirects_per_call", "count", "lower"),
    Metric("deployment.reply_cache_hit_share", "share", "higher"),
    Metric("stubs.marshal_us_per_call", "us", "lower"),
    Metric("stubs.unmarshal_us_per_call", "us", "lower"),
    Metric("stubs.bytes_per_call", "B", "lower"),
    Metric("wire.msgs_per_envelope", "count", "higher"),
    Metric("wire.queue_waits_per_call", "count", "lower"),
    Metric("fabric.envelopes_per_call", "count", "lower"),
    Metric("fabric.dropped_share", "share", "lower"),
    Metric("placement.lookups_per_call", "count", "lower"),
    Metric("placement.rebinds", "count", "lower"),
    Metric("placement.view_epochs", "count", "lower"),
    Metric("replication.read_virt_ms_p50", "virt_ms", "lower"),
    Metric("replication.write_virt_ms_p50", "virt_ms", "lower"),
    Metric("replication.promotions", "count", "lower"),
    Metric("replication.parked_writes", "count", "lower"),
    Metric("replication.sync_calls_per_write", "count", "lower"),
    Metric("membership.heartbeats_per_virt_s", "1/virt_s", "lower"),
    Metric("membership.suspicions", "count", "lower"),
    Metric("membership.detect_virt_ms", "virt_ms", "lower"),
    Metric("obs.flight_notes", "count", "lower"),
    Metric("bench.late_virt_ms_max", "virt_ms", "lower"),
    Metric("bench.client_retries", "count", "lower"),
    Metric("trace.overhead_ratio", "ratio", "lower"),
    Metric("trace.ledger_coverage", "share", "higher"),
]

PER_LAYER: List[Metric] = LEDGER + PROBES + EXACT


def benchmark_json() -> dict:
    """The document the root ``BENCHMARK.json`` must hold."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit,
                        "better": m.better, "bound": m.bound}
                       for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
