"""E5 — Section 5: the paper's worked configuration.

"Consider a simple group RPC designed to provide quick response time to
read-only requests ... 'at least once' semantics, acceptance one,
synchronous call semantics, and bounded termination time" with
reliability in the RPC layer.

The benchmark deploys that exact composition (RPC_Main ||
Synchronous_Call || Reliable_Communication || Bounded_Termination(1.0) ||
Collation(id) || Acceptance(1)) on five replicas, one of which suffers a
performance failure, and compares it against an acceptance=ALL variant:
acceptance-one must track the fastest replica while ALL is dragged to the
slow one — the 'quick response time' claim.  It also shows the bounded
termination guarantee: with every server partitioned away, the call
returns TIMEOUT at almost exactly the 1.0s bound.
"""

from _common import attach, run_once, save_result

from repro import LinkSpec, ServiceCluster, Status
from repro.apps import KVStore
from repro.bench import (
    ClosedLoopWorkload,
    banner,
    read_only_workload,
    render_table,
)
from repro.core.config import read_optimized
from repro.core.microprotocols import ALL

LINK = LinkSpec(delay=0.01, jitter=0.005)
SLOW_REPLICA_DELAY = 0.25
CALLS = 60


def run_variant(label, spec):
    cluster = ServiceCluster(spec, KVStore, n_servers=5, seed=1,
                             default_link=LINK, keep_trace=False)
    cluster.deployment.make_slow(5, SLOW_REPLICA_DELAY)
    workload = ClosedLoopWorkload(
        lambda i: read_only_workload(seed=i), calls_per_client=CALLS)
    result = workload.run(cluster)
    stats = result.latency_stats().scaled(1000.0)
    return {"label": label, "mean_ms": stats.mean, "p95_ms": stats.p95,
            "ok": result.ok_ratio}


def test_section5_read_optimized(benchmark):
    def experiment():
        fast = run_variant("Section-5 service (acceptance=1)",
                           read_optimized(timebound=1.0))
        slow = run_variant("same but acceptance=ALL",
                           read_optimized(timebound=1.0,
                                          acceptance=ALL))
        # Bounded termination in action: total outage -> 1.0s TIMEOUT.
        cluster = ServiceCluster(read_optimized(timebound=1.0), KVStore,
                                 n_servers=5, default_link=LINK)
        cluster.deployment.partition([cluster.client], cluster.server_pids)
        t0 = cluster.deployment.runtime.now()
        outage = cluster.call_and_run("get", {"key": "k"})
        outage_latency = cluster.deployment.runtime.now() - t0
        return fast, slow, outage, outage_latency

    fast, slow, outage, outage_latency = run_once(benchmark, experiment)

    table = render_table(
        ["configuration", "mean ms", "p95 ms", "ok%"],
        [[fast["label"], f"{fast['mean_ms']:.2f}",
          f"{fast['p95_ms']:.2f}", f"{fast['ok'] * 100:.0f}"],
         [slow["label"], f"{slow['mean_ms']:.2f}",
          f"{slow['p95_ms']:.2f}", f"{slow['ok'] * 100:.0f}"]])
    save_result("section5_read_optimized", "\n".join([
        banner("Section 5 — read-optimized group RPC",
               f"5 replicas, one with +{SLOW_REPLICA_DELAY * 1000:.0f}ms "
               f"performance failure, {CALLS} read-only calls"),
        table, "",
        f"bounded termination under total outage: status="
        f"{outage.status.value}, returned after "
        f"{outage_latency * 1000:.0f}ms (bound: 1000ms)"]))
    attach(benchmark, {"fast_mean_ms": fast["mean_ms"],
                       "all_mean_ms": slow["mean_ms"]})

    # Quick response time: acceptance-one is far below the slow replica's
    # delay; acceptance-ALL pays it on every call.
    assert fast["mean_ms"] < 60.0
    assert slow["mean_ms"] > SLOW_REPLICA_DELAY * 1000 * 0.9
    assert slow["mean_ms"] > 3 * fast["mean_ms"]
    # Bounded termination: TIMEOUT at (approximately) the bound.
    assert outage.status is Status.TIMEOUT
    assert 0.99 <= outage_latency <= 1.1
