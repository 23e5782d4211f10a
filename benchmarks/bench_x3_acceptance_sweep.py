"""X3 — acceptance limit vs response time (extension).

Sweeps the acceptance limit across a 5-replica group where one replica
suffers a performance failure.  Expected shape: latency is flat for
k = 1..4 (the four healthy replicas answer quickly) and jumps at k = 5,
where the client must wait for the slow replica — the quantitative
version of the paper's Section-5 motivation for acceptance-one reads.
"""

from _common import attach, run_once, save_result

from repro import LinkSpec, ServiceCluster, ServiceSpec
from repro.apps import KVStore
from repro.bench import (
    ClosedLoopWorkload,
    banner,
    read_only_workload,
    render_series,
)

LINK = LinkSpec(delay=0.01, jitter=0.003)
SLOW_DELAY = 0.2
N_SERVERS = 5
CALLS = 40


def run_point(k):
    spec = ServiceSpec(acceptance=k, bounded=10.0)
    cluster = ServiceCluster(spec, KVStore, n_servers=N_SERVERS, seed=5,
                             default_link=LINK, keep_trace=False)
    cluster.deployment.make_slow(N_SERVERS, SLOW_DELAY)
    workload = ClosedLoopWorkload(lambda i: read_only_workload(seed=i),
                                  calls_per_client=CALLS)
    result = workload.run(cluster, settle_time=0.5)
    return result.latency_stats().scaled(1000.0)


def test_x3_acceptance_sweep(benchmark):
    def experiment():
        return {k: run_point(k) for k in range(1, N_SERVERS + 1)}

    stats = run_once(benchmark, experiment)

    series = render_series(
        "acceptance limit", "mean latency (ms)",
        [(k, stats[k].mean) for k in sorted(stats)])
    save_result("x3_acceptance_sweep", "\n".join([
        banner("X3 — acceptance limit vs latency",
               f"{N_SERVERS} replicas, one with "
               f"+{SLOW_DELAY * 1000:.0f}ms performance failure"),
        series]))
    attach(benchmark, {f"k={k}": round(s.mean, 2)
                       for k, s in stats.items()})

    # Flat while the healthy replicas suffice...
    assert stats[4].mean < 3 * stats[1].mean
    assert stats[4].mean < SLOW_DELAY * 1000 / 2
    # ...and a cliff at k = n when the slow replica must be awaited.
    assert stats[5].mean > SLOW_DELAY * 1000 * 0.9
    assert stats[5].mean > 4 * stats[4].mean
