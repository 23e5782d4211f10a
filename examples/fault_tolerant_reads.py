#!/usr/bin/env python3
"""Section 5's motivation, measured: acceptance policy vs response time.

Five replicas serve read-only requests; one replica suffers a
performance failure (every message to it is delayed 250 ms).  The same
workload runs under three acceptance policies and a collation choice:

* acceptance=1  (the paper's read-optimized service): first reply wins;
* acceptance=3  (majority): still fast — the four healthy replicas
  outvote the slow one;
* acceptance=ALL: every call waits for the slow replica...
* ...unless a membership oracle marks a *crashed* replica failed, in
  which case ALL completes with the survivors.

Run:  python examples/fault_tolerant_reads.py
"""

from repro import LinkSpec, ServiceCluster, read_optimized
from repro.apps import KVStore
from repro.bench import ClosedLoopWorkload, read_only_workload
from repro.core.microprotocols import ALL

N_SERVERS = 5
SLOW = 0.25
CALLS = 40


def measure(label: str, acceptance: int, *, crash_slow: bool = False,
            membership=None) -> None:
    spec = read_optimized(timebound=5.0, acceptance=acceptance)
    cluster = ServiceCluster(spec, KVStore, n_servers=N_SERVERS, seed=1,
                             default_link=LinkSpec(delay=0.01,
                                                   jitter=0.005),
                             membership=membership)
    cluster.deployment.make_slow(N_SERVERS, SLOW)
    if crash_slow:
        cluster.deployment.crash(N_SERVERS)
    workload = ClosedLoopWorkload(lambda i: read_only_workload(seed=i),
                                  calls_per_client=CALLS)
    result = workload.run(cluster)
    stats = result.latency_stats().scaled(1000.0)
    print(f"{label:<46} mean={stats.mean:7.2f} ms   "
          f"p95={stats.p95:7.2f} ms   ok={result.ok_ratio:.0%}")


def main() -> None:
    print(f"{N_SERVERS} replicas, replica {N_SERVERS} suffers a "
          f"+{SLOW * 1000:.0f} ms performance failure; "
          f"{CALLS} read-only calls\n")
    measure("acceptance=1 (paper's read-optimized)", 1)
    measure("acceptance=3 (majority)", 3)
    measure("acceptance=ALL", ALL)
    measure("acceptance=ALL, slow replica crashed + membership",
            ALL, crash_slow=True, membership="oracle")


if __name__ == "__main__":
    main()
