#!/usr/bin/env python3
"""Geo-replication: acceptance policy vs WAN round trips.

Five replicas across two datacenters (3 in DC-A with the client, 2 in
DC-B behind a 40 ms WAN link).  The acceptance limit decides whether a
write's latency is a LAN or a WAN quantity:

* acceptance=3 can complete entirely inside DC-A (sub-millisecond);
* acceptance=5 (ALL) must hear from DC-B on every call (~2 WAN hops).

Run:  python examples/wan_replication.py
"""

from repro import ServiceCluster, ServiceSpec
from repro.apps import KVStore
from repro.bench import ClosedLoopWorkload, kv_workload
from repro.net.topology import two_datacenters

DC_A_SERVERS = [1, 2, 3]
DC_B_SERVERS = [4, 5]
CALLS = 40


def measure(acceptance: int, label: str) -> None:
    spec = ServiceSpec(unique=True, acceptance=acceptance, bounded=10.0)
    cluster = ServiceCluster(spec, KVStore, n_servers=5, seed=7)
    # Client 101 lives in DC-A.
    two_datacenters(cluster.deployment.fabric,
                    DC_A_SERVERS + [cluster.client], DC_B_SERVERS)
    workload = ClosedLoopWorkload(lambda i: kv_workload(seed=i),
                                  calls_per_client=CALLS)
    result = workload.run(cluster)
    stats = result.latency_stats().scaled(1000.0)
    print(f"{label:<34} mean={stats.mean:7.2f} ms   "
          f"p95={stats.p95:7.2f} ms")


def main() -> None:
    print("5 replicas: 3 in DC-A (with the client), 2 in DC-B over a "
          "40 ms WAN\n")
    measure(1, "acceptance=1 (nearest replica)")
    measure(3, "acceptance=3 (DC-A quorum)")
    measure(5, "acceptance=ALL (cross-DC)")
    print("\nthe acceptance property turns the same service from a "
          "LAN-latency\nsystem into a WAN-latency one — choose per "
          "operation class.")


if __name__ == "__main__":
    main()
