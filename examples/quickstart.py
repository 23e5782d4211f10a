#!/usr/bin/env python3
"""Quickstart: a replicated key-value store over configurable group RPC.

Builds the paper's Section-5 read-optimized service (at-least-once,
acceptance one, synchronous calls, bounded termination, RPC-level
reliability) on three simulated replicas, issues a few calls, and shows
what the configuration machinery knows about the service.

Run:  python examples/quickstart.py
"""

from repro import ServiceCluster, read_optimized
from repro.apps import KVStore


def main() -> None:
    spec = read_optimized(timebound=1.0)
    print("service spec:", spec)
    print("micro-protocols composed (the paper's `||`):")
    for name in spec.micro_protocol_names():
        print("   ||", name)
    print("failure semantics:", spec.failure_semantics)
    print()

    cluster = ServiceCluster(spec, KVStore, n_servers=3)
    dep = cluster.deployment

    result = cluster.call_and_run("put", {"key": "city", "value": "Tucson"})
    print(f"put city=Tucson        -> {result.status.value} "
          f"(call id {result.id})")

    result = cluster.call_and_run("get", {"key": "city"})
    print(f"get city               -> {result.status.value}, "
          f"value={result.args!r}")

    result = cluster.call_and_run("keys", {})
    print(f"keys                   -> {result.args}")

    # Crash two replicas; acceptance-one keeps the service available.
    dep.crash(2)
    dep.crash(3)
    result = cluster.call_and_run("get", {"key": "city"})
    print(f"get with 2/3 replicas crashed -> {result.status.value}, "
          f"value={result.args!r}")

    print()
    print(f"simulated time elapsed: {dep.runtime.now() * 1000:.1f} ms")
    print(f"network messages sent:  {dep.metrics.value('net.send')}")


if __name__ == "__main__":
    main()
