#!/usr/bin/env python3
"""A replicated lock service: why coordination wants total order.

Two clients race to acquire the same lock on a 3-replica lock service
over a jittery network.  Without an ordering micro-protocol the replicas
can disagree about the winner (split brain); the identical application
under Total Order gives one winner everywhere, every time — the
configuration change is one field of the spec.

Run:  python examples/distributed_locks.py
"""

from repro import LinkSpec, ServiceCluster, ServiceSpec
from repro.apps import LockService
from repro.core.microprotocols import majority_vote

JITTERY = LinkSpec(delay=0.01, jitter=0.06)
RUNS = 6


def race(ordering: str, seed: int):
    spec = ServiceSpec(unique=True, ordering=ordering, acceptance=3,
                       bounded=0.0, collation=(majority_vote, dict))
    cluster = ServiceCluster(spec, LockService, n_servers=3, n_clients=2,
                             seed=seed, default_link=JITTERY)

    async def contender(pid, name):
        await cluster.call(pid, "acquire",
                           {"lock": "leader", "owner": name})

    async def scenario():
        a, b = cluster.client_pids
        tasks = [cluster.spawn_client(a, contender(a, "alice")),
                 cluster.spawn_client(b, contender(b, "bob"))]
        for task in tasks:
            await cluster.deployment.runtime.join(task)

    cluster.deployment.run_scenario(scenario(), extra_time=2.0)
    return [cluster.app(pid).holders.get("leader")
            for pid in cluster.server_pids]


def main() -> None:
    print(f"two clients race for one lock, {RUNS} seeded runs each\n")
    for ordering in ("none", "total"):
        split = 0
        samples = []
        for seed in range(RUNS):
            holders = race(ordering, seed)
            samples.append(holders)
            if len(set(holders)) > 1:
                split += 1
        label = "no ordering " if ordering == "none" else "total order"
        print(f"{label}: {split}/{RUNS} runs ended split-brained")
        print(f"   example run (holder per replica): {samples[0]}")
    print("\nunder total order every replica grants the same winner: "
          "agreement is the configuration, not the application.")


if __name__ == "__main__":
    main()
