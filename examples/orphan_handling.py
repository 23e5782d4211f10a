#!/usr/bin/env python3
"""Orphan handling: what happens to work a dead client left behind.

A client issues a slow write, crashes 100 ms in, reincarnates, and
immediately writes again.  The same story is replayed under the three
orphan policies of Section 4.4.7 and the server's application log is
shown for each — making the difference between ignoring, deferring and
killing orphans directly visible.

Run:  python examples/orphan_handling.py
"""

from repro import LinkSpec, ServiceCluster, ServiceSpec
from repro.apps import KVStore

POLICY_NOTES = {
    "none": "ignore orphans: the orphan finishes and may interleave",
    "avoid": "interference avoidance: new generation waits for orphans",
    "terminate": "orphan termination: orphans are killed on detection",
}


def run_policy(policy: str) -> None:
    spec = ServiceSpec(orphans=policy, unique=True, bounded=10.0)
    cluster = ServiceCluster(
        spec, lambda pid: KVStore(op_delay=0.5), n_servers=1,
        default_link=LinkSpec(delay=0.005, jitter=0.0))
    client = cluster.client

    async def doomed():
        await cluster.call(client, "put",
                           {"key": "from-old-incarnation", "value": 1})

    async def fresh():
        result = await cluster.call(client, "put",
                                    {"key": "from-new-incarnation",
                                     "value": 2})
        print(f"   new incarnation's call: {result.status.value} at "
              f"t={cluster.deployment.runtime.now() * 1000:.0f} ms")

    async def scenario():
        cluster.spawn_client(client, doomed())
        await cluster.deployment.runtime.sleep(0.1)
        cluster.deployment.crash(client)       # the slow put is now an orphan
        await cluster.deployment.runtime.sleep(0.05)
        cluster.deployment.recover(client)
        task = cluster.spawn_client(client, fresh())
        await cluster.deployment.runtime.join(task)

    print(f"\n== orphans={policy!r}: {POLICY_NOTES[policy]}")
    cluster.deployment.run_scenario(scenario(), extra_time=2.0)
    log = [key for _, key, _ in cluster.app(1).apply_log]
    print(f"   server apply log: {log}")
    if policy == "terminate":
        kills = cluster.grpc(1).micro("Terminate_Orphan").kills
        print(f"   orphans killed: {kills}")


def main() -> None:
    for policy in ("none", "avoid", "terminate"):
        run_policy(policy)


if __name__ == "__main__":
    main()
