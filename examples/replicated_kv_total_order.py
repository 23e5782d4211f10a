#!/usr/bin/env python3
"""Replicated state machine: total order, exactly-once, leader failover.

Three clients race writes to the same keys on a 3-replica KV store.  With
the Total Order micro-protocol every replica applies the same sequence,
so the replicas end byte-identical — and when the order-assigning leader
crashes, the next-highest member takes over (membership service + the
follower's tracked order counter) and new calls keep completing.

The leader is crashed at a quiescent point: the paper explicitly omits
the agreement phase that would make a crash with ORDER messages in
flight safe ("For brevity this agreement phase has been omitted"), and
this reproduction follows the paper.

Run:  python examples/replicated_kv_total_order.py
"""

from repro import LinkSpec, ServiceCluster, replicated_state_machine
from repro.analysis import History, check, promises
from repro.apps import KVStore


def main() -> None:
    spec = replicated_state_machine(group_size=3)
    print("micro-protocols:", ", ".join(spec.micro_protocol_names()))
    cluster = ServiceCluster(
        spec, KVStore, n_servers=3, n_clients=3, seed=42,
        default_link=LinkSpec(delay=0.01, jitter=0.05),  # heavy reorder
        membership="oracle")
    history = History()

    async def client_loop(pid: int, rounds: int) -> None:
        for i in range(rounds):
            args = {"key": f"k{i % 4}", "value": f"c{pid}-{i}"}
            result = history.end(history.invoke(pid, args),
                                 await cluster.call(pid, "put", args))
            assert result.ok

    async def scenario() -> None:
        # Round 1: concurrent writers under the original leader (pid 3).
        tasks = [cluster.spawn_client(pid, client_loop(pid, 4))
                 for pid in cluster.client_pids]
        for task in tasks:
            await cluster.deployment.runtime.join(task)
        print("!! crashing leader (server 3) between rounds")
        cluster.deployment.crash(3)
        # Round 2: the next-highest member (pid 2) assigns orders now.
        tasks = [cluster.spawn_client(pid, client_loop(pid, 4))
                 for pid in cluster.client_pids]
        for task in tasks:
            await cluster.deployment.runtime.join(task)

    cluster.deployment.run_scenario(scenario(), extra_time=3.0)

    print()
    survivors = {pid: cluster.dispatchers[pid] for pid in (1, 2)}
    history.read(survivors)
    for pid in survivors:
        print(f"server {pid}: applied {len(history.executed[pid])} "
              f"writes, final state {cluster.app(pid).data}")

    # Total order, exactly once and acceptance ALL of the live group: the
    # survivors executed every acked write, in one order.
    check(history, promises(spec)).raise_if_failed()
    print()
    print("replicas applied IDENTICAL sequences "
          f"({len(history.executed[1])} writes each) despite jitter, "
          "concurrency and a leader crash.")


if __name__ == "__main__":
    main()
