"""Long mixed-fault scenarios: the semantics must hold under chaos.

Each scenario combines several fault types (loss, duplication, delay
spikes, partitions, crashes) over tens of simulated seconds and then
checks the configured guarantees — the kind of soak test a downstream
user would run before trusting the library.
"""

import pytest

from repro import LinkSpec, ServiceCluster, ServiceSpec, Status
from repro.analysis import History, check, promises
from repro.apps import BankApp, CounterApp, KVStore

CHAOS_LINK = LinkSpec(delay=0.01, jitter=0.01, loss=0.1, duplicate=0.05,
                      spike_prob=0.02, spike_delay=0.2)


def test_exactly_once_counter_through_partition_and_crash():
    spec = ServiceSpec(unique=True, acceptance=2, bounded=0.0,
                       retrans_timeout=0.05)
    cluster = ServiceCluster(spec, CounterApp, n_servers=2, seed=21,
                             default_link=CHAOS_LINK)
    client = cluster.client
    history = History()

    async def load():
        for i in range(15):
            args = {"amount": 1, "tag": i}
            history.end(history.invoke(client, args),
                        await cluster.call(client, "inc", args))

    async def scenario():
        task = cluster.spawn_client(client, load())
        # A rolling partition and a server bounce while the load runs.
        await cluster.deployment.runtime.sleep(0.3)
        cluster.deployment.partition([client], [1])
        await cluster.deployment.runtime.sleep(0.5)
        cluster.deployment.heal()
        await cluster.deployment.runtime.sleep(0.3)
        cluster.deployment.crash(2)
        await cluster.deployment.runtime.sleep(0.5)
        cluster.deployment.recover(2)
        await cluster.deployment.runtime.join(task)

    cluster.deployment.run_scenario(scenario(), extra_time=3.0)
    assert all(call.result.status is Status.OK for call in history.calls)
    # Server 1 never crashed: every increment executed exactly once.
    check(history.read({1: cluster.dispatchers[1]}),
          promises(spec)).raise_if_failed()
    assert cluster.app(1).value == 15


def test_total_order_rsm_under_chaos_links():
    spec = ServiceSpec(unique=True, ordering="total", acceptance=3,
                       bounded=0.0, retrans_timeout=0.05)
    cluster = ServiceCluster(spec, KVStore, n_servers=3, n_clients=3,
                             seed=22, default_link=CHAOS_LINK)
    history = History()

    async def client_loop(ci, pid):
        for i in range(5):
            args = {"key": f"k{(ci + i) % 4}", "value": f"{ci}-{i}"}
            history.end(history.invoke(pid, args),
                        await cluster.call(pid, "put", args))

    async def scenario():
        tasks = [cluster.spawn_client(pid, client_loop(ci, pid))
                 for ci, pid in enumerate(cluster.client_pids)]
        for task in tasks:
            await cluster.deployment.runtime.join(task)

    cluster.deployment.run_scenario(scenario(), extra_time=5.0)
    assert len(history.calls) == 15
    assert all(call.result.ok for call in history.calls)
    # Total order and acceptance 3 of 3: one sequence at every replica.
    check(history.read(cluster.dispatchers),
          promises(spec)).raise_if_failed()
    states = [cluster.app(pid).data for pid in cluster.server_pids]
    assert states[0] == states[1] == states[2]


def test_money_conserved_through_crash_storm_with_lossy_links():
    spec = ServiceSpec(unique=True, execution="atomic", acceptance=1,
                       bounded=0.5, retrans_timeout=0.05)
    link = LinkSpec(delay=0.005, jitter=0.002, loss=0.05)
    cluster = ServiceCluster(
        spec, lambda pid: BankApp({"a": 500, "b": 500},
                                  transfer_delay=0.03),
        n_servers=1, seed=23, default_link=link)
    client = cluster.client

    async def scenario():
        for round_no in range(8):
            async def xfer():
                await cluster.call(client, "transfer",
                                   {"src": "a", "dst": "b",
                                    "amount": 10})
            task = cluster.spawn_client(client, xfer())
            # Crash the server mid-round on even rounds.
            if round_no % 2 == 0:
                await cluster.deployment.runtime.sleep(0.02)
                cluster.deployment.crash(1)
                await cluster.deployment.runtime.sleep(0.1)
                cluster.deployment.recover(1)
            try:
                await cluster.deployment.runtime.join(task)
            except BaseException:
                pass
            await cluster.deployment.runtime.sleep(0.3)

    cluster.deployment.run_scenario(scenario(), extra_time=2.0)
    stable = cluster.deployment.nodes[1].stable
    assert stable.get("acct:a") + stable.get("acct:b") == 1000


def test_fifo_per_client_order_with_client_bounce():
    spec = ServiceSpec(unique=True, ordering="fifo", acceptance=2,
                       bounded=0.0, retrans_timeout=0.05)
    cluster = ServiceCluster(spec, KVStore, n_servers=2, seed=24,
                             default_link=CHAOS_LINK)
    client = cluster.client
    history = History()

    async def burst(prefix, n):
        tasks = []
        for i in range(n):
            async def one(k=f"{prefix}{i}"):
                args = {"key": k, "value": 1}
                history.end(history.invoke(client, args),
                            await cluster.call(client, "put", args))
            tasks.append(cluster.spawn_client(client, one()))
        for task in tasks:
            await cluster.deployment.runtime.join(task)

    async def scenario():
        await burst("pre", 5)
        cluster.deployment.crash(client)
        await cluster.deployment.runtime.sleep(0.2)
        cluster.deployment.recover(client)
        await burst("post", 5)

    cluster.deployment.run_scenario(scenario(), extra_time=3.0)
    assert len(history.calls) == 10
    assert all(call.result.ok for call in history.calls)
    # Each incarnation's burst in issue order, all of it on every server.
    check(history.read(cluster.dispatchers),
          promises(spec)).raise_if_failed()


def test_heartbeat_membership_survives_chaos():
    from repro.core.microprotocols import ALL

    spec = ServiceSpec(unique=True, acceptance=ALL, bounded=0.0,
                       retrans_timeout=0.05)
    cluster = ServiceCluster(spec, KVStore, n_servers=3, seed=25,
                             default_link=LinkSpec(delay=0.005,
                                                   jitter=0.003,
                                                   loss=0.05),
                             membership="heartbeat",
                             heartbeat_interval=0.05)
    cluster.deployment.settle(0.5)
    cluster.deployment.crash(2)
    cluster.deployment.settle(1.0)   # detect
    result = cluster.call_and_run("put", {"key": "k", "value": 1},
                                  extra_time=1.0)
    assert result.ok
    cluster.deployment.recover(2)
    cluster.deployment.settle(1.0)   # recovery detected
    result = cluster.call_and_run("put", {"key": "k2", "value": 2},
                                  extra_time=1.0)
    assert result.ok
    assert cluster.app(2).data.get("k2") == 2   # back in rotation


def test_determinism_of_an_entire_chaos_scenario():
    def run():
        spec = ServiceSpec(unique=True, acceptance=2, bounded=1.0)
        cluster = ServiceCluster(spec, CounterApp, n_servers=2, seed=99,
                                 default_link=CHAOS_LINK)
        statuses = []
        for i in range(8):
            statuses.append(cluster.call_and_run(
                "inc", {"amount": 1, "tag": i}, extra_time=0.2).status)
        return statuses, cluster.deployment.metrics.snapshot()["counters"], \
            cluster.app(1).value

    assert run() == run()
