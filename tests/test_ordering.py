"""Ordering semantics: FIFO and Total Order invariants under jitter.

Each run's history is checked against ``promises(spec)``.  High network
jitter plus
pipelined (asynchronous) calls make arrival order differ from issue
order, so an ordering guarantee has to be earned by the micro-protocols,
not by accident of the schedule.
"""

import pytest

from repro import LinkSpec, ServiceCluster, ServiceSpec
from repro.analysis import History, check, promises
from repro.apps import KVStore

JITTERY = LinkSpec(delay=0.01, jitter=0.08)


def kv_cluster(spec, n_servers=3, n_clients=1, seed=0):
    return ServiceCluster(spec, KVStore, n_servers=n_servers,
                          n_clients=n_clients, seed=seed,
                          default_link=JITTERY)


async def put(cluster, history, pid, key, value):
    """One put from ``pid``, recorded in ``history``."""
    args = {"key": key, "value": value}
    history.end(history.invoke(pid, args),
                await cluster.call(pid, "put", args))


def pipelined_puts(cluster, history, client_pid, keys):
    """Issue one call per key concurrently from ``client_pid``."""
    async def one(key, i):
        await put(cluster, history, client_pid, key, i)

    async def scenario():
        tasks = [cluster.spawn_client(client_pid, one(k, i))
                 for i, k in enumerate(keys)]
        for t in tasks:
            await cluster.deployment.runtime.join(t)

    return scenario()


def test_without_ordering_servers_can_disagree():
    # Sanity check that the fault model really scrambles order: across a
    # few seeds, at least one run must show disagreement when no ordering
    # micro-protocol is configured.
    disagreements = 0
    for seed in range(5):
        spec = ServiceSpec(acceptance=3, bounded=60.0, unique=True,
                           ordering="none")
        cluster = kv_cluster(spec, seed=seed)
        history = History()
        cluster.deployment.run_scenario(pipelined_puts(
            cluster, history, cluster.client,
            [f"k{i}" for i in range(8)]), extra_time=2.0)
        history.read(cluster.dispatchers)
        check(history, promises(spec)).raise_if_failed()
        disagreements += not check(
            history, promises(spec.with_(ordering="total")))
    assert disagreements > 0


def test_fifo_order_applies_client_calls_in_issue_order():
    spec = ServiceSpec(acceptance=3, bounded=0.0, unique=True,
                       ordering="fifo")
    for seed in range(3):
        cluster = kv_cluster(spec, seed=seed)
        keys = [f"k{i}" for i in range(10)]
        history = History()
        cluster.deployment.run_scenario(
            pipelined_puts(cluster, history, cluster.client, keys),
            extra_time=2.0)
        assert all(call.result.ok for call in history.calls)
        # Acceptance 3 of 3 and FIFO: the issue order at every server.
        result = check(history.read(cluster.dispatchers), promises(spec))
        assert result, f"seed={seed}: {result.violations}"


def test_fifo_order_is_per_client_only():
    # Two clients interleave arbitrarily, but each client's own sequence
    # must appear in order at every server.
    spec = ServiceSpec(acceptance=3, bounded=0.0, unique=True,
                       ordering="fifo")
    cluster = kv_cluster(spec, n_clients=2, seed=1)
    c1, c2 = cluster.client_pids
    keys1 = [f"a{i}" for i in range(6)]
    keys2 = [f"b{i}" for i in range(6)]
    history = History()

    async def scenario():
        tasks = []
        for pid, keys in ((c1, keys1), (c2, keys2)):
            for i, key in enumerate(keys):
                tasks.append(cluster.spawn_client(
                    pid, put(cluster, history, pid, key, i)))
        for t in tasks:
            await cluster.deployment.runtime.join(t)

    cluster.deployment.run_scenario(scenario(), extra_time=2.0)
    assert len(history.calls) == 12
    assert all(call.result.ok for call in history.calls)
    check(history.read(cluster.dispatchers),
          promises(spec)).raise_if_failed()


def test_total_order_all_servers_apply_same_sequence():
    spec = ServiceSpec(acceptance=3, bounded=0.0, unique=True,
                       ordering="total")
    for seed in range(3):
        cluster = kv_cluster(spec, n_clients=3, seed=seed)
        history = History()

        async def scenario():
            tasks = []
            for ci, pid in enumerate(cluster.client_pids):
                for i in range(5):
                    tasks.append(cluster.spawn_client(
                        pid, put(cluster, history, pid, f"c{ci}-{i}", i)))
            for t in tasks:
                await cluster.deployment.runtime.join(t)

        cluster.deployment.run_scenario(scenario(), extra_time=3.0)
        assert len(history.calls) == 15
        assert all(call.result.ok for call in history.calls)
        # Total order and acceptance 3 of 3: one sequence everywhere.
        result = check(history.read(cluster.dispatchers), promises(spec))
        assert result, f"seed={seed}: {result.violations}"


def test_total_order_under_message_loss():
    spec = ServiceSpec(acceptance=3, bounded=0.0, unique=True,
                       ordering="total", retrans_timeout=0.05)
    link = LinkSpec(delay=0.01, jitter=0.03, loss=0.1)
    cluster = ServiceCluster(spec, KVStore, n_servers=3, n_clients=2,
                             seed=11, default_link=link)
    history = History()

    async def scenario():
        tasks = []
        for ci, pid in enumerate(cluster.client_pids):
            for i in range(4):
                tasks.append(cluster.spawn_client(
                    pid, put(cluster, history, pid, f"c{ci}-{i}", i)))
        for t in tasks:
            await cluster.deployment.runtime.join(t)

    cluster.deployment.run_scenario(scenario(), extra_time=5.0)
    assert len(history.calls) == 8
    assert all(call.result.ok for call in history.calls)
    check(history.read(cluster.dispatchers),
          promises(spec)).raise_if_failed()


def test_total_order_replicas_converge_to_identical_state():
    spec = ServiceSpec(acceptance=3, bounded=0.0, unique=True,
                       ordering="total")
    cluster = kv_cluster(spec, n_clients=2, seed=5)

    async def scenario():
        tasks = []
        for pid in cluster.client_pids:
            for i in range(5):
                # Both clients fight over the same keys; convergence then
                # genuinely needs total order.
                async def one(p=pid, i=i):
                    await cluster.call(p, "put",
                                       {"key": f"k{i % 3}", "value": p})
                tasks.append(cluster.spawn_client(pid, one()))
        for t in tasks:
            await cluster.deployment.runtime.join(t)

    cluster.deployment.run_scenario(scenario(), extra_time=3.0)
    states = [cluster.app(pid).data for pid in cluster.server_pids]
    assert states[0] == states[1] == states[2]


def test_total_order_leader_failover_with_membership():
    spec = ServiceSpec(acceptance=2, bounded=0.0, unique=True,
                       ordering="total")
    cluster = ServiceCluster(
        spec, KVStore, n_servers=3, seed=3,
        default_link=LinkSpec(delay=0.01, jitter=0.0),
        membership="oracle")
    history = History()

    async def scenario():
        # A first call through the original leader (pid 3).
        await put(cluster, history, cluster.client, "before", 1)
        cluster.deployment.crash(3)
        # New leader is pid 2; calls must keep completing.
        await put(cluster, history, cluster.client, "after", 2)

    task = cluster.spawn_client(cluster.client, scenario())

    async def waiter():
        await cluster.deployment.runtime.join(task)

    cluster.deployment.run_scenario(waiter(), extra_time=2.0)
    assert all(call.result.ok for call in history.calls)
    survivors = {pid: cluster.dispatchers[pid] for pid in (1, 2)}
    check(history.read(survivors), promises(spec)).raise_if_failed()
    assert history.executed == {1: [0, 1], 2: [0, 1]}
