"""The replicated lock service: agreement needs total order."""

import pytest

from repro import LinkSpec, ServiceCluster, ServiceSpec
from repro.apps import LockService
from repro.core.microprotocols import majority_vote

JITTERY = LinkSpec(delay=0.01, jitter=0.06)


def rsm_spec():
    return ServiceSpec(unique=True, ordering="total", acceptance=3,
                       bounded=0.0,
                       collation=(majority_vote, dict))


def race_two_clients(cluster):
    """Two clients race to acquire the same lock concurrently."""
    grants = {}

    async def contender(pid, name):
        result = await cluster.call(pid, "acquire",
                                    {"lock": "leader", "owner": name})
        # majority_vote collation: result.args is {answer: votes}.
        grants[name] = max(result.args, key=result.args.get)

    async def scenario():
        a, b = cluster.client_pids
        tasks = [cluster.spawn_client(a, contender(a, "alice")),
                 cluster.spawn_client(b, contender(b, "bob"))]
        for task in tasks:
            await cluster.deployment.runtime.join(task)

    cluster.deployment.run_scenario(scenario(), extra_time=2.0)
    return grants


def test_total_order_grants_exactly_one_winner():
    for seed in range(4):
        cluster = ServiceCluster(rsm_spec(), LockService, n_servers=3,
                                 n_clients=2, seed=seed,
                                 default_link=JITTERY)
        grants = race_two_clients(cluster)
        # Both clients were told the same winner...
        assert grants["alice"] == grants["bob"], f"seed={seed}"
        # ...and every replica agrees who holds the lock.
        holders = {cluster.app(pid).holders.get("leader")
                   for pid in cluster.server_pids}
        assert len(holders) == 1, f"seed={seed}"
        assert holders.pop() == grants["alice"]


def test_without_ordering_replicas_can_split_brain():
    split_brains = 0
    for seed in range(8):
        spec = rsm_spec().with_(ordering="none")
        cluster = ServiceCluster(spec, LockService, n_servers=3,
                                 n_clients=2, seed=seed,
                                 default_link=JITTERY)
        race_two_clients(cluster)
        holders = {cluster.app(pid).holders.get("leader")
                   for pid in cluster.server_pids}
        if len(holders) > 1:
            split_brains += 1
    assert split_brains > 0   # the hazard total order removes


def test_release_and_reacquire_cycle():
    cluster = ServiceCluster(rsm_spec(), LockService, n_servers=3,
                             n_clients=1,
                             default_link=LinkSpec(delay=0.005,
                                                   jitter=0.0))
    client = cluster.client
    log = {}

    async def scenario():
        grpc = cluster.grpc(client)

        async def acquire(owner):
            result = await grpc.call("acquire",
                                     {"lock": "L", "owner": owner},
                                     cluster.group)
            return max(result.args, key=result.args.get)

        log["first"] = await acquire("alice")
        log["contested"] = await acquire("bob")     # denied: held
        release = await grpc.call("release",
                                  {"lock": "L", "owner": "alice"},
                                  cluster.group)
        log["released"] = max(release.args, key=release.args.get)
        log["second"] = await acquire("bob")        # now granted

    task = cluster.spawn_client(client, scenario())

    async def waiter():
        await cluster.deployment.runtime.join(task)

    cluster.deployment.run_scenario(waiter(), extra_time=1.0)
    assert log["first"] == "alice"
    assert log["contested"] == "alice"   # holder, not the contender
    assert log["released"] is True
    assert log["second"] == "bob"


def test_only_holder_can_release():
    cluster = ServiceCluster(rsm_spec(), LockService, n_servers=3,
                             default_link=LinkSpec(delay=0.005,
                                                   jitter=0.0))
    client = cluster.client
    outcome = {}

    async def scenario():
        grpc = cluster.grpc(client)
        await grpc.call("acquire", {"lock": "L", "owner": "alice"},
                        cluster.group)
        result = await grpc.call("release",
                                 {"lock": "L", "owner": "mallory"},
                                 cluster.group)
        outcome["stolen"] = max(result.args, key=result.args.get)
        holder = await grpc.call("holder", {"lock": "L"}, cluster.group)
        outcome["holder"] = max(holder.args, key=holder.args.get)

    task = cluster.spawn_client(client, scenario())

    async def waiter():
        await cluster.deployment.runtime.join(task)

    cluster.deployment.run_scenario(waiter(), extra_time=1.0)
    assert outcome["stolen"] is False
    assert outcome["holder"] == "alice"


def test_grant_logs_identical_across_replicas():
    cluster = ServiceCluster(rsm_spec(), LockService, n_servers=3,
                             n_clients=3, seed=2, default_link=JITTERY)

    async def churn(pid, name):
        grpc = cluster.grpc(pid)
        for i in range(3):
            await grpc.call("acquire",
                            {"lock": f"l{i}", "owner": name},
                            cluster.group)
            await grpc.call("release",
                            {"lock": f"l{i}", "owner": name},
                            cluster.group)

    async def scenario():
        tasks = [cluster.spawn_client(pid, churn(pid, f"c{pid}"))
                 for pid in cluster.client_pids]
        for task in tasks:
            await cluster.deployment.runtime.join(task)

    cluster.deployment.run_scenario(scenario(), extra_time=2.0)
    logs = [tuple(cluster.app(pid).grant_log)
            for pid in cluster.server_pids]
    assert logs.count(logs[0]) == 3
