"""Crash/recovery of the gRPC composite: incarnations, volatile state."""

import pytest

from repro import LinkSpec, ServiceCluster, ServiceSpec, Status
from repro.apps import CounterApp, KVStore

FAST = LinkSpec(delay=0.005, jitter=0.0)


def test_client_recovery_bumps_incarnation_and_restarts_ids():
    spec = ServiceSpec(bounded=5.0)
    cluster = ServiceCluster(spec, KVStore, n_servers=1, default_link=FAST)
    client = cluster.client
    r1 = cluster.call_and_run("put", {"key": "a", "value": 1})
    assert r1.id == 1
    cluster.deployment.crash(client)
    cluster.deployment.recover(client)
    cluster.deployment.settle(0.1)
    assert cluster.grpc(client).inc_number == 2
    r2 = cluster.call_and_run("put", {"key": "b", "value": 2})
    assert r2.id == 1   # id space restarted with the new incarnation
    assert r2.ok


def test_server_keys_calls_by_incarnation_so_recycled_ids_execute():
    # Same (client, id) after recovery must be a NEW call, not a
    # duplicate — the incarnation in the key disambiguates.
    spec = ServiceSpec(bounded=5.0, unique=True)
    cluster = ServiceCluster(spec, CounterApp, n_servers=1,
                             default_link=FAST)
    client = cluster.client
    assert cluster.call_and_run("inc", {"amount": 1}, extra_time=0.2).ok
    cluster.deployment.crash(client)
    cluster.deployment.recover(client)
    cluster.deployment.settle(0.1)
    assert cluster.call_and_run("inc", {"amount": 1}, extra_time=0.2).ok
    assert cluster.app(1).value == 2


def test_pending_call_dies_with_client_crash():
    spec = ServiceSpec(bounded=0.0)
    cluster = ServiceCluster(spec, KVStore, n_servers=1, default_link=FAST)
    client = cluster.client
    cluster.deployment.partition([client], [1])   # call can never complete
    finished = []

    async def doomed():
        await cluster.call(client, "put", {"key": "k", "value": 1})
        finished.append(True)

    async def scenario():
        cluster.spawn_client(client, doomed())
        await cluster.deployment.runtime.sleep(0.5)
        cluster.deployment.crash(client)
        await cluster.deployment.runtime.sleep(0.5)

    cluster.deployment.run_scenario(scenario())
    assert finished == []
    assert len(cluster.grpc(client).pRPC) == 0   # volatile table cleared


def test_server_recovery_serves_new_calls_with_fresh_state():
    spec = ServiceSpec(bounded=5.0)
    cluster = ServiceCluster(spec, KVStore, n_servers=1, default_link=FAST)
    assert cluster.call_and_run("put", {"key": "a", "value": 1}).ok
    cluster.deployment.crash(1)
    cluster.deployment.recover(1)
    cluster.deployment.settle(0.1)
    res = cluster.call_and_run("get", {"key": "a"}, extra_time=0.2)
    assert res.ok
    assert res.args is None   # volatile KV data died with the server


def test_server_bounce_during_call_retransmission_completes_it():
    # The call is issued while the server is down; reliable retransmission
    # finishes the job once it comes back.
    spec = ServiceSpec(bounded=0.0, retrans_timeout=0.05)
    cluster = ServiceCluster(spec, KVStore, n_servers=1, default_link=FAST)
    cluster.deployment.crash(1)
    cluster.deployment.runtime.call_later(
        1.0, lambda: cluster.deployment.recover(1))
    result = cluster.call_and_run("put", {"key": "k", "value": 9},
                                  extra_time=0.3)
    assert result.ok
    assert cluster.deployment.runtime.now() >= 1.0
    assert cluster.app(1).data == {"k": 9}


def test_crash_disarms_pending_timeouts():
    spec = ServiceSpec(bounded=3.0)
    cluster = ServiceCluster(spec, KVStore, n_servers=1, default_link=FAST)
    client = cluster.client
    cluster.deployment.partition([client], [1])

    async def scenario():
        cluster.spawn_client(
            client,
            _ignore_cancel(cluster, client))
        await cluster.deployment.runtime.sleep(0.5)
        assert cluster.grpc(client).bus.pending_timeouts() > 0
        cluster.deployment.crash(client)
        assert cluster.grpc(client).bus.pending_timeouts() == 0

    cluster.deployment.run_scenario(scenario())


def test_recovery_rearms_retransmission_timer():
    spec = ServiceSpec(bounded=5.0)
    cluster = ServiceCluster(spec, KVStore, n_servers=1, default_link=FAST)
    client = cluster.client
    cluster.deployment.crash(client)
    cluster.deployment.recover(client)
    cluster.deployment.settle(0.1)
    # The re-configured Reliable Communication must still retransmit:
    # partition, call, heal after 1s, call completes.
    cluster.deployment.partition([client], [1])
    cluster.deployment.runtime.call_later(1.0, cluster.deployment.heal)
    result = cluster.call_and_run("put", {"key": "x", "value": 1},
                                  extra_time=0.2)
    assert result.ok


def test_double_crash_is_idempotent():
    cluster = ServiceCluster(ServiceSpec(), KVStore, n_servers=1,
                             default_link=FAST)
    cluster.deployment.crash(1)
    cluster.deployment.crash(1)
    cluster.deployment.recover(1)
    cluster.deployment.recover(1)
    cluster.deployment.settle(0.05)  # let the RECOVERY event run
    assert cluster.deployment.nodes[1].incarnation == 2


def _ignore_cancel(cluster, client):
    async def inner():
        from repro.errors import TaskCancelled
        try:
            await cluster.call(client, "put", {"key": "k", "value": 1})
        except TaskCancelled:
            raise
    return inner()
