"""Probe-based orphan detection (extension micro-protocol)."""

import pytest

from repro import LinkSpec, ServiceCluster, ServiceSpec
from repro.apps import KVStore
from repro.core.microprotocols import ProbeOrphanTermination
from repro.errors import ConfigurationError

FAST = LinkSpec(delay=0.005, jitter=0.0)


def probe_spec(**overrides):
    spec = ServiceSpec(orphans="probe", unique=True, bounded=10.0,
                       probe_interval=0.1, probe_missed_limit=3)
    return spec.with_(**overrides)


def make_cluster(spec=None, op_delay=2.0):
    return ServiceCluster(spec or probe_spec(),
                          lambda pid: KVStore(op_delay=op_delay),
                          n_servers=1, default_link=FAST)


def micro(cluster):
    return cluster.grpc(1).micro("Probe_Orphan_Termination")


def test_probe_kills_orphans_of_silently_dead_client():
    # The client crashes mid-call and NEVER recovers: incarnation-based
    # detection would wait forever, probing kills within
    # ~interval * missed_limit.
    cluster = make_cluster()
    client = cluster.client

    async def doomed():
        await cluster.call(client, "put", {"key": "orphan", "value": 1})

    async def scenario():
        cluster.spawn_client(client, doomed())
        await cluster.deployment.runtime.sleep(0.1)   # execution in progress
        cluster.deployment.crash(client)
        await cluster.deployment.runtime.sleep(1.0)   # let probing detect

    cluster.deployment.run_scenario(scenario())
    probe = micro(cluster)
    assert probe.probe_kills == 1
    assert "orphan" not in cluster.app(1).data      # execution killed
    assert len(cluster.grpc(1).sRPC) == 0
    # Detection time: the kill happened within ~interval * (limit + 1).
    assert cluster.deployment.runtime.now() <= 1.2


def test_pongs_keep_live_clients_work_alive():
    cluster = make_cluster(op_delay=0.8)
    client = cluster.client
    results = []

    async def slow_call():
        results.append(await cluster.call(client, "put",
                                          {"key": "slow", "value": 1}))

    async def scenario():
        task = cluster.spawn_client(client, slow_call())
        await cluster.deployment.runtime.join(task)

    cluster.deployment.run_scenario(scenario(), extra_time=0.5)
    # The call outlived several probe intervals, yet was never killed.
    assert results and results[0].ok
    assert micro(cluster).kills == 0
    assert cluster.app(1).data == {"slow": 1}


def test_pong_from_new_incarnation_exposes_orphans():
    # The client reboots but issues no new CALL; its PONG (answering a
    # routine probe) already carries the new incarnation and triggers
    # the orphan kill.
    cluster = make_cluster()
    dep = cluster.deployment
    client = cluster.client

    async def doomed():
        await cluster.call(client, "put", {"key": "orphan", "value": 1})

    async def scenario():
        cluster.spawn_client(client, doomed())
        await dep.runtime.sleep(0.12)
        dep.crash(client)
        dep.recover(client)            # reboots silently
        await dep.runtime.sleep(0.5)   # probe + pong round trips

    dep.run_scenario(scenario())
    probe = micro(cluster)
    assert probe.kills >= 1
    assert "orphan" not in cluster.app(1).data


def test_retransmitting_client_reexecutes_after_false_kill():
    # A probe false-positive (client partitioned, not dead) kills the
    # execution; when the partition heals, the client's retransmission
    # runs the call again — at-least-once holds end to end.
    cluster = make_cluster(op_delay=1.5)
    client = cluster.client
    results = []

    async def call():
        results.append(await cluster.call(client, "put",
                                          {"key": "k", "value": 9}))

    async def scenario():
        task = cluster.spawn_client(client, call())
        await cluster.deployment.runtime.sleep(0.1)
        cluster.deployment.partition([client], [1])   # probes now unanswered
        await cluster.deployment.runtime.sleep(1.0)   # kill happens
        assert micro(cluster).probe_kills == 1
        cluster.deployment.heal()
        await cluster.deployment.runtime.join(task)

    cluster.deployment.run_scenario(scenario(), extra_time=1.0)
    assert results and results[0].ok
    assert cluster.app(1).data == {"k": 9}


def test_probe_parameters_validated():
    # The spec is rejected before any micro-protocol is constructed; the
    # constructor keeps its own guard.
    with pytest.raises(ConfigurationError):
        probe_spec(probe_interval=0.0).build()
    with pytest.raises(ConfigurationError):
        probe_spec(probe_missed_limit=0).build()
    with pytest.raises(ValueError):
        ProbeOrphanTermination(0.0, 3)
    with pytest.raises(ValueError):
        ProbeOrphanTermination(0.1, 0)


def test_probe_state_cleared_when_no_pending_work():
    cluster = make_cluster(op_delay=0.0)
    cluster.call_and_run("put", {"key": "a", "value": 1}, extra_time=0.5)
    probe = micro(cluster)
    assert probe._probes == {}   # nothing pending, nothing probed
