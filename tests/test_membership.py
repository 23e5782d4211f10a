"""Membership semantics: oracle and heartbeat detectors feeding gRPC."""

import pytest

from repro import LinkSpec, ServiceCluster, ServiceSpec, Status
from repro.apps import KVStore
from repro.core.messages import MemChange
from repro.core.microprotocols import ALL
from repro.membership import HeartbeatDetector
from repro.net import NetworkFabric, Node, UnreliableTransport
from repro.runtime import SimRuntime

FAST = LinkSpec(delay=0.005, jitter=0.0)


# ----------------------------------------------------------------------
# Acceptance x membership (the paper's membership semantics)
# ----------------------------------------------------------------------

def test_acceptance_all_completes_when_failed_member_detected():
    spec = ServiceSpec(acceptance=ALL, bounded=0.0)
    cluster = ServiceCluster(spec, KVStore, n_servers=3,
                             default_link=FAST, membership="oracle")
    cluster.deployment.crash(3)
    result = cluster.call_and_run("put", {"key": "k", "value": 1})
    assert result.ok
    # Completed with the two functioning servers' replies.
    assert cluster.deployment.runtime.now() < 1.0


def test_acceptance_all_without_membership_waits_forever():
    spec = ServiceSpec(acceptance=ALL, bounded=2.0)
    cluster = ServiceCluster(spec, KVStore, n_servers=3,
                             default_link=FAST)  # no membership service
    cluster.deployment.crash(3)
    result = cluster.call_and_run("put", {"key": "k", "value": 1})
    # "a call will only terminate ... when the time limit expires"
    assert result.status is Status.TIMEOUT
    assert cluster.deployment.runtime.now() == pytest.approx(2.0, abs=0.05)


def test_failure_during_pending_call_completes_it():
    spec = ServiceSpec(acceptance=ALL, bounded=0.0)
    cluster = ServiceCluster(spec, KVStore, n_servers=3,
                             default_link=FAST, membership="oracle")
    cluster.deployment.make_slow(3, 5.0)   # server 3 will be the holdout

    async def scenario():
        res = await cluster.call(cluster.client, "put",
                                 {"key": "k", "value": 1})
        assert res.ok

    task = cluster.spawn_client(cluster.client, scenario())
    # Crash the holdout while the call waits on it.
    cluster.deployment.runtime.call_later(
        0.5, lambda: cluster.deployment.crash(3))

    async def waiter():
        await cluster.deployment.runtime.join(task)

    cluster.deployment.run_scenario(waiter(), extra_time=0.5)
    assert cluster.deployment.runtime.now() < 2.0   # did not wait the 5s link


def test_recovered_member_counts_again_for_new_calls():
    spec = ServiceSpec(acceptance=ALL, bounded=0.0)
    cluster = ServiceCluster(spec, KVStore, n_servers=2,
                             default_link=FAST, membership="oracle")
    cluster.deployment.crash(2)
    assert cluster.call_and_run("put", {"key": "a", "value": 1}).ok
    cluster.deployment.recover(2)
    cluster.deployment.settle(0.1)
    result = cluster.call_and_run("put", {"key": "b", "value": 2},
                                  extra_time=0.5)
    assert result.ok
    # Server 2 (fresh volatile state) saw only the second put.
    assert cluster.app(2).data == {"b": 2}


# ----------------------------------------------------------------------
# Heartbeat detector (unit-ish)
# ----------------------------------------------------------------------

def build_detector_pair(rt, interval=0.05, suspect_after=3):
    fabric = NetworkFabric(rt, default_link=FAST)
    detectors = {}
    for pid in (1, 2):
        node = Node(pid, rt, fabric)
        UnreliableTransport(node)
        detector = HeartbeatDetector(node, [1, 2], interval=interval,
                                     suspect_after=suspect_after)
        from repro.membership.detector import Heartbeat
        node.attach(Heartbeat, detector)
        node.start()
        detector.start()
        detectors[pid] = detector
    return fabric, detectors


def test_heartbeat_no_false_suspicions_on_healthy_network():
    rt = SimRuntime()
    fabric, detectors = build_detector_pair(rt)
    rt.kernel.run_until(5.0)
    assert detectors[1].alive() == {1, 2}
    assert detectors[2].alive() == {1, 2}


def test_heartbeat_detects_crash_and_recovery():
    rt = SimRuntime()
    fabric, detectors = build_detector_pair(rt)
    changes = []
    detectors[1].listeners.append(lambda pid, ch: changes.append((pid, ch)))
    rt.kernel.run_until(1.0)
    fabric.node(2).crash()
    rt.kernel.run_until(2.0)
    assert detectors[1].is_suspected(2)
    fabric.node(2).recover()
    rt.kernel.run_until(3.0)
    assert not detectors[1].is_suspected(2)
    assert changes == [(2, MemChange.FAILURE), (2, MemChange.RECOVERY)]


def test_heartbeat_detection_latency_scales_with_parameters():
    rt = SimRuntime()
    fabric, detectors = build_detector_pair(rt, interval=0.1,
                                            suspect_after=5)
    detected_at = []
    detectors[1].listeners.append(
        lambda pid, ch: detected_at.append(rt.now()))
    rt.kernel.run_until(1.0)
    fabric.node(2).crash()
    rt.kernel.run_until(5.0)
    assert len(detected_at) == 1
    latency = detected_at[0] - 1.0
    assert 0.4 < latency < 1.0   # ~interval * suspect_after


def test_heartbeat_false_suspicion_under_partition_then_heal():
    rt = SimRuntime()
    fabric, detectors = build_detector_pair(rt)
    rt.kernel.run_until(1.0)
    fabric.partition([1], [2])
    rt.kernel.run_until(2.0)
    # Both sides suspect each other although neither crashed.
    assert detectors[1].is_suspected(2)
    assert detectors[2].is_suspected(1)
    fabric.heal()
    rt.kernel.run_until(3.0)
    assert not detectors[1].is_suspected(2)
    assert not detectors[2].is_suspected(1)


def test_heartbeat_membership_end_to_end():
    spec = ServiceSpec(acceptance=ALL, bounded=0.0)
    cluster = ServiceCluster(spec, KVStore, n_servers=3,
                             default_link=FAST,
                             membership="heartbeat",
                             heartbeat_interval=0.05)
    cluster.deployment.settle(0.5)   # let heartbeats establish
    cluster.deployment.crash(3)
    cluster.deployment.settle(0.5)   # detection takes ~3 intervals
    result = cluster.call_and_run("put", {"key": "k", "value": 1},
                                  extra_time=0.5)
    assert result.ok
    assert cluster.app(1).data == {"k": 1}
    assert cluster.app(2).data == {"k": 1}
