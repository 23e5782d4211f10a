"""Documented limits: ordering gates vs recovering servers.

A server that crashes and recovers has lost its ordering state (FIFO's
per-client progress, Total Order's rank tables); rejoining mid-history
would need state transfer, which neither the paper nor this reproduction
implements.  These tests pin down the *documented* behavior so a change
in it is caught: the recovered replica stays quiescent (gates everything
from the new position it cannot reconcile), while the service remains
available through the survivors whenever acceptance does not require the
rejoiner.
"""

import pytest

from repro import LinkSpec, ServiceCluster, ServiceSpec, Status
from repro.apps import KVStore

FAST = LinkSpec(delay=0.005, jitter=0.0)


def test_fifo_service_survives_server_bounce_via_survivor():
    spec = ServiceSpec(unique=True, ordering="fifo", acceptance=1,
                       bounded=0.0)
    cluster = ServiceCluster(spec, KVStore, n_servers=2,
                             default_link=FAST)
    for i in range(3):
        assert cluster.call_and_run("put", {"key": f"k{i}", "value": i},
                                    extra_time=0.2).ok
    cluster.deployment.crash(2)
    cluster.deployment.recover(2)
    cluster.deployment.settle(0.1)
    for i in range(3, 5):
        assert cluster.call_and_run("put", {"key": f"k{i}", "value": i},
                                    extra_time=0.3).ok
    # The survivor applied everything, in order.
    assert [k for _, k, _ in cluster.app(1).apply_log] == \
        [f"k{i}" for i in range(5)]
    # The rejoiner cannot reconcile mid-sequence ids: it stays quiescent
    # (known limitation — rejoin needs state transfer).
    assert cluster.app(2).apply_log == []


def test_fifo_rejoiner_resumes_when_the_client_reincarnates():
    # The client's next incarnation restarts ids at 1, which the
    # recovered server CAN order from scratch — recovery of the pair.
    spec = ServiceSpec(unique=True, ordering="fifo", acceptance=2,
                       bounded=0.0)
    cluster = ServiceCluster(spec, KVStore, n_servers=2,
                             default_link=FAST)
    assert cluster.call_and_run("put", {"key": "old", "value": 0},
                                extra_time=0.2).ok
    cluster.deployment.crash(2)
    cluster.deployment.recover(2)
    cluster.deployment.crash(cluster.client)
    cluster.deployment.recover(cluster.client)
    cluster.deployment.settle(0.1)
    result = cluster.call_and_run("put", {"key": "new", "value": 1},
                                  extra_time=0.3)
    assert result.ok   # acceptance=2: BOTH servers executed it
    assert [k for _, k, _ in cluster.app(2).apply_log] == ["new"]


def test_total_order_survivors_unaffected_by_follower_bounce():
    spec = ServiceSpec(unique=True, ordering="total", acceptance=1,
                       bounded=0.0)
    cluster = ServiceCluster(spec, KVStore, n_servers=3,
                             default_link=FAST)
    assert cluster.call_and_run("put", {"key": "a", "value": 1},
                                extra_time=0.2).ok
    cluster.deployment.crash(1)   # a follower, not the leader (3)
    cluster.deployment.recover(1)
    cluster.deployment.settle(0.1)
    for key in ("b", "c"):
        assert cluster.call_and_run("put", {"key": key, "value": 1},
                                    extra_time=0.3).ok
    # Leader and the never-crashed follower agree on the full sequence.
    assert [k for _, k, _ in cluster.app(3).apply_log] == ["a", "b", "c"]
    assert [k for _, k, _ in cluster.app(2).apply_log] == ["a", "b", "c"]
