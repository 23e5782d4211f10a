"""Membership RECOVERY events and pending calls (the paper's fine print).

The paper's Acceptance handler reacts only to FAILURE changes.  A member
*recovering* mid-call must not be added to a pending call's quota (its
requirement set was fixed at issue time), but it must count again for
calls issued afterwards.  These tests pin that boundary down.
"""

import pytest

from repro import LinkSpec, ServiceCluster, ServiceSpec, Status
from repro.apps import KVStore
from repro.core.microprotocols import ALL

FAST = LinkSpec(delay=0.005, jitter=0.0)


def make_cluster():
    spec = ServiceSpec(acceptance=ALL, bounded=0.0,
                       retrans_timeout=0.05)
    return ServiceCluster(spec, KVStore, n_servers=3,
                          default_link=FAST, membership="oracle")


def test_recovery_mid_call_does_not_raise_the_pending_quota():
    cluster = make_cluster()
    cluster.deployment.crash(3)          # call issued while 3 is down
    outcome = {}

    async def scenario():
        task = cluster.spawn_client(
            cluster.client, _call(cluster, outcome))
        # Recover the dead member while the call is in flight; the call
        # was scoped to the two live members and must complete with them
        # (not start waiting on the rejoiner too).
        await cluster.deployment.runtime.sleep(0.003)
        cluster.deployment.recover(3)
        await cluster.deployment.runtime.join(task)

    cluster.deployment.run_scenario(scenario(), extra_time=0.5)
    assert outcome["result"].ok
    # Completed at roughly one fast round trip.
    assert outcome["at"] < 0.1


def test_recovered_member_required_by_subsequent_calls():
    cluster = make_cluster()
    cluster.deployment.crash(3)
    assert cluster.call_and_run("put", {"key": "a", "value": 1},
                                extra_time=0.2).ok
    cluster.deployment.recover(3)
    cluster.deployment.settle(0.1)
    assert cluster.call_and_run("put", {"key": "b", "value": 2},
                                extra_time=0.5).ok
    # The rejoiner executed the new call: it was back in the quota.
    assert cluster.app(3).data == {"b": 2}


def test_failure_then_recovery_of_same_member_mid_call_is_stable():
    cluster = make_cluster()
    cluster.deployment.make_slow(3, 1.0)   # member 3 will be the laggard
    outcome = {}

    async def scenario():
        task = cluster.spawn_client(
            cluster.client, _call(cluster, outcome))
        await cluster.deployment.runtime.sleep(0.05)
        cluster.deployment.crash(3)        # marks 3 done on the pending call
        await cluster.deployment.runtime.sleep(0.05)
        cluster.deployment.recover(3)      # must NOT resurrect the requirement
        await cluster.deployment.runtime.join(task)

    cluster.deployment.run_scenario(scenario(), extra_time=1.5)
    assert outcome["result"].ok
    assert outcome["at"] < 0.5   # did not wait out the 1s laggard link


def _call(cluster, outcome):
    async def inner():
        outcome["result"] = await cluster.call(
            cluster.client, "put", {"key": "k", "value": 1})
        outcome["at"] = cluster.deployment.runtime.now()
    return inner()
