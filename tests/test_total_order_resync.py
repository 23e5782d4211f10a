"""Total Order's agreement phase (extension): leader crash mid-traffic.

The paper omits the leader-change agreement "for brevity"; these tests
exercise the resync extension in exactly the scenario the simplified
protocol cannot handle — the leader dying with ORDER messages in flight.
"""

import pytest

from repro import LinkSpec, ServiceCluster, ServiceSpec
from repro.analysis import History, check, promises
from repro.apps import KVStore

LINK = LinkSpec(delay=0.01, jitter=0.03)


def rsm_spec(resync=True):
    return ServiceSpec(ordering="total", unique=True, bounded=0.0,
                       acceptance=3, total_resync=resync,
                       total_resync_grace=0.2)


def make_cluster(seed=0, resync=True, n_clients=3):
    return ServiceCluster(rsm_spec(resync), KVStore, n_servers=3,
                          n_clients=n_clients, seed=seed,
                          default_link=LINK, membership="oracle")


def survivors(cluster, history):
    """``history`` with the executions of servers 1 and 2 read: the
    group once the leader, server 3, has crashed."""
    return history.read({pid: cluster.dispatchers[pid] for pid in (1, 2)})


async def put(cluster, history, pid, key, value):
    args = {"key": key, "value": value}
    history.end(history.invoke(pid, args),
                await cluster.call(pid, "put", args))


def crash_leader_mid_traffic(cluster, calls_per_client=4,
                             crash_after=0.05):
    """Returns the run's history, read from the survivors."""
    history = History()

    async def client_loop(ci, pid):
        for i in range(calls_per_client):
            await put(cluster, history, pid, f"c{ci}-{i}", i)

    async def scenario():
        tasks = [cluster.spawn_client(pid, client_loop(ci, pid))
                 for ci, pid in enumerate(cluster.client_pids)]
        await cluster.deployment.runtime.sleep(crash_after)
        cluster.deployment.crash(3)   # the leader, with ORDERs in flight
        for task in tasks:
            await cluster.deployment.runtime.join(task)

    cluster.deployment.run_scenario(scenario(), extra_time=5.0)
    return survivors(cluster, history)


def test_leader_crash_mid_traffic_all_calls_complete():
    for seed in range(4):
        cluster = make_cluster(seed=seed)
        history = crash_leader_mid_traffic(cluster)
        assert len(history.calls) == 3 * 4
        assert all(call.result.ok for call in history.calls)
        # Survivors applied every call, in identical order.
        result = check(history, promises(rsm_spec()))
        assert result, f"seed={seed}: {result.violations}"


def test_new_leader_ran_the_agreement_phase():
    cluster = make_cluster(seed=1)
    crash_leader_mid_traffic(cluster)
    new_leader = cluster.grpc(2).micro("Total_Order")
    follower = cluster.grpc(1).micro("Total_Order")
    assert new_leader.resyncs_led == 1
    assert follower.resyncs_led == 0
    assert not new_leader._resyncing


def test_resync_survives_query_loss():
    from repro.faults import drop_first
    from repro.core.messages import NetOp

    cluster = make_cluster(seed=2)
    # Lose the first ORDER_QUERY: the grace-timeout retry must cover it.
    drop_first(cluster.deployment.fabric, 1,
               lambda env: getattr(env.payload, "type", None)
               is NetOp.ORDER_QUERY)
    history = crash_leader_mid_traffic(cluster)
    assert len(history.calls) == 12
    assert all(call.result.ok for call in history.calls)
    check(history, promises(rsm_spec())).raise_if_failed()


def test_rank_continuity_after_failover():
    # Every rank executed at the survivors must be contiguous: no gaps
    # (stuck sequence) and no duplicates (rank reuse).
    cluster = make_cluster(seed=3)
    history = crash_leader_mid_traffic(cluster)
    for pid in (1, 2):
        micro = cluster.grpc(pid).micro("Total_Order")
        ranks = sorted(micro.old_orders.values())
        assert ranks == sorted(set(ranks))          # no duplicate ranks
        assert micro.next_entry == len(history.executed[pid]) + 1


def partial_order_dissemination_scenario(resync, seed):
    """Force the unsafe case: the old leader's ORDER messages reach
    server 1 but never server 2 (the future leader), then the leader
    crashes with two calls ordered but unexecutable (acceptance=3
    requires the dead server until membership reports it).  Returns
    the survivors' history checked against the spec's promises."""
    from repro.core.messages import NetOp
    from repro.faults import drop_matching

    cluster = ServiceCluster(rsm_spec(resync), KVStore, n_servers=3,
                             n_clients=2, seed=seed,
                             default_link=LINK, membership="oracle",
                             membership_delay=0.05)
    dep = cluster.deployment
    history = History()
    fault = drop_matching(
        dep.fabric,
        lambda env: env.src == 3 and env.dst == 2
        and getattr(env.payload, "type", None) is NetOp.ORDER)

    async def scenario():
        tasks = []
        for i, pid in enumerate(cluster.client_pids):
            tasks.append(cluster.spawn_client(
                pid, put(cluster, history, pid, f"call-{i}", 1)))
        await dep.runtime.sleep(0.3)   # orders assigned, 2 blind
        fault.remove()
        dep.crash(3)
        deadline = dep.runtime.now() + 20.0
        for task in tasks:
            while not task.done and dep.runtime.now() < deadline:
                await dep.runtime.sleep(0.25)

    dep.run_scenario(scenario(), extra_time=3.0)
    return check(survivors(cluster, history), promises(rsm_spec(resync)))


def test_without_resync_partial_dissemination_breaks_agreement():
    # Documented gap of the paper's simplified protocol: with the old
    # leader's assignments known only to server 1, the new leader can
    # reuse ranks — the survivors then diverge or stall.
    broken = 0
    for seed in range(6):
        broken += not partial_order_dissemination_scenario(resync=False,
                                                           seed=seed)
    assert broken > 0


def test_with_resync_partial_dissemination_is_repaired():
    # Same injected scenario, agreement phase on: the new leader learns
    # the stranded assignments from server 1 before assigning anything.
    for seed in range(6):
        result = partial_order_dissemination_scenario(resync=True,
                                                      seed=seed)
        assert result, f"seed={seed}: {result.violations}"
