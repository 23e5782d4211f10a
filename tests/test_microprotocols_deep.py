"""Deep behavioral tests of individual micro-protocols on the wire.

These go below the black-box integration tests: they count actual
messages on the fabric, inspect the micro-protocols' tables mid-run, and
pin down the exact retransmission / acknowledgment / replay behavior of
each module.
"""

import pytest

from repro import LinkSpec, ServiceCluster, ServiceSpec, Status
from repro.apps import CounterApp, KVStore
from repro.core.messages import NetOp
from repro.faults import all_acks, calls_to, drop_matching, net_msg

FAST = LinkSpec(delay=0.005, jitter=0.0)


def count_wire(cluster, kind: NetOp, src=None, dst=None) -> int:
    total = 0
    for event in cluster.deployment.fabric.trace.events:
        if event.kind != "send":
            continue
        msg = event.detail
        if getattr(msg, "type", None) is not kind:
            continue
        if src is not None and event.src != src:
            continue
        if dst is not None and event.dst != dst:
            continue
        total += 1
    return total


# ----------------------------------------------------------------------
# Reliable Communication
# ----------------------------------------------------------------------

def test_no_retransmission_on_clean_fast_path():
    spec = ServiceSpec(unique=True, bounded=5.0, retrans_timeout=0.1)
    cluster = ServiceCluster(spec, KVStore, n_servers=2,
                             default_link=FAST)
    cluster.call_and_run("get", {"key": "k"}, extra_time=0.5)
    # One CALL per server, no more: the reply landed before the timer.
    assert count_wire(cluster, NetOp.CALL, dst=1) == 1
    assert count_wire(cluster, NetOp.CALL, dst=2) == 1


def test_retransmissions_target_only_unacked_servers():
    spec = ServiceSpec(unique=True, bounded=5.0, acceptance=2,
                       retrans_timeout=0.05)
    cluster = ServiceCluster(spec, KVStore, n_servers=2,
                             default_link=FAST)
    # Server 2 is unreachable for 0.3s: roughly 6 retransmissions to it,
    # but server 1 (which replied immediately) gets exactly one CALL.
    cluster.deployment.partition([cluster.client], [2])
    cluster.deployment.runtime.call_later(0.3, cluster.deployment.heal)
    result = cluster.call_and_run("get", {"key": "k"}, extra_time=0.5)
    assert result.ok
    assert count_wire(cluster, NetOp.CALL, dst=1) == 1
    assert count_wire(cluster, NetOp.CALL, dst=2) >= 4


def test_retransmission_stops_after_completion():
    spec = ServiceSpec(unique=True, bounded=5.0, retrans_timeout=0.05)
    cluster = ServiceCluster(spec, KVStore, n_servers=1,
                             default_link=FAST)
    cluster.call_and_run("get", {"key": "k"})
    before = count_wire(cluster, NetOp.CALL)
    cluster.deployment.settle(1.0)   # many timer periods later
    assert count_wire(cluster, NetOp.CALL) == before


def test_ack_suppresses_reply_replay_retransmissions():
    # Drop all ACKs: the server keeps its reply cached, and every
    # retransmitted CALL gets a replayed REPLY rather than re-execution.
    spec = ServiceSpec(unique=True, bounded=5.0, acceptance=1,
                       retrans_timeout=0.05)
    cluster = ServiceCluster(spec, CounterApp, n_servers=1,
                             default_link=FAST)
    fault = drop_matching(cluster.deployment.fabric, all_acks())
    result = cluster.call_and_run("inc", {"amount": 1, "tag": "t"},
                                  extra_time=0.3)
    assert result.ok
    assert fault.dropped >= 1
    unique = cluster.grpc(1).micro("Unique_Execution")
    # Reply cache still holds the result: the ACK never arrived.
    assert len(unique.old_results) == 1
    assert cluster.dispatchers[1].executions("t") == 1


# ----------------------------------------------------------------------
# Unique Execution
# ----------------------------------------------------------------------

def test_duplicate_calls_generate_replayed_replies_not_executions():
    spec = ServiceSpec(unique=True, bounded=5.0, acceptance=2,
                       retrans_timeout=0.04)
    cluster = ServiceCluster(spec, CounterApp, n_servers=2,
                             default_link=FAST)
    # Server 1's replies all vanish: the client retransmits, server 1
    # replays from the cache every time, and executes exactly once.
    fault = drop_matching(
        cluster.deployment.fabric,
        lambda env: env.src == 1
        and getattr(net_msg(env), "type", None) is NetOp.REPLY)
    cluster.deployment.runtime.call_later(0.5, fault.remove)
    result = cluster.call_and_run("inc", {"amount": 1, "tag": "t"},
                                  extra_time=0.5)
    assert result.ok
    assert cluster.dispatchers[1].executions("t") == 1
    replies_from_1 = count_wire(cluster, NetOp.REPLY, src=1)
    assert replies_from_1 >= 5   # original + replays


def test_client_acks_every_counted_reply():
    spec = ServiceSpec(unique=True, bounded=5.0, acceptance=3)
    cluster = ServiceCluster(spec, KVStore, n_servers=3,
                             default_link=FAST)
    cluster.call_and_run("get", {"key": "k"}, extra_time=0.5)
    assert count_wire(cluster, NetOp.ACK, src=cluster.client) == 3
    for pid in cluster.server_pids:
        unique = cluster.grpc(pid).micro("Unique_Execution")
        assert unique.old_results == {}   # all retired


def test_old_calls_grow_one_entry_per_distinct_call():
    spec = ServiceSpec(unique=True, bounded=5.0)
    cluster = ServiceCluster(spec, KVStore, n_servers=1,
                             default_link=FAST)
    for i in range(4):
        cluster.call_and_run("get", {"key": f"k{i}"}, extra_time=0.2)
    unique = cluster.grpc(1).micro("Unique_Execution")
    assert len(unique.old_calls) == 4


# ----------------------------------------------------------------------
# Bounded Termination
# ----------------------------------------------------------------------

def test_each_call_gets_its_own_deadline():
    spec = ServiceSpec(bounded=1.0, retrans_timeout=0.05)
    cluster = ServiceCluster(spec, KVStore, n_servers=1,
                             default_link=FAST)
    cluster.deployment.partition([cluster.client], [1])
    t0 = cluster.deployment.runtime.now()
    first = cluster.call_and_run("get", {"key": "a"})
    first_elapsed = cluster.deployment.runtime.now() - t0
    t1 = cluster.deployment.runtime.now()
    second = cluster.call_and_run("get", {"key": "b"})
    second_elapsed = cluster.deployment.runtime.now() - t1
    assert first.status is second.status is Status.TIMEOUT
    assert first_elapsed == pytest.approx(1.0, abs=0.02)
    assert second_elapsed == pytest.approx(1.0, abs=0.02)


def test_timeout_result_carries_no_partial_args():
    spec = ServiceSpec(bounded=0.5)
    cluster = ServiceCluster(spec, KVStore, n_servers=1,
                             default_link=FAST)
    cluster.deployment.crash(1)
    result = cluster.call_and_run("get", {"key": "k"})
    assert result.status is Status.TIMEOUT
    assert result.args is None   # the collation seed, untouched


# ----------------------------------------------------------------------
# Acceptance
# ----------------------------------------------------------------------

def test_nres_counts_distinct_servers_not_messages():
    spec = ServiceSpec(bounded=5.0, acceptance=2, reliable=True,
                       retrans_timeout=0.03, unique=False)
    # Duplicated links: the same server's reply can arrive twice, but
    # two copies of one reply must not satisfy acceptance=2.
    link = LinkSpec(delay=0.005, jitter=0.0, duplicate=1.0)
    cluster = ServiceCluster(spec, KVStore, n_servers=2, seed=3,
                             default_link=link)
    cluster.deployment.make_slow(2, 0.3)   # server 2's reply is late
    result = cluster.call_and_run("get", {"key": "k"}, extra_time=0.5)
    assert result.ok
    # Completion required the slow server: strictly after its delay.
    assert cluster.deployment.runtime.now() >= 0.3


def test_acceptance_progress_is_observable_midflight():
    spec = ServiceSpec(bounded=5.0, acceptance=3)
    cluster = ServiceCluster(spec, KVStore, n_servers=3,
                             default_link=FAST)
    cluster.deployment.make_slow(3, 1.0)
    observed = {}

    async def scenario():
        task = cluster.spawn_client(
            cluster.client,
            _call(cluster, "get", {"key": "k"}))
        await cluster.deployment.runtime.sleep(0.1)
        record = cluster.grpc(cluster.client).pRPC.get(1)
        observed["nres_midflight"] = record.nres
        observed["done_flags"] = sorted(
            pid for pid, e in record.pending.items() if e.done)
        await cluster.deployment.runtime.join(task)

    cluster.deployment.run_scenario(scenario(), extra_time=1.5)
    assert observed["nres_midflight"] == 1      # two of three counted
    assert observed["done_flags"] == [1, 2]


def _call(cluster, op, args):
    async def inner():
        await cluster.call(cluster.client, op, args)
    return inner()
