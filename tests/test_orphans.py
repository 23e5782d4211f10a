"""Orphan handling semantics: interference avoidance, orphan termination.

Scenario template (the paper's motivating example): a client issues a
slow request, crashes, recovers with a new incarnation number, and issues
new requests while the orphaned computation is still running at the
server.
"""

import pytest

from repro import LinkSpec, ServiceCluster, ServiceSpec, Status
from repro.apps import BankApp, KVStore

FAST = LinkSpec(delay=0.005, jitter=0.0)


def slow_kv(pid):
    return KVStore(op_delay=0.5)


def make_cluster(orphans, *, app=slow_kv, execution="none", n_servers=1,
                 bounded=10.0, **kwargs):
    spec = ServiceSpec(orphans=orphans, bounded=bounded, unique=True,
                       execution=execution)
    return ServiceCluster(spec, app, n_servers=n_servers,
                          default_link=FAST, **kwargs)


def crash_recover_scenario(cluster, *, crash_at=0.1, recover_at=0.3):
    """Client starts a slow put, dies, reincarnates, writes again."""
    client = cluster.client
    outcome = {}

    async def first_call():
        await cluster.call(client, "put", {"key": "orphaned", "value": 1})

    async def second_call():
        outcome["second"] = await cluster.call(
            client, "put", {"key": "fresh", "value": 2})

    async def scenario():
        cluster.spawn_client(client, first_call())
        await cluster.deployment.runtime.sleep(crash_at)
        cluster.deployment.crash(client)
        await cluster.deployment.runtime.sleep(recover_at - crash_at)
        cluster.deployment.recover(client)
        task = cluster.spawn_client(client, second_call())
        await cluster.deployment.runtime.join(task)

    cluster.deployment.run_scenario(scenario(), extra_time=3.0)
    return outcome


def test_ignore_orphans_lets_orphan_finish():
    cluster = make_cluster("none")
    outcome = crash_recover_scenario(cluster)
    assert outcome["second"].ok
    app = cluster.app(1)
    # The orphaned computation ran to completion alongside the new call.
    assert app.data.get("orphaned") == 1
    assert app.data.get("fresh") == 2


def test_interference_avoidance_defers_new_generation():
    cluster = make_cluster("avoid")
    outcome = crash_recover_scenario(cluster)
    assert outcome["second"].ok
    app = cluster.app(1)
    log_keys = [k for kind, k, _ in app.apply_log]
    # Both executed, but the orphan finished BEFORE the new incarnation's
    # call started (interference avoidance's whole point).
    assert log_keys == ["orphaned", "fresh"]


def test_interference_avoidance_old_incarnation_messages_dropped():
    cluster = make_cluster("avoid")
    crash_recover_scenario(cluster)
    ia = cluster.grpc(1).micro("Interference_Avoidance")
    info = ia.cinfo[cluster.client]
    assert info.inc == 2          # new generation admitted
    assert info.count == 0        # and fully drained


def test_terminate_orphan_kills_running_computation():
    cluster = make_cluster("terminate")
    outcome = crash_recover_scenario(cluster)
    assert outcome["second"].ok
    app = cluster.app(1)
    to = cluster.grpc(1).micro("Terminate_Orphan")
    assert to.kills == 1
    # The orphan was killed mid-flight: its put never landed.
    assert "orphaned" not in app.data
    assert app.data.get("fresh") == 2


def test_terminate_orphan_does_not_kill_completed_work():
    # Crash the client AFTER the slow call finished: nothing to kill.
    cluster = make_cluster("terminate", app=lambda pid: KVStore())
    client = cluster.client

    async def scenario():
        task = cluster.spawn_client(
            client, _put(cluster, client, "done", 1))
        await cluster.deployment.runtime.join(task)
        cluster.deployment.crash(client)
        await cluster.deployment.runtime.sleep(0.1)
        cluster.deployment.recover(client)
        task = cluster.spawn_client(
            client, _put(cluster, client, "fresh", 2))
        await cluster.deployment.runtime.join(task)

    cluster.deployment.run_scenario(scenario(), extra_time=1.0)
    to = cluster.grpc(1).micro("Terminate_Orphan")
    assert to.kills == 0
    assert cluster.app(1).data == {"done": 1, "fresh": 2}


def test_terminate_orphan_without_atomicity_can_break_invariants():
    # An orphan kill mid-transfer abandons the half-done stable writes —
    # the taxonomy's predicted interaction between orphan termination and
    # (non-)atomic execution.
    cluster = make_cluster(
        "terminate",
        app=lambda pid: BankApp({"alice": 100, "bob": 100},
                                transfer_delay=0.5))
    client = cluster.client

    async def transfer():
        await cluster.call(client, "transfer",
                           {"src": "alice", "dst": "bob", "amount": 30})

    async def scenario():
        cluster.spawn_client(client, transfer())
        # Mid-transfer (delay 0.5).
        await cluster.deployment.runtime.sleep(0.1)
        cluster.deployment.crash(client)
        await cluster.deployment.runtime.sleep(0.1)
        cluster.deployment.recover(client)
        task = cluster.spawn_client(
            client,
            _call(cluster, client, "balance", {"account": "alice"}))
        await cluster.deployment.runtime.join(task)

    cluster.deployment.run_scenario(scenario(), extra_time=2.0)
    stable = cluster.deployment.nodes[1].stable
    assert stable.get("acct:alice") == 70   # debit persisted
    assert stable.get("acct:bob") == 100    # credit never happened


def test_serial_execution_gate_released_after_orphan_kill():
    # With Serial Execution, killing the executing orphan must release
    # the gate or the server wedges forever.
    cluster = make_cluster("terminate", execution="serial")
    outcome = crash_recover_scenario(cluster)
    assert outcome["second"].ok
    grpc = cluster.grpc(1)
    assert grpc.serial.value == 1  # gate free again
    # And the server still works:
    res = cluster.call_and_run("get", {"key": "fresh"}, extra_time=1.0)
    assert res.ok and res.args == 2


def _put(cluster, client, key, value):
    async def inner():
        await cluster.call(client, "put", {"key": key, "value": value})
    return inner()


def _call(cluster, client, op, args):
    async def inner():
        await cluster.call(client, op, args)
    return inner()
