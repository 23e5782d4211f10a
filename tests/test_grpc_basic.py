"""Integration tests: basic call paths of assembled gRPC services."""

import pytest

from repro import (
    Group,
    LinkSpec,
    ServiceCluster,
    ServiceSpec,
    Status,
    read_optimized,
)
from repro.apps import ComputeApp, CounterApp, KVStore
from repro.core.microprotocols import (
    ALL,
    all_replies,
    average,
    first_reply,
    majority_vote,
)
from repro.errors import ConfigurationError, UnknownCallError


def test_synchronous_call_returns_result_and_status():
    cluster = ServiceCluster(read_optimized(), KVStore, n_servers=3)
    result = cluster.call_and_run("put", {"key": "x", "value": 10})
    assert result.ok
    assert result.id == 1
    result = cluster.call_and_run("get", {"key": "x"})
    assert result.ok
    assert result.args == 10


def test_sequential_calls_get_increasing_ids():
    cluster = ServiceCluster(read_optimized(), KVStore, n_servers=2)
    ids = [cluster.call_and_run("get", {"key": "k"}).id for _ in range(4)]
    assert ids == [1, 2, 3, 4]


def test_call_reaches_all_group_members():
    cluster = ServiceCluster(
        read_optimized().with_(acceptance=3), KVStore, n_servers=3)
    result = cluster.call_and_run("put", {"key": "a", "value": 1},
                                  extra_time=0.5)
    assert result.ok
    for pid in cluster.server_pids:
        assert cluster.app(pid).data == {"a": 1}


def test_point_to_point_rpc_is_group_of_one():
    cluster = ServiceCluster(read_optimized(), KVStore, n_servers=1)
    result = cluster.call_and_run("put", {"key": "p", "value": "v"})
    assert result.ok
    assert cluster.app(1).data == {"p": "v"}


def test_acceptance_one_returns_after_first_reply():
    spec = read_optimized(timebound=10.0)
    cluster = ServiceCluster(spec, KVStore, n_servers=3,
                             default_link=LinkSpec(delay=0.01, jitter=0.0))
    cluster.deployment.make_slow(2, 5.0)
    cluster.deployment.make_slow(3, 5.0)

    result = cluster.call_and_run("get", {"key": "x"})
    assert result.ok
    # Completed at roughly one fast round-trip, not the slow replicas'.
    assert cluster.deployment.runtime.now() < 1.0


def test_acceptance_all_waits_for_every_member():
    spec = ServiceSpec(acceptance=ALL, bounded=60.0)
    cluster = ServiceCluster(spec, KVStore, n_servers=3,
                             default_link=LinkSpec(delay=0.01, jitter=0.0))
    cluster.deployment.make_slow(3, 2.0)
    result = cluster.call_and_run("get", {"key": "x"})
    assert result.ok
    assert cluster.deployment.runtime.now() >= 2.0


def test_bounded_termination_times_out_when_servers_unreachable():
    cluster = ServiceCluster(read_optimized(timebound=1.0), KVStore,
                             n_servers=2)
    for pid in cluster.server_pids:
        cluster.deployment.crash(pid)
    result = cluster.call_and_run("get", {"key": "x"})
    assert result.status is Status.TIMEOUT
    assert cluster.deployment.runtime.now() == pytest.approx(1.0, abs=0.01)


def test_unbounded_call_waits_out_a_long_outage():
    # No Bounded Termination: the call keeps retransmitting until the
    # partition heals — the paper's unbounded termination semantics.
    spec = ServiceSpec(bounded=0.0, retrans_timeout=0.05)
    cluster = ServiceCluster(spec, KVStore, n_servers=1)
    cluster.deployment.partition([cluster.client], cluster.server_pids)
    cluster.deployment.runtime.call_later(3.0, cluster.deployment.heal)
    result = cluster.call_and_run("put", {"key": "k", "value": 1})
    assert result.ok
    assert cluster.deployment.runtime.now() >= 3.0


def test_asynchronous_call_returns_immediately_then_redeems():
    spec = read_optimized().with_(call="asynchronous")
    cluster = ServiceCluster(spec, KVStore, n_servers=2,
                             default_link=LinkSpec(delay=0.1, jitter=0.0))
    outcome = {}

    async def scenario():
        grpc = cluster.grpc(cluster.client)
        issued = await grpc.call("put", {"key": "k", "value": 5},
                                 cluster.group)
        outcome["issue_time"] = cluster.deployment.runtime.now()
        assert issued.status is Status.WAITING
        result = await grpc.request(issued.id)
        outcome["result"] = result
        outcome["redeem_time"] = cluster.deployment.runtime.now()

    task = cluster.spawn_client(cluster.client, scenario())
    cluster.deployment.run_scenario(_join(cluster, task))
    assert outcome["issue_time"] < 0.1           # returned pre-roundtrip
    assert outcome["result"].ok
    assert outcome["redeem_time"] >= 0.2         # waited for the reply


def test_async_request_for_unknown_id_raises():
    spec = read_optimized().with_(call="asynchronous")
    cluster = ServiceCluster(spec, KVStore, n_servers=1)

    async def scenario():
        grpc = cluster.grpc(cluster.client)
        with pytest.raises(UnknownCallError):
            await grpc.request(999)

    task = cluster.spawn_client(cluster.client, scenario())
    cluster.deployment.run_scenario(_join(cluster, task))


def test_request_without_async_microprotocol_rejected():
    cluster = ServiceCluster(read_optimized(), KVStore, n_servers=1)

    async def scenario():
        with pytest.raises(ConfigurationError):
            await cluster.grpc(cluster.client).request(1)

    task = cluster.spawn_client(cluster.client, scenario())
    cluster.deployment.run_scenario(_join(cluster, task))


def test_concurrent_client_calls_multiplex_correctly():
    cluster = ServiceCluster(read_optimized(timebound=30.0), KVStore,
                             n_servers=2, n_clients=2)
    results = {}

    async def worker(pid, key):
        res = await cluster.call(pid, "put", {"key": key, "value": pid})
        results[pid] = res

    async def scenario():
        tasks = [
            cluster.spawn_client(cluster.client_pids[0],
                                 worker(cluster.client_pids[0], "a")),
            cluster.spawn_client(cluster.client_pids[1],
                                 worker(cluster.client_pids[1], "b")),
        ]
        for t in tasks:
            await cluster.deployment.runtime.join(t)

    cluster.deployment.run_scenario(scenario(), extra_time=0.5)
    assert results[cluster.client_pids[0]].ok
    assert results[cluster.client_pids[1]].ok
    assert cluster.app(1).data == {"a": 101, "b": 102}


# ----------------------------------------------------------------------
# Collation semantics
# ----------------------------------------------------------------------

def _compute_cluster(collation, acceptance, n=3, **kwargs):
    spec = ServiceSpec(acceptance=acceptance, collation=collation,
                       bounded=30.0)
    return ServiceCluster(spec, lambda pid: ComputeApp(pid * 10.0),
                          n_servers=n, **kwargs)


def test_collation_all_replies_collects_every_member():
    cluster = _compute_cluster((all_replies, list), acceptance=3)
    result = cluster.call_and_run("measure", {})
    assert result.ok
    assert sorted(result.args) == [10.0, 20.0, 30.0]


def test_collation_average():
    cluster = _compute_cluster((average, None), acceptance=3)
    result = cluster.call_and_run("measure", {})
    assert result.ok
    mean, count = result.args
    assert mean == pytest.approx(20.0)
    assert count == 3


def test_collation_first_reply_is_fastest_server():
    cluster = _compute_cluster(
        (first_reply, None), acceptance=3,
        default_link=LinkSpec(delay=0.01, jitter=0.0))
    cluster.deployment.make_slow(2, 1.0)
    cluster.deployment.make_slow(3, 2.0)
    result = cluster.call_and_run("whoami", {})
    assert result.ok
    assert result.args == 1   # only server 1 was fast


def test_collation_majority_vote():
    cluster = _compute_cluster((majority_vote, dict), acceptance=3)
    result = cluster.call_and_run("whoami", {})
    assert result.ok
    assert set(result.args) == {1, 2, 3}
    assert all(votes == 1 for votes in result.args.values())


def test_parallel_partial_sum_reduction():
    values = list(range(100))
    cluster = _compute_cluster((
        lambda acc, r: acc + r, 0.0), acceptance=3)
    result = cluster.call_and_run(
        "partial_sum", {"values": values,
                        "members": list(cluster.server_pids)})
    assert result.ok
    assert result.args == pytest.approx(sum(values))


# ----------------------------------------------------------------------
# Counter basics
# ----------------------------------------------------------------------

def test_counter_increments_on_every_replica():
    # unique=True (exactly-once): retransmissions that race the replies
    # must not re-execute the non-idempotent increment.
    spec = ServiceSpec(acceptance=3, bounded=30.0, unique=True)
    cluster = ServiceCluster(spec, CounterApp, n_servers=3)
    for _ in range(5):
        assert cluster.call_and_run("inc", {"amount": 2},
                                    extra_time=0.2).ok
    for pid in cluster.server_pids:
        assert cluster.app(pid).value == 10


def test_at_least_once_counter_may_overshoot_but_never_undershoot():
    # Without Unique Execution a retransmission racing the reply
    # re-executes: the hallmark of at-least-once (Figure 1, row 1).
    spec = ServiceSpec(acceptance=3, bounded=30.0, unique=False)
    cluster = ServiceCluster(spec, CounterApp, n_servers=3)
    for _ in range(5):
        assert cluster.call_and_run("inc", {"amount": 2},
                                    extra_time=0.2).ok
    for pid in cluster.server_pids:
        assert cluster.app(pid).value >= 10


def _join(cluster, task):
    async def waiter():
        await cluster.deployment.runtime.join(task)
    return waiter()


# ----------------------------------------------------------------------
# Bounded Termination keeps no timer per completed call
# ----------------------------------------------------------------------

def _redeem_async(cluster, op, args):
    """One call through Asynchronous Call: ``begin``, then ``result``."""
    results = []

    async def issue():
        handle = await cluster.grpc(cluster.client).begin(op, args,
                                                          cluster.group)
        results.append(await handle.result())

    task = cluster.spawn_client(cluster.client, issue())
    cluster.deployment.run_scenario(_join(cluster, task))
    return results[0]


@pytest.mark.parametrize("call", ["synchronous", "asynchronous"])
def test_bounded_timeout_disarmed_when_call_completes(call):
    # A completed call must not leave an expiry TIMEOUT of its own
    # armed for the rest of the bound: with long bounds and high call
    # rates such moot timers would pile up in the kernel's timer heap
    # (one per call, live for the full 30s here) and tax every heap
    # operation.  Bounded Termination arms one TIMEOUT, for its oldest
    # waiting call, and arms none per later call, on either call
    # micro-protocol's path.
    spec = ServiceSpec(call=call, acceptance=1, bounded=30.0)
    cluster = ServiceCluster(spec, KVStore, n_servers=2)
    redeem = cluster.call_and_run if call == "synchronous" \
        else lambda op, args: _redeem_async(cluster, op, args)
    client_bus = cluster.grpc(cluster.client).bus
    # Reliable Communication keeps one periodic retransmit TIMEOUT armed
    # at all times and Bounded Termination one once the first call is
    # issued; that steady-state count is the baseline every later
    # completed call must leave unchanged.
    baseline = redeem("get", {"key": "k"}).ok \
        and client_bus.pending_timeouts()
    for i in range(10):
        assert redeem("put", {"key": "k", "value": i}).ok
        assert client_bus.pending_timeouts() == baseline
    # Nor may cancelled timers linger in the heap: the kernel's lazy
    # purge compacts once dead entries dominate.
    kernel = cluster.deployment.runtime.kernel
    live = [t for (_, _, t) in kernel._timers if not t.cancelled]
    assert len(kernel._timers) - len(live) <= max(16, len(live))


def test_bounded_timeout_still_fires_for_stuck_calls():
    # Sharing one TIMEOUT must not weaken the bound itself: a call
    # whose servers never answer still times out at ``timebound``.
    spec = ServiceSpec(acceptance=1, bounded=0.5)
    cluster = ServiceCluster(spec, KVStore, n_servers=1,
                             default_link=LinkSpec(delay=0.01, loss=1.0))
    result = cluster.call_and_run("get", {"key": "x"}, extra_time=1.0)
    assert result.status is Status.TIMEOUT
    assert cluster.deployment.runtime.now() >= 0.5


def test_arrivals_dispatch_the_chain_of_their_message_kind():
    """``GroupRPC.pop`` runs the chain of the arrival's ``NetOp``: a
    handler declaring ACK sees only ACKs and a kind-less one sees every
    arrival."""
    from repro.core.grpc import MSG_FROM_NETWORK
    from repro.core.messages import NetOp

    cluster = ServiceCluster(ServiceSpec(unique=True), KVStore,
                             n_servers=2, default_link=LinkSpec(jitter=0.0))
    server = cluster.grpc(1)
    seen = {"acks": [], "any": []}

    async def acks(msg):
        seen["acks"].append(msg.type)

    async def anything(msg):
        seen["any"].append(msg.type)

    server.bus.register(MSG_FROM_NETWORK, acks, 0, kinds=(NetOp.ACK,))
    server.bus.register(MSG_FROM_NETWORK, anything, 0)
    assert cluster.call_and_run("put", {"key": "k", "value": 1},
                                extra_time=0.1).ok
    assert seen == {"acks": [NetOp.ACK],
                    "any": [NetOp.CALL, NetOp.ACK]}


def test_the_composite_claims_only_wire_messages_and_pops_its_dispatch():
    """The node routes only the composite's ``NetMsg`` to it; untraced, ``pop`` returns the dispatch of the bus's compiled chain
    for the message's kind itself, and the micro-protocols trigger
    through the bus's own method."""
    from repro.core.grpc import MSG_FROM_NETWORK
    from repro.core.messages import NetMsg, NetOp

    cluster = ServiceCluster(ServiceSpec(), KVStore, n_servers=1)
    server = cluster.grpc(1)
    msg = NetMsg(type=NetOp.ACK, sender=2, service=server.service)
    node = cluster.deployment.nodes[1]
    assert node.route(msg) is server
    assert node.route("not a NetMsg") is None
    dispatch = server.pop(msg, 2)
    run = server.bus.chains(MSG_FROM_NETWORK)[NetOp.ACK]
    assert dispatch.cr_code is run.__code__
    assert server.bus.chain(MSG_FROM_NETWORK, NetOp.ACK).__code__ \
        is run.__code__
    dispatch.close()
    for micro in server.micro_protocols:
        assert micro.trigger == server.bus.trigger
