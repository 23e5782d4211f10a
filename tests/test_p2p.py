"""The compact point-to-point RPC: same semantics, no composition."""

import random

import pytest

from repro import LinkSpec, ServiceCluster, Status
from repro.analysis import History, check, promises
from repro.apps import CounterApp, KVStore, ServerDispatcher
from repro.core.config import exactly_once
from repro.core.p2p import P2PMsg, PointToPointRPC
from repro.faults import drop_first
from repro.net import NetworkFabric, Node, UnreliableTransport
from repro.runtime import SimRuntime
from repro.sim import RandomSource
from repro.xkernel import compose_stack


def build_pair(*, link=None, seed=0, app_factory=KVStore,
               timebound=0.0):
    rt = SimRuntime()
    fabric = NetworkFabric(rt, rand=RandomSource(seed),
                           default_link=link or LinkSpec(delay=0.005,
                                                         jitter=0.0))
    sides = {}
    for pid in (1, 101):
        node = Node(pid, rt, fabric)
        p2p = PointToPointRPC(node, retrans_timeout=0.05,
                              timebound=timebound)
        UnreliableTransport(node)
        node.attach(P2PMsg, p2p)
        if pid == 1:
            dispatcher = ServerDispatcher(node, app_factory())
            compose_stack(dispatcher, p2p)
            sides["dispatcher"] = dispatcher
        node.start()
        sides[pid] = p2p
    return rt, fabric, sides


def run_call(rt, fabric, sides, op, args, extra=0.3):
    results = []

    async def client():
        results.append(await sides[101].call(op, args, 1))

    task = fabric.node(101).spawn(client())

    async def waiter():
        await rt.join(task)

    rt.run(waiter(), shutdown=False)
    rt.run_for(extra)
    return results[0]


def test_basic_roundtrip():
    rt, fabric, sides = build_pair()
    result = run_call(rt, fabric, sides, "put", {"key": "k", "value": 7})
    assert result.status is Status.OK
    result = run_call(rt, fabric, sides, "get", {"key": "k"})
    assert result.args == 7


def test_exactly_once_under_loss():
    rt, fabric, sides = build_pair(
        link=LinkSpec(delay=0.005, jitter=0.002, loss=0.25,
                      duplicate=0.1),
        seed=5, app_factory=CounterApp)
    history = History()
    for i in range(8):
        args = {"amount": 1, "tag": i}
        result = history.end(history.invoke(101, args),
                             run_call(rt, fabric, sides, "inc", args))
        assert result.status is Status.OK
    dispatcher = sides["dispatcher"]
    check(history.read({1: dispatcher}),
          promises(exactly_once())).raise_if_failed()
    assert dispatcher.app.value == 8


def test_reply_loss_replays_from_cache():
    rt, fabric, sides = build_pair(app_factory=CounterApp)
    fault = drop_first(fabric, 2,
                       lambda env: isinstance(env.payload, P2PMsg)
                       and env.payload.kind == "reply")
    args = {"amount": 1}
    history = History()
    result = history.end(history.invoke(101, args),
                         run_call(rt, fabric, sides, "inc", args,
                                  extra=0.5))
    assert result.status is Status.OK
    assert fault.dropped == 2
    check(history.read({1: sides["dispatcher"]}),
          promises(exactly_once())).raise_if_failed()


def test_reply_cache_drains_after_ack():
    rt, fabric, sides = build_pair()
    run_call(rt, fabric, sides, "put", {"key": "a", "value": 1},
             extra=0.5)
    assert sides[1]._old_results == {}


def test_bounded_termination():
    rt, fabric, sides = build_pair(timebound=0.5)
    fabric.partition([101], [1])
    result = run_call(rt, fabric, sides, "get", {"key": "k"}, extra=0.1)
    assert result.status is Status.TIMEOUT
    assert rt.now() >= 0.5


def test_client_crash_clears_pending_and_recovery_restarts_ids():
    rt, fabric, sides = build_pair()
    run_call(rt, fabric, sides, "put", {"key": "a", "value": 1})
    node = fabric.node(101)
    node.crash()
    node.recover()
    rt.run_for(0.1)
    # ids restart; the server keys by (client, incarnation, id) so the
    # recycled id is a fresh call.
    result = run_call(rt, fabric, sides, "put", {"key": "b", "value": 2})
    assert result.id == 1
    assert result.status is Status.OK


def test_concurrent_calls_multiplex():
    rt, fabric, sides = build_pair(
        link=LinkSpec(delay=0.01, jitter=0.02))
    results = {}

    async def one(i):
        results[i] = await sides[101].call("put",
                                           {"key": f"k{i}", "value": i}, 1)

    async def scenario():
        tasks = [fabric.node(101).spawn(one(i)) for i in range(6)]
        for t in tasks:
            await rt.join(t)

    rt.run(scenario(), shutdown=False)
    rt.run_for(0.5)
    assert all(results[i].status is Status.OK for i in range(6))
    assert sorted(r.id for r in results.values()) == list(range(1, 7))


def _seeded_kv_ops(seed, n):
    """``n`` put/get/delete calls over a few keys, drawn from ``seed``."""
    rng = random.Random(seed)
    ops = []
    for i in range(n):
        op = rng.choice(("put", "put", "get", "delete"))
        args = {"key": f"k{rng.randrange(4)}"}
        if op == "put":
            args["value"] = i
        ops.append((op, args))
    return ops


def _drive(rt, spawn, call, ops, history, client):
    """Issue ``ops`` one after another from a client task, recording each
    in ``history``; return each call's ``(status, reply, simulated
    latency)``."""
    seen = []

    async def run():
        for op, args in ops:
            args = dict(args)
            index = history.invoke(client, args)
            t0 = rt.now()
            result = history.end(index, await call(op, args))
            seen.append((result.status, result.args, rt.now() - t0))

    task = spawn(run())

    async def waiter():
        await rt.join(task)

    rt.run(waiter(), shutdown=False)
    return seen


def test_composite_and_compact_agree_on_a_seeded_workload():
    # p2p.py as a differential oracle: x7's configuration (exactly-once,
    # one client, one server, 10 ms link, no jitter, no loss) must give
    # the same outcome through the composite as through the hand-fused
    # protocol, call for call and in simulated time, and each side must
    # keep exactly-once's promises.
    spec = exactly_once(acceptance=1, bounded=0.0)
    link = LinkSpec(delay=0.01, jitter=0.0)
    ops = _seeded_kv_ops(seed=3, n=40)
    rt, fabric, sides = build_pair(link=link)
    compact_history = History()
    compact = _drive(rt, fabric.node(101).spawn,
                     lambda op, args: sides[101].call(op, args, 1), ops,
                     compact_history, 101)
    cluster = ServiceCluster(spec, KVStore, n_servers=1, seed=0,
                             default_link=link)
    composite_history = History()
    composite = _drive(
        cluster.deployment.runtime,
        lambda coro: cluster.spawn_client(cluster.client, coro),
        lambda op, args: cluster.call(cluster.client, op, args), ops,
        composite_history, cluster.client)
    assert composite == compact
    assert all(status is Status.OK for status, _, _ in compact)
    assert cluster.app(1).data == sides["dispatcher"].app.data != {}
    check(compact_history.read({1: sides["dispatcher"]}),
          promises(spec)).raise_if_failed()
    check(composite_history.read(cluster.dispatchers),
          promises(spec)).raise_if_failed()
