"""Unit tests for the server applications and dispatcher."""

import pytest

from repro.analysis import History
from repro.apps import (
    BankApp,
    ComputeApp,
    CounterApp,
    KVStore,
    ServerApp,
    ServerDispatcher,
)
from repro.errors import RPCError, UnknownCallError
from repro.net import NetworkFabric, Node
from repro.runtime import SimRuntime


def make_node():
    # The node stays un-started: these tests call the apps directly and
    # need no network reception.
    rt = SimRuntime()
    fabric = NetworkFabric(rt)
    node = Node(1, rt, fabric)
    return rt, node


def test_dispatcher_invokes_app_and_logs():
    rt, node = make_node()
    app = KVStore()
    dispatcher = ServerDispatcher(node, app)

    history = History()
    put = {"key": "k", "value": 1}
    get = {"key": "k"}

    async def main():
        history.invoke("c", put)
        result = await dispatcher.pop("put", put)
        assert result is None   # no previous value
        history.invoke("c", get)
        result = await dispatcher.pop("get", get)
        assert result == 1

    rt.run(main())
    assert [op for op, _ in dispatcher.execution_log] == ["put", "get"]
    # The log is the server side of a history: each call once, in order.
    assert history.read({1: dispatcher}).executed == {1: [0, 1]}


def test_unknown_operation_raises():
    rt, node = make_node()
    dispatcher = ServerDispatcher(node, KVStore())

    async def main():
        with pytest.raises(UnknownCallError):
            await dispatcher.pop("explode", {})

    rt.run(main())


def test_kvstore_operations():
    rt, node = make_node()
    app = KVStore()
    app.bind(node)

    async def main():
        assert await app.handle("put", {"key": "a", "value": 1}) is None
        assert await app.handle("put", {"key": "a", "value": 2}) == 1
        assert await app.handle("get", {"key": "a"}) == 2
        assert await app.handle("keys", {}) == ["a"]
        assert await app.handle("snapshot", {}) == {"a": 2}
        assert await app.handle("delete", {"key": "a"}) == 2
        assert await app.handle("get", {"key": "a"}) is None

    rt.run(main())
    assert [entry[0] for entry in app.apply_log] == ["put", "put",
                                                     "delete"]


def test_kvstore_checkpoint_roundtrip_and_crash():
    rt, node = make_node()
    app = KVStore()
    app.bind(node)

    async def main():
        await app.handle("put", {"key": "x", "value": 9})

    rt.run(main())
    state = app.get_state()
    app.on_crash()
    assert app.data == {} and app.apply_log == []
    app.set_state(state)
    assert app.data == {"x": 9}
    assert len(app.apply_log) == 1


def test_counter_state_and_crash():
    rt, node = make_node()
    app = CounterApp()
    app.bind(node)

    async def main():
        assert await app.handle("inc", {"amount": 3}) == 3
        assert await app.handle("inc", {}) == 4       # default amount 1
        assert await app.handle("read", {}) == 4

    rt.run(main())
    assert app.increments == 2
    state = app.get_state()
    app.on_crash()
    assert app.value == 0
    app.set_state(state)
    assert app.value == 4


def test_bank_operations_and_stable_state():
    rt, node = make_node()
    app = BankApp({"alice": 50}, transfer_delay=0.0)
    app.bind(node)

    async def main():
        assert await app.handle("balance", {"account": "alice"}) == 50
        assert await app.handle("deposit",
                                {"account": "alice", "amount": 25}) == 75
        await app.handle("transfer", {"src": "alice", "dst": "alice",
                                      "amount": 10})
        assert await app.handle("total", {}) == 75
        assert await app.handle("accounts", {}) == ["alice"]
        with pytest.raises(RPCError):
            await app.handle("balance", {"account": "nobody"})

    rt.run(main())
    # Balances live in stable storage, not app memory.
    assert node.stable.get("acct:alice") == 75


def test_bank_rebind_does_not_reset_existing_accounts():
    rt, node = make_node()
    app = BankApp({"alice": 50})
    app.bind(node)
    node.stable.put("acct:alice", 999)
    app2 = BankApp({"alice": 50})
    app2.bind(node)   # simulated reboot re-binding the app
    assert node.stable.get("acct:alice") == 999


def test_compute_app_partial_sum_partitions_correctly():
    rt, node = make_node()
    app = ComputeApp(1.5)
    app.bind(node)

    async def main():
        assert await app.handle("measure", {}) == 1.5
        assert await app.handle("whoami", {}) == 1
        # node pid 1, members [1, 2]: rank 0 takes even indices
        result = await app.handle(
            "partial_sum", {"values": [10, 20, 30, 40], "members": [1, 2]})
        assert result == 40.0   # 10 + 30

    rt.run(main())


def test_server_app_base_hooks_are_safe_defaults():
    app = ServerApp()
    assert app.get_state() is None
    app.set_state(None)
    app.on_crash()
