"""Unit tests for the x-kernel UPI shell and the node's arrival table."""

import pytest

from repro.errors import ConfigurationError, ReproError
from repro.net import Envelope, NetworkFabric, Node, UnreliableTransport
from repro.net.wire import WireBatch
from repro.runtime import SimRuntime
from repro.xkernel import Protocol, compose_stack


class Recorder(Protocol):
    def __init__(self, name):
        super().__init__(name)
        self.pushed = []
        self.popped = []

    async def push(self, *args, **kwargs):
        self.pushed.append((args, kwargs))
        if self.lower is not None:
            return await self.lower.push(*args, **kwargs)

    async def pop(self, *args, **kwargs):
        self.popped.append((args, kwargs))
        if self.upper is not None:
            return await self.upper.pop(*args, **kwargs)


def run(coro):
    SimRuntime().run(coro)


def test_compose_stack_links_up_and_down():
    top, mid, bottom = Recorder("top"), Recorder("mid"), Recorder("bot")
    compose_stack(top, mid, bottom)
    assert top.lower is mid and mid.lower is bottom
    assert bottom.upper is mid and mid.upper is top

    async def main():
        await top.push("down")
        await bottom.pop("up")

    run(main())
    assert mid.pushed == [(("down",), {})]
    assert bottom.pushed == [(("down",), {})]
    assert mid.popped == [(("up",), {})]
    assert top.popped == [(("up",), {})]


def test_compose_stack_requires_protocols():
    with pytest.raises(ReproError):
        compose_stack()


def test_push_without_lower_raises():
    """A composite or compact protocol that no node has attached has no
    transport to push to, and one with nothing above has no server to
    pop a call to."""
    from repro.core.grpc import GroupRPC
    from repro.core.messages import NetMsg, NetOp
    from repro.core.p2p import P2PMsg, PointToPointRPC

    rt = SimRuntime()
    node = Node(1, rt, NetworkFabric(rt))
    node.start()
    grpc, p2p = GroupRPC(node), PointToPointRPC(node)

    async def main():
        with pytest.raises(ConfigurationError, match="no transport"):
            await grpc.net_push(2, NetMsg(type=NetOp.ACK, sender=1))
        with pytest.raises(ConfigurationError, match="no transport"):
            await p2p.pop(P2PMsg("reply", 1, sender=2), 2)
        with pytest.raises(ConfigurationError, match="no server"):
            await grpc.deliver_to_server("put", None)
        with pytest.raises(ConfigurationError, match="no server"):
            await p2p.pop(P2PMsg("call", 1, "put", sender=2), 2)

    rt.run(main())


# ---------------------------------------------------------------------------
# The node's arrival table: Node.attach / Node.route / Node.deliver
# ---------------------------------------------------------------------------

class Top(Protocol):
    """Records every ``(payload, sender)`` popped to it; with ``park``
    set, each arrival then sleeps, so it is a task of its own."""

    def __init__(self, name, runtime=None, park=False):
        super().__init__(name)
        self.runtime = runtime
        self.park = park
        self.received = []

    async def pop(self, payload, sender):
        self.received.append((payload, sender))
        if self.park:
            await self.runtime.sleep(0.1)


def _site():
    rt = SimRuntime()
    node = Node(1, rt, NetworkFabric(rt))
    UnreliableTransport(node)
    node.start()
    return rt, node


def _arrive(rt, node, *payloads):
    """Hand each payload to ``node`` as the fabric does, from pid 2."""
    for payload in payloads:
        rt.call_later(0.0, lambda payload=payload: node.deliver(
            Envelope(2, node.pid, payload, 0.0)))
    rt.run_until_idle()


class Base:
    pass


class Mid(Base):
    pass


class Leaf(Mid):
    pass


def test_node_routes_by_exact_payload_type():
    rt, node = _site()
    ints, strs = Top("ints"), Top("strs")
    node.attach(int, ints)
    node.attach(str, strs)
    assert ints.lower is node.transport and strs.lower is node.transport
    _arrive(rt, node, 7, "seven", 8)
    assert ints.received == [(7, 2), (8, 2)]
    assert strs.received == [("seven", 2)]
    assert node.route(9) is ints and node.route("nine") is strs


def test_a_claimant_sends_through_the_transport_it_was_attached_to():
    rt = SimRuntime()
    fabric = NetworkFabric(rt)
    sites = {}
    for pid in (1, 2):
        node = Node(pid, rt, fabric)
        UnreliableTransport(node)
        sites[pid] = Top(f"top@{pid}")
        node.attach(object, sites[pid])
        node.start()

    async def main():
        await sites[1].lower.push(2, "over")
        await rt.sleep(1.0)

    rt.run(main())
    assert sites[1].lower is fabric.node(1).transport
    assert sites[2].received == [("over", 1)]


def test_a_subclass_reaches_a_claim_on_its_base():
    rt, node = _site()
    base = Top("base")
    node.attach(Base, base)
    leaf = Leaf()
    _arrive(rt, node, leaf)
    assert base.received == [(leaf, 2)]
    assert node.route(Mid()) is base


def test_a_subclass_goes_to_the_first_attached_base():
    rt, node = _site()
    base, mid = Top("base"), Top("mid")
    node.attach(Base, base)
    node.attach(Mid, mid)
    assert node.route(Leaf()) is base           # attach order, not MRO
    assert node.route(Mid()) is mid             # an exact claim wins
    assert node.route(Base()) is base
    assert node.routes[Leaf, ""] is base        # resolved once, kept
    leaf = Leaf()
    _arrive(rt, node, leaf)
    assert base.received == [(leaf, 2)] and mid.received == []


def test_a_claim_made_after_traffic_takes_effect():
    """An unclaimed class is not remembered as a miss, and a class
    resolved through a base moves to its own class's later claim."""
    rt, node = _site()
    base, strs, mids = Top("base"), Top("strs"), Top("mids")
    node.attach(Base, base)
    first = Mid()
    _arrive(rt, node, first, "dropped")
    assert base.received == [(first, 2)]
    node.attach(str, strs)
    node.attach(Mid, mids)
    second = Mid()
    _arrive(rt, node, "kept", second)
    assert strs.received == [("kept", 2)]
    assert mids.received == [(second, 2)]
    assert base.received == [(first, 2)]


def test_a_second_claim_on_the_same_type_and_service_raises():
    rt, node = _site()
    first = Top("first")
    node.attach(str, first)
    node.attach(str, Top("keyed"), "svc")        # another key: allowed
    with pytest.raises(ConfigurationError, match="already claimed"):
        node.attach(str, Top("second"))
    assert node.route("x") is first


def test_a_service_key_reaches_only_its_own_claim():
    from types import SimpleNamespace

    rt, node = _site()
    catch_all, keyed = Top("catch-all"), Top("keyed")
    node.attach(object, catch_all)
    node.attach(SimpleNamespace, keyed, "a")
    assert node.route(SimpleNamespace(service="a")) is keyed
    assert node.route(SimpleNamespace(service="zzz")) is None
    assert node.route(SimpleNamespace()) is catch_all
    assert node.route("unkeyed") is catch_all


def test_an_unclaimed_payload_is_dropped_with_no_task():
    rt, node = _site()
    parked = Top("parked", rt, park=True)
    node.attach(str, parked)
    _arrive(rt, node, 42, 4.2)
    assert rt.stats()["tasks_spawned"] == 0
    assert (int, "") not in node.routes
    _arrive(rt, node, "claimed")
    assert parked.received == [("claimed", 2)]
    assert rt.stats()["tasks_spawned"] == 1


def test_a_batch_routes_its_messages_through_the_same_table():
    rt, node = _site()
    ints, base = Top("ints"), Top("base")
    node.attach(int, ints)
    node.attach(Base, base)
    leaf = Leaf()
    _arrive(rt, node, WireBatch([1, "unclaimed", leaf, 2]))
    assert ints.received == [(1, 2), (2, 2)]
    assert base.received == [(leaf, 2)]
    assert node.routes[Leaf, ""] is base
