"""What the paths resolved at wiring must keep.

A send reaches the fabric through the transport's plain ``submit``; an
arrival's claimant is looked up in its node's table by ``(payload
class, service key)``; RPC Main records a call's executor only for an
orphan policy that may kill it.  Each test below pins one thing those
shortcuts must not change: every destination shape still fans out, a
service added later still gets its own calls, and the executor handle
and the arrival task appear exactly when something can use them.
"""

import pytest

from repro import Deployment, LinkSpec, ServiceCluster, ServiceSpec, WireConfig
from repro.apps import KVStore
from repro.apps.dispatcher import ServerApp
from repro.core.messages import NetMsg, NetOp
from repro.net import NetworkFabric, Node, UnreliableTransport
from repro.runtime import SimRuntime
from repro.xkernel import Protocol

FAST = LinkSpec(delay=0.01, jitter=0.0)


class Top(Protocol):
    """Top protocol recording every payload popped up to it."""

    def __init__(self, name):
        super().__init__(name)
        self.received = []

    async def pop(self, payload, sender):
        self.received.append(payload)


def _sites(runtime, pids, wire=None):
    fabric = NetworkFabric(runtime, default_link=FAST, wire=wire)
    nodes, tops = {}, {}
    for pid in pids:
        node = Node(pid, runtime, fabric)
        tops[pid] = Top(f"top@{pid}")
        UnreliableTransport(node)
        node.attach(object, tops[pid])
        node.start()
        nodes[pid] = node
    return fabric, nodes, tops


# ----------------------------------------------------------------------
# Destinations: an int is one link, anything else is iterated
# ----------------------------------------------------------------------

@pytest.mark.parametrize("wire", [None, WireConfig(batch=True),
                                  WireConfig(queue_depth=2)],
                         ids=["pass-through", "batched", "budgeted"])
def test_any_iterable_destination_reaches_each_peer_once(wire):
    """A range, a generator and a dict keys view each fan out to their
    members.  (They used to go out as one envelope to a pid that does
    not exist, or to raise inside the fabric.)"""
    rt = SimRuntime()
    fabric, nodes, tops = _sites(rt, (1, 2, 3), wire)
    peers = {2: "b", 3: "c"}

    async def main():
        transport = nodes[1].transport
        await transport.push(range(2, 4), "range")
        await transport.push((pid for pid in (2, 3)), "generator")
        await transport.push(peers.keys(), "keys")
        await rt.sleep(1.0)

    rt.run(main())
    for pid in (2, 3):
        assert sorted(tops[pid].received) == ["generator", "keys", "range"]
    assert tops[1].received == []
    metrics = fabric.trace.metrics
    assert metrics.value("net.send") == 6
    assert metrics.value("net.deliver") == 6
    assert metrics.value("net.drop-dead") == 0


# ----------------------------------------------------------------------
# Claims made after traffic
# ----------------------------------------------------------------------

def test_a_service_added_after_traffic_gets_its_own_calls():
    """Traffic has flowed, and a message stamped with a service nobody
    serves yet finds no claimant; a service added on the same pids then
    claims it and receives its own calls."""
    dep = Deployment(seed=3, default_link=FAST)
    first = dep.add_service("a", ServiceSpec(), KVStore, servers=[1, 2],
                            clients=[101])
    assert first.call_and_run("put", {"key": "k", "value": 1}).ok
    stray = NetMsg(type=NetOp.ACK, service="b")
    for pid in (1, 2):
        assert dep.nodes[pid].route(stray) is None
    second = dep.add_service("b", ServiceSpec(), KVStore, servers=[1, 2],
                             clients=[101])
    for pid in (1, 2):
        assert dep.nodes[pid].route(stray) is second.grpc(pid)
    assert second.call_and_run("put", {"key": "k", "value": 2}).ok
    for pid in (1, 2):
        assert second.app(pid).data == {"k": 2}
        assert first.app(pid).data == {"k": 1}
    dep.shutdown()


# ----------------------------------------------------------------------
# The executor handle, and the arrival task it used to force
# ----------------------------------------------------------------------

class Spy(ServerApp):
    """Records, while it executes, every pending call's executor."""

    def __init__(self):
        super().__init__()
        self.grpc = None
        self.executors = []

    async def handle_peek(self, args):
        self.executors += [r.executor for r in self.grpc.sRPC.values()]


@pytest.mark.parametrize("orphans", ["none", "avoid", "terminate", "probe"])
def test_executor_is_recorded_only_for_an_orphan_killer(orphans):
    """Without Terminate or Probe Orphan nothing can kill an execution,
    so no executor is recorded and a server arrival that does not park
    is no task at all; with one, the executor is the arrival's task."""
    spec = ServiceSpec(orphans=orphans, retrans_timeout=1.0)
    cluster = ServiceCluster(spec, Spy, n_servers=1)
    dep = cluster.deployment
    app = cluster.app(1)
    app.grpc = cluster.grpc(1)
    kernel = dep.runtime.kernel
    server = dep.nodes[1]
    made = []
    deliver = server.deliver

    def counting(envelope):
        before = kernel.tasks_spawned
        deliver(envelope)
        made.append(kernel.tasks_spawned - before)

    server.deliver = counting
    for _ in range(3):
        assert cluster.call_and_run("peek", None).ok
    kills = orphans in ("terminate", "probe")
    assert len(app.executors) == 3
    assert all((executor is not None) == kills
               for executor in app.executors)
    assert made and set(made) == ({1} if kills else {0})
    assert all(record.executor is None
               for record in app.grpc.sRPC.values())
    dep.shutdown()
