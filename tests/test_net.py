"""Unit tests for the network substrate: fabric, nodes, transport."""

import pytest

from repro.errors import NodeDown
from repro.net import (
    Group,
    LinkSpec,
    NetworkFabric,
    Node,
    UnreliableTransport,
)
from repro.runtime import SimRuntime
from repro.sim import RandomSource
from repro.xkernel import Protocol, compose_stack


class Collector(Protocol):
    """Top protocol recording everything popped up to it."""

    def __init__(self, name="collector"):
        super().__init__(name)
        self.received = []

    async def pop(self, payload, sender):
        self.received.append((sender, payload))


def build_pair(runtime, **fabric_kwargs):
    fabric = NetworkFabric(runtime, **fabric_kwargs)
    nodes, tops = {}, {}
    for pid in (1, 2):
        node = Node(pid, runtime, fabric)
        top = Collector(f"top@{pid}")
        compose_stack(top, UnreliableTransport(node))
        node.start()
        nodes[pid], tops[pid] = node, top
    return fabric, nodes, tops


def test_basic_delivery():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(rt)

    async def main():
        await nodes[1].transport.push(2, "hello")
        await rt.sleep(1.0)

    rt.run(main())
    assert tops[2].received == [(1, "hello")]
    assert fabric.trace.metrics.value("net.send") == 1
    assert fabric.trace.metrics.value("net.deliver") == 1


def test_delivery_takes_link_delay():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(
        rt, default_link=LinkSpec(delay=0.2, jitter=0.0))
    arrival = []

    async def main():
        await nodes[1].transport.push(2, "x")
        await rt.sleep(1.0)

    fabric.trace.observers.append(
        lambda e: arrival.append(e.time) if e.kind == "deliver" else None)
    rt.run(main())
    assert arrival == [pytest.approx(0.2)]


def test_loss_drops_messages():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(
        rt, rand=RandomSource(42),
        default_link=LinkSpec(loss=1.0))

    async def main():
        for _ in range(5):
            await nodes[1].transport.push(2, "gone")
        await rt.sleep(1.0)

    rt.run(main())
    assert tops[2].received == []
    assert fabric.trace.metrics.value("net.drop-loss") == 5


def test_statistical_loss_rate():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(
        rt, rand=RandomSource(7), default_link=LinkSpec(loss=0.3))

    async def main():
        for i in range(500):
            await nodes[1].transport.push(2, i)
        await rt.sleep(5.0)

    rt.run(main())
    delivered = len(tops[2].received)
    assert 290 < delivered < 410  # ~350 expected


def test_duplication():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(
        rt, rand=RandomSource(3), default_link=LinkSpec(duplicate=1.0))

    async def main():
        await nodes[1].transport.push(2, "twice")
        await rt.sleep(1.0)

    rt.run(main())
    assert tops[2].received == [(1, "twice"), (1, "twice")]
    assert fabric.trace.metrics.value("net.duplicate") == 1


def test_reordering_from_jitter():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(
        rt, rand=RandomSource(11),
        default_link=LinkSpec(delay=0.01, jitter=0.10))

    async def main():
        for i in range(50):
            await nodes[1].transport.push(2, i)
        await rt.sleep(2.0)

    rt.run(main())
    payloads = [p for _, p in tops[2].received]
    assert len(payloads) == 50
    assert payloads != sorted(payloads)  # jitter reorders


def test_spike_delay():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(
        rt, default_link=LinkSpec(delay=0.01, jitter=0.0,
                                  spike_prob=1.0, spike_delay=2.0))
    times = []
    fabric.trace.observers.append(
        lambda e: times.append(e.time) if e.kind == "deliver" else None)

    async def main():
        await nodes[1].transport.push(2, "slow")
        await rt.sleep(5.0)

    rt.run(main())
    assert times == [pytest.approx(2.01)]


def test_partition_blocks_and_heals():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(rt)

    async def main():
        fabric.partition([1], [2])
        await nodes[1].transport.push(2, "blocked")
        await rt.sleep(1.0)
        fabric.heal()
        await nodes[1].transport.push(2, "through")
        await rt.sleep(1.0)

    rt.run(main())
    assert tops[2].received == [(1, "through")]
    assert fabric.trace.metrics.value("net.drop-partition") == 1


def test_filter_drop_and_removal():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(rt)

    async def main():
        remove = fabric.add_filter(lambda env: env.payload != "bad")
        await nodes[1].transport.push(2, "bad")
        await nodes[1].transport.push(2, "good")
        await rt.sleep(1.0)
        remove()
        await nodes[1].transport.push(2, "bad")
        await rt.sleep(1.0)

    rt.run(main())
    assert [p for _, p in tops[2].received] == ["good", "bad"]


def test_delivery_to_down_node_dropped():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(rt)

    async def main():
        nodes[2].crash()
        await nodes[1].transport.push(2, "lost")
        await rt.sleep(1.0)

    rt.run(main())
    assert tops[2].received == []
    assert fabric.trace.metrics.value("net.drop-dead") == 1


def test_crash_cancels_node_tasks():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(rt)
    progress = []

    async def long_task():
        progress.append("start")
        await rt.sleep(100)
        progress.append("end")  # must never happen

    async def main():
        nodes[2].spawn(long_task())
        await rt.sleep(1.0)
        nodes[2].crash()
        await rt.sleep(200)

    rt.run(main())
    assert progress == ["start"]


def test_message_in_flight_to_crashing_node_lost():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(
        rt, default_link=LinkSpec(delay=1.0, jitter=0.0))

    async def main():
        await nodes[1].transport.push(2, "in-flight")
        await rt.sleep(0.5)
        nodes[2].crash()
        await rt.sleep(2.0)

    rt.run(main())
    assert tops[2].received == []


def test_recovery_bumps_incarnation_and_restarts_delivery():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(rt)
    recoveries = []
    nodes[2].recover_listeners.append(recoveries.append)

    async def main():
        nodes[2].crash()
        await rt.sleep(1.0)
        nodes[2].recover()
        await nodes[1].transport.push(2, "after")
        await rt.sleep(1.0)

    rt.run(main())
    assert recoveries == [2]
    assert nodes[2].incarnation == 2
    assert tops[2].received == [(1, "after")]


def test_crash_listener_fires():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(rt)
    crashed = []
    nodes[1].crash_listeners.append(lambda: crashed.append(True))

    async def main():
        nodes[1].crash()

    rt.run(main())
    assert crashed == [True]


def test_spawn_on_down_node_raises():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(rt)

    async def never():
        pass  # pragma: no cover

    async def main():
        nodes[1].crash()
        with pytest.raises(NodeDown):
            nodes[1].spawn(never())

    rt.run(main())


def test_multicast_reaches_all_members():
    rt = SimRuntime()
    fabric = NetworkFabric(rt)
    tops = {}
    for pid in (1, 2, 3, 4):
        node = Node(pid, rt, fabric)
        top = Collector(f"top@{pid}")
        compose_stack(top, UnreliableTransport(node))
        node.start()
        tops[pid] = top
    group = Group("servers", [2, 3, 4])

    async def main():
        await fabric.node(1).transport.push(group, "all")
        await rt.sleep(1.0)

    rt.run(main())
    for pid in (2, 3, 4):
        assert tops[pid].received == [(1, "all")]
    assert tops[1].received == []


def test_group_properties_and_leader():
    group = Group("g", [3, 1, 2, 2])
    assert group.members == (1, 2, 3)
    assert len(group) == 3
    assert 2 in group
    assert group.leader() == 3
    assert group.leader(alive={1, 2}) == 2
    with pytest.raises(ValueError):
        group.leader(alive=set())
    with pytest.raises(ValueError):
        Group("empty", [])


def test_per_link_override_and_slow_site():
    rt = SimRuntime()
    fabric = NetworkFabric(rt, default_link=LinkSpec(delay=0.01, jitter=0.0))
    tops = {}
    for pid in (1, 2, 3):
        node = Node(pid, rt, fabric)
        top = Collector(f"top@{pid}")
        compose_stack(top, UnreliableTransport(node))
        node.start()
        tops[pid] = top
    fabric.set_links_to(3, LinkSpec(delay=1.0, jitter=0.0))
    times = {}

    def observe(e):
        if e.kind == "deliver":
            times[e.dst] = e.time
    fabric.trace.observers.append(observe)

    async def main():
        await fabric.node(1).transport.push(2, "fast")
        await fabric.node(1).transport.push(3, "slow")
        await rt.sleep(5.0)

    rt.run(main())
    assert times[2] == pytest.approx(0.01)
    assert times[3] == pytest.approx(1.0)


def test_fabric_determinism_across_runs():
    def run_once():
        rt = SimRuntime()
        fabric, nodes, tops = build_pair(
            rt, rand=RandomSource(99),
            default_link=LinkSpec(delay=0.01, jitter=0.05, loss=0.2,
                                  duplicate=0.1))

        async def main():
            for i in range(100):
                await nodes[1].transport.push(2, i)
            await rt.sleep(10.0)

        rt.run(main())
        return [p for _, p in tops[2].received]

    assert run_once() == run_once()


def test_alive_pids_tracks_crashes():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(rt)
    assert fabric.alive_pids() == {1, 2}

    async def main():
        nodes[1].crash()

    rt.run(main())
    assert fabric.alive_pids() == {2}


class Parker(Protocol):
    """Top protocol whose ``pop`` parks on "park" payloads until the
    site crashes, and returns at once for anything else."""

    def __init__(self, runtime):
        super().__init__("parker")
        self.runtime = runtime
        self.log = []

    async def pop(self, payload, sender):
        if payload != "park":
            self.log.append(("done", payload))
            return
        try:
            await self.runtime.sleep(100.0)
        finally:
            self.log.append(("unwound", self.runtime.now()))


def test_arrival_scope_keeps_only_parked_arrivals():
    """An arrival's task takes its first step inside the delivery; the
    node's scope adopts it only if it is still live afterwards, so a
    crash still kills a parked arrival while a finished one is never
    retained."""
    rt = SimRuntime()
    fabric = NetworkFabric(rt, default_link=LinkSpec(delay=0.1, jitter=0.0))
    nodes, tops = {}, {}
    for pid in (1, 2):
        node = Node(pid, rt, fabric)
        tops[pid] = Parker(rt)
        compose_stack(tops[pid], UnreliableTransport(node))
        node.start()
        nodes[pid] = node

    async def main():
        await nodes[1].transport.push(2, "quick")
        await nodes[1].transport.push(2, "park")
        await rt.sleep(0.5)
        kept = list(nodes[2].scope._handles)
        nodes[2].crash()
        await rt.sleep(0.1)
        return kept

    kept = rt.run(main())
    assert [task.name.rsplit("-", 1)[0] for task in kept] == ["node-2-msg"]
    assert tops[2].log == [("done", "quick"), ("unwound", 0.5)]


@pytest.mark.parametrize("jitter", [0.0, 0.0005, 0.004, 0.1, 1.0 / 3])
def test_jitter_draw_is_uniform_bit_for_bit(jitter):
    """A copy's delay is ``delay + jitter * random()``: exactly the float
    ``delay + uniform(0.0, jitter)`` gives on a twin of the link's
    stream, draw for draw, jitter 0 included (it still consumes one)."""
    from repro.net import NetTrace

    rt = SimRuntime()
    spec = LinkSpec(delay=0.01, jitter=jitter)
    fabric = NetworkFabric(rt, rand=RandomSource(5), default_link=spec,
                           trace=NetTrace(keep_events=False))
    delays = []
    rt.call_later = lambda delay, action: delays.append(delay)
    for i in range(10_000):
        fabric.send(1, 2, i)
    twin = RandomSource(5).stream("link-1-2")
    assert delays == [spec.delay + twin.uniform(0.0, jitter)
                      for _ in range(10_000)]


#: Delivery times recorded before the fabric drew jitter as
#: ``jitter * random()`` and armed its copies without a loop.
DUPLICATE_SPIKE_DELIVERIES = [
    ('0.010264184335868867', 0), ('0.012627007792282083', 0),
    ('0.013419851420434812', 2), ('0.013855045702421888', 3),
    ('0.014202657782390675', 4), ('0.01462262063876606', 1),
    ('0.014627731746798933', 3), ('0.017924048028528664', 5),
    ('0.01883604039878374', 7), ('0.01886237398398327', 6),
    ('0.511888100312829', 1), ('0.5146035532061818', 4),
    ('0.5151032117161543', 2), ('0.5162532685495085', 6),
    ('0.5179401139732248', 5), ('0.5197385927154222', 7),
]


def test_duplicate_and_spike_draw_order_is_pinned():
    """Loss, then duplication, then per copy its jitter and spike: every
    send is duplicated, ~30 % of the copies spike."""
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(
        rt, rand=RandomSource(13), default_link=LinkSpec(
            delay=0.01, jitter=0.004, duplicate=1.0, spike_prob=0.3,
            spike_delay=0.5))
    delivered = []
    fabric.trace.observers.append(
        lambda e: delivered.append((repr(e.time), e.detail))
        if e.kind == "deliver" else None)

    async def main():
        for i in range(8):
            await nodes[1].transport.push(2, i)
            await rt.sleep(0.001)
        await rt.sleep(2.0)

    rt.run(main())
    assert delivered == DUPLICATE_SPIKE_DELIVERIES
    assert fabric.trace.metrics.value("net.duplicate") == 8
