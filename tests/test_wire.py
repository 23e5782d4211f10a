"""The wire pipeline: coalescing, backpressure, fast lane, crash safety."""

import pytest

from repro import LinkSpec, ServiceCluster, ServiceSpec, Status, WireConfig
from repro.apps import KVStore
from repro.core.messages import NetMsg, NetOp
from repro.membership.detector import Heartbeat, HeartbeatDetector
from repro.net import (
    Group,
    NetworkFabric,
    Node,
    UnreliableTransport,
    WireBatch,
    wire_size,
)
from repro.runtime import SimRuntime
from repro.sim import RandomSource
from repro.stubs import marshal
from repro.xkernel import Protocol, TypeDemux, compose_stack

FAST = LinkSpec(delay=0.02, jitter=0.0)


class Collector(Protocol):
    """Top protocol recording everything popped up to it."""

    def __init__(self, name="collector"):
        super().__init__(name)
        self.received = []

    async def pop(self, payload, sender):
        self.received.append((sender, payload))


def build_pair(runtime, pids=(1, 2), **fabric_kwargs):
    fabric_kwargs.setdefault("default_link", FAST)
    fabric = NetworkFabric(runtime, **fabric_kwargs)
    nodes, tops = {}, {}
    for pid in pids:
        node = Node(pid, runtime, fabric)
        top = Collector(f"top@{pid}")
        compose_stack(top, UnreliableTransport(node))
        node.start()
        nodes[pid], tops[pid] = node, top
    return fabric, nodes, tops


# ----------------------------------------------------------------------
# WireConfig / WireBatch basics
# ----------------------------------------------------------------------

def test_wire_config_validates():
    with pytest.raises(ValueError):
        WireConfig(max_batch_msgs=0)
    with pytest.raises(ValueError):
        WireConfig(max_batch_bytes=0)
    with pytest.raises(ValueError):
        WireConfig(queue_depth=-1)


def test_wire_batch_surface():
    batch = WireBatch(["a", "bb"])
    assert len(batch) == 2
    assert list(batch) == ["a", "bb"]
    assert batch.wire_size() == 5 + wire_size("a") + wire_size("bb")
    assert wire_size(batch) == batch.wire_size()  # defers to the method
    assert "n=2" in repr(batch) and "str" in repr(batch)
    with pytest.raises(ValueError):
        WireBatch([])


def test_heartbeat_is_a_control_payload():
    from repro.net.wire import is_control

    assert is_control(Heartbeat(1, 1))
    assert not is_control("bulk")
    assert not is_control(WireBatch(["x"]))
    # The marker is a class attribute, not a field: it never travels.
    assert "wire_control" not in Heartbeat.__dataclass_fields__


def test_submit_hands_unstaged_sends_to_the_fabric_at_once():
    """Pass-through sends and fast-lane beats reach the fabric inside
    ``submit`` (nothing to await); a staging pipeline returns the
    coroutine that stages, and sends nothing until it is awaited."""
    rt = SimRuntime()
    fabric, _, _ = build_pair(rt, pids=(1, 2, 3))
    pipeline = fabric.pipeline
    metrics = fabric.trace.metrics
    assert pipeline.submit(1, 2, "one") is None
    assert pipeline.submit(1, Group("g", [2, 3]), "two") is None
    assert pipeline.submit(1, [2, 3], Heartbeat(1, 1)) is None
    assert metrics.value("net.send") == 5
    assert metrics.value("net.fastlane.sends") == 2

    rt = SimRuntime()
    fabric, _, _ = build_pair(rt, wire=WireConfig(batch=True))
    pipeline = fabric.pipeline
    assert pipeline.submit(1, 2, Heartbeat(1, 1)) is None
    for dest in (2, [2]):
        staged = pipeline.submit(1, dest, "bulk")
        assert staged is not None and pipeline.buffered() == 0
        rt.run(staged, shutdown=False)
        assert pipeline.buffered() == 1
        pipeline.drop_source(1)
    assert fabric.trace.metrics.value("net.send") == 1


def test_an_arrival_runs_its_target_pop_or_fans_a_batch_out():
    """``UnreliableTransport.arrival``: a single payload's task is the
    resolved target's ``pop`` itself, an unclaimed payload gets no task,
    and a batch gets the unbatching coroutine."""
    from repro.net.message import Envelope

    rt = SimRuntime()
    fabric, nodes, tops = build_pair(rt)
    demux = TypeDemux("demux@9")
    node = Node(9, rt, fabric)
    compose_stack(demux, UnreliableTransport(node))
    demux.attach(str, tops[1])
    node.start()
    transport = node.transport
    claimed = transport.arrival(Envelope(1, 9, "hello", 0.0))
    assert claimed.cr_code is Collector.pop.__code__
    assert transport.arrival(Envelope(1, 9, 42, 0.0)) is None
    batch = transport.arrival(Envelope(1, 9, WireBatch(["a", 7]), 0.0))
    assert batch.cr_code is UnreliableTransport.handle_arrival.__code__
    rt.run(claimed)
    rt.run(batch, shutdown=False)
    rt.run_until_idle()
    assert tops[1].received == [(1, "hello"), (1, "a")]


# ----------------------------------------------------------------------
# Coalescing
# ----------------------------------------------------------------------

def test_round_coalescing_batches_shared_link_messages():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(rt, wire=WireConfig(batch=True))
    metrics = fabric.trace.metrics

    async def main():
        for i in range(8):
            await nodes[1].transport.push(2, f"m{i}")
        await rt.sleep(1.0)

    rt.run(main())
    # All eight messages arrived, in order, but in ONE envelope.
    assert [p for _, p in tops[2].received] == [f"m{i}" for i in range(8)]
    assert fabric.trace.metrics.value("net.send") == 8
    assert fabric.trace.metrics.value("net.deliver") == 8
    assert metrics.value("net.envelopes") == 1
    assert metrics.value("net.batch.envelopes") == 1
    assert metrics.value("net.batch.messages") == 8
    assert metrics.value("net.batch.flush.round") == 1
    hist = metrics.histogram("net.batch.flush.1-2")
    assert hist.count == 1 and hist.mean == 8


def test_separate_rounds_do_not_coalesce():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(rt, wire=WireConfig(batch=True))

    async def main():
        await nodes[1].transport.push(2, "a")
        await rt.sleep(0.001)          # new scheduling round
        await nodes[1].transport.push(2, "b")
        await rt.sleep(1.0)

    rt.run(main())
    assert len(tops[2].received) == 2
    assert fabric.trace.metrics.value("net.envelopes") == 2


def test_size_caps_flush_early():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(
        rt, wire=WireConfig(batch=True, max_batch_msgs=4))
    metrics = fabric.trace.metrics

    async def main():
        for i in range(10):
            await nodes[1].transport.push(2, i)
        await rt.sleep(1.0)

    rt.run(main())
    assert len(tops[2].received) == 10
    # 4 + 4 at the message cap, then 2 on the round flush.
    assert metrics.value("net.batch.flush.cap") == 2
    assert metrics.value("net.batch.flush.round") == 1
    assert metrics.value("net.envelopes") == 3


def test_byte_cap_flushes_early():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(
        rt, wire=WireConfig(batch=True, max_batch_bytes=40))

    async def main():
        for i in range(4):
            await nodes[1].transport.push(2, "x" * 30)  # 35 bytes each
        await rt.sleep(1.0)

    rt.run(main())
    assert len(tops[2].received) == 4
    assert fabric.trace.metrics.value("net.batch.flush.cap") >= 1


def test_single_message_round_travels_unbatched():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(rt, wire=WireConfig(batch=True))

    async def main():
        await nodes[1].transport.push(2, "solo")
        await rt.sleep(1.0)

    rt.run(main())
    # A buffer of one flushes as the bare payload, not a WireBatch.
    assert tops[2].received == [(1, "solo")]
    assert not any(isinstance(p, WireBatch) for _, p in tops[2].received)


def test_batching_defaults_off_with_identical_accounting():
    def run(wire):
        rt = SimRuntime()
        fabric, nodes, tops = build_pair(
            rt, rand=RandomSource(5), wire=wire,
            default_link=LinkSpec(delay=0.02, jitter=0.01, loss=0.1))

        async def main():
            for i in range(50):
                await nodes[1].transport.push(2, i)
                if i % 10 == 9:
                    await rt.sleep(0.01)
            await rt.sleep(1.0)

        rt.run(main())
        return ([p for _, p in tops[2].received],
                fabric.trace.metrics.snapshot()["counters"],
                fabric.trace.metrics.value("net.envelopes"))

    default_payloads, default_counts, default_envelopes = run(None)
    explicit_payloads, explicit_counts, _ = run(WireConfig())
    # The default config IS the old per-message path: one envelope per
    # send, and an explicitly-constructed default behaves identically.
    assert default_envelopes == default_counts["net.send"]
    assert explicit_payloads == default_payloads
    assert explicit_counts == default_counts


def test_batched_and_unbatched_deliver_the_same_messages():
    def run(batch):
        rt = SimRuntime()
        fabric, nodes, tops = build_pair(
            rt, wire=WireConfig(batch=batch))

        async def main():
            for i in range(20):
                await nodes[1].transport.push(2, i)
            await rt.sleep(1.0)

        rt.run(main())
        return ([p for _, p in tops[2].received],
                fabric.trace.metrics.value("net.envelopes"))

    plain, plain_envelopes = run(False)
    batched, batched_envelopes = run(True)
    assert batched == plain        # same payloads, same order
    assert plain_envelopes == 20
    # 16 at the default message cap + 4 on the round flush: 10x fewer.
    assert batched_envelopes == 2


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------

def test_backpressure_blocks_senders_at_the_budget():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(rt, wire=WireConfig(queue_depth=2))
    metrics = fabric.trace.metrics
    done_at = []

    async def main():
        for i in range(6):
            await nodes[1].transport.push(2, i)
        done_at.append(rt.now())
        await rt.sleep(1.0)

    rt.run(main())
    assert len(tops[2].received) == 6
    # Budget 2, delivery frees a credit after the 0.02s link delay: the
    # sender could not complete all six pushes at t=0.
    assert done_at[0] >= 0.04
    assert metrics.value("net.queue.waits") >= 2
    assert fabric.pipeline.inflight(1, 2) == 0
    assert metrics.gauge("net.queue.depth.1-2").value == 0


def test_backpressure_credits_return_on_drop_paths():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(
        rt, rand=RandomSource(42), wire=WireConfig(queue_depth=1),
        default_link=LinkSpec(delay=0.02, jitter=0.0, loss=1.0))

    async def main():
        for i in range(5):
            await nodes[1].transport.push(2, i)
        await rt.sleep(1.0)

    rt.run(main())
    # Every message was lost, yet no sender deadlocked: the fabric
    # resolves dropped envelopes synchronously, returning the budget.
    assert tops[2].received == []
    assert fabric.trace.metrics.value("net.drop-loss") == 5
    assert fabric.pipeline.inflight(1, 2) == 0


def test_backpressure_credits_survive_duplication():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(
        rt, rand=RandomSource(3), wire=WireConfig(queue_depth=1),
        default_link=LinkSpec(delay=0.02, jitter=0.0, duplicate=1.0))

    async def main():
        for i in range(4):
            await nodes[1].transport.push(2, i)
        await rt.sleep(1.0)

    rt.run(main())
    # Both copies of each send share one idempotent resolver: the budget
    # comes back exactly once per message, not once per copy.
    assert len(tops[2].received) == 8
    assert fabric.pipeline.inflight(1, 2) == 0
    assert fabric.pipeline._links[(1, 2)].credits.value == 1


# ----------------------------------------------------------------------
# Control fast lane (the heartbeat head-of-line regression)
# ----------------------------------------------------------------------

def test_fast_lane_prevents_false_suspicion_under_bulk_load():
    """Node 1 heartbeats node 2 while drowning the 1->2 link in bulk
    sends; node 2's detector must never suspect node 1."""
    rt = SimRuntime()
    fabric, nodes, _ = build_pair(rt, wire=WireConfig(queue_depth=2))
    demuxes = {}
    for pid, node in nodes.items():
        demux = TypeDemux(f"hb-demux@{pid}")
        compose_stack(demux, node.transport)
        demuxes[pid] = demux
    sender = HeartbeatDetector(nodes[1], [2], interval=0.05,
                               suspect_after=3)
    demuxes[1].attach(Heartbeat, sender)
    monitor = HeartbeatDetector(nodes[2], [1], interval=0.05,
                                suspect_after=3)
    demuxes[2].attach(Heartbeat, monitor)
    changes = []
    monitor.listeners.append(lambda pid, change: changes.append(change))

    async def bulk(i):
        await nodes[1].transport.push(2, f"bulk-{i}")

    async def main():
        # 60 one-shot senders against a budget of 2 on a 0.02s link:
        # the queue drains at ~100 msgs/s, so the backlog takes ~0.6s —
        # far past the detector's 0.15s suspicion deadline.
        for i in range(60):
            nodes[1].spawn(bulk(i), name=f"bulk-{i}", daemon=True)
        sender.start()
        monitor.start()
        await rt.sleep(1.2)

    rt.run(main())
    assert fabric.trace.metrics.value("net.fastlane.sends") > 0
    from repro.core.messages import MemChange
    assert MemChange.FAILURE not in changes


# ----------------------------------------------------------------------
# Crash safety
# ----------------------------------------------------------------------

def test_crash_drops_buffered_outbound_messages():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(rt, wire=WireConfig(batch=True))

    async def main():
        for i in range(3):
            await nodes[1].transport.push(2, i)
        assert fabric.pipeline.buffered(src=1) == 3
        nodes[1].crash()   # same round: the flush timer has not fired
        await rt.sleep(1.0)

    rt.run(main())
    # A down site cannot transmit: nothing escaped on the flush timer.
    assert tops[2].received == []
    assert fabric.pipeline.buffered() == 0
    assert fabric.trace.metrics.value("net.drop-src-down") == 3
    assert fabric.trace.metrics.value("net.batch.envelopes") == 0


def test_recovered_node_sends_again_through_the_pipeline():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(rt, wire=WireConfig(batch=True))

    async def main():
        await nodes[1].transport.push(2, "pre")
        nodes[1].crash()
        await rt.sleep(0.1)
        nodes[1].recover()
        await nodes[1].transport.push(2, "post")
        await rt.sleep(1.0)

    rt.run(main())
    assert [p for _, p in tops[2].received] == ["post"]


# ----------------------------------------------------------------------
# Message sizing: the shortcuts must charge what the field walk charges
# ----------------------------------------------------------------------

def _field_walk(value):
    """The generic dataclass estimate, spelled out: 2 of framing plus
    every declared field — so a field added to the class without
    updating its ``wire_size()`` shows up here as a mismatch."""
    return 2 + sum(wire_size(getattr(value, name))
                   for name in value.__dataclass_fields__)


def test_netmsg_and_group_size_themselves_like_the_field_walk():
    group = Group("shard-3", [4, 9, 2])
    assert group.wire_size() == _field_walk(group) == wire_size(group)
    assert _field_walk(Group("gruppe-ü", [1])) == 2 + (5 + 9) + (5 + 9)
    assert set(NetMsg.__dataclass_fields__) == {
        "type", "id", "op", "args", "server", "sender", "inc", "ackid",
        "ack_inc", "order", "client", "service", "annotations"}
    seen = set()
    for kind in NetOp:
        for args in (None, b"\x00" * 300, [b"ab", b""],
                     {"key": "k", "value": {"rows": [1, 2.5, None]}}):
            for server in (None, group):
                for notes in (None, {"obs.ctx": (7, 9), "deps": [1, 2]}):
                    msg = NetMsg(kind, id=2 ** 40, op="put", args=args,
                                 server=server, sender=3, inc=1, ackid=5,
                                 ack_inc=1, order=12, client=3,
                                 service="kv", annotations=notes)
                    assert msg.wire_size() == _field_walk(msg), msg
                    assert wire_size(msg) == msg.wire_size()
                    seen.add(msg.wire_size())
    assert len(seen) == 4 * 2 * 2    # every varying field is charged
    assert NetMsg(NetOp.ACK).wire_size() == 81 + 5 + 1 + 1 + 5 + 1


def test_wire_size_charges_strings_their_utf8_length():
    """The estimate mirrors the marshaller's framing, which counts
    bytes, not code points (ASCII — every seeded bench — is the same
    either way)."""
    assert wire_size("plain") == len(marshal("plain")) == 10
    assert wire_size("é縦🚀") == len(marshal("é縦🚀")) == 5 + 2 + 3 + 4
    assert wire_size({"ключ": "значение"}) == \
        len(marshal({"ключ": "значение"}))
    plain = NetMsg(NetOp.CALL, op="put", service="kv",
                   annotations={"k": 1})
    wide = NetMsg(NetOp.CALL, op="püt", service="kv-東",
                  annotations={"ключ": 1})
    assert wide.wire_size() == _field_walk(wide)
    assert wide.wire_size() - plain.wire_size() == 1 + (1 + 3) + (8 - 1)


class _CountedPayload:
    """A payload that counts how often the pipeline asks its size."""

    def __init__(self):
        self.sized = 0

    def wire_size(self):
        self.sized += 1
        return 30


def test_multicast_sizes_its_payload_once_for_all_links():
    rt = SimRuntime()
    fabric, nodes, tops = build_pair(rt, pids=(1, 2, 3, 4),
                                     wire=WireConfig(batch=True))
    payload = _CountedPayload()

    async def main():
        await nodes[1].transport.push([2, 3, 4], payload)
        await rt.sleep(1.0)

    rt.run(main())
    assert [tops[pid].received for pid in (2, 3, 4)] == \
        [[(1, payload)]] * 3
    assert payload.sized == 1
    assert fabric.trace.metrics.value("net.batch.messages") == 3

    rt.run(nodes[1].transport.push(2, payload))
    assert payload.sized == 2           # a unicast still sizes its own


def test_seeded_batched_run_flushes_where_it_always_did():
    """The flush points of a byte-capped batched run are a function of
    the per-message size estimates; the counts below were taken with
    the field-walking sizer (parent of PR 23).  A 3-byte error in
    ``NetMsg.wire_size()`` moves them."""
    cluster = ServiceCluster(
        ServiceSpec(bounded=5.0, unique=True, acceptance=2), KVStore,
        n_servers=3, n_clients=2, seed=11,
        default_link=LinkSpec(delay=0.002, jitter=0.001),
        wire=WireConfig(batch=True, max_batch_bytes=600))
    checks = []

    async def lane(pid, tag):
        for i in range(10):
            key = f"k{tag}-{i}"
            value = {"blob": "v" * (37 * (i + tag) % 300), "n": [i, tag]}
            put = await cluster.call(pid, "put",
                                     {"key": key, "value": value})
            got = await cluster.call(pid, "get", {"key": key})
            checks.append(put.status is Status.OK and got.args == value)

    async def main():
        # Three lanes per client pid, so links carry several messages
        # a round and the byte cap actually binds.
        for task in [cluster.spawn_client(pid, lane(pid, tag))
                     for tag, pid in enumerate(cluster.client_pids * 3)]:
            await cluster.deployment.runtime.join(task)

    cluster.deployment.run_scenario(main(), extra_time=0.5)
    assert len(checks) == 60 and all(checks)
    metrics = cluster.deployment.metrics
    assert metrics.value("net.batch.messages") == 1134
    assert metrics.value("net.batch.flush.cap") == 43
    assert metrics.value("net.batch.flush.round") == 883
    assert metrics.value("net.batch.envelopes") == 926


# ----------------------------------------------------------------------
# End-to-end: full service stacks over a batching + budgeted pipeline
# ----------------------------------------------------------------------

def test_full_cluster_calls_work_over_batching_and_backpressure():
    cluster = ServiceCluster(
        ServiceSpec(bounded=5.0, unique=True), KVStore, n_servers=3,
        default_link=FAST,
        wire=WireConfig(batch=True, queue_depth=8))
    result = cluster.call_and_run("put", {"key": "k", "value": 7},
                                  extra_time=0.5)
    assert result.status is Status.OK
    result = cluster.call_and_run("get", {"key": "k"}, extra_time=0.5)
    assert result.args == 7
    metrics = cluster.deployment.metrics
    assert metrics.value("net.batch.envelopes") > 0
    # Coalescing never costs envelopes (it only merges shared links).
    assert metrics.value("net.envelopes") <= metrics.value("net.send")
