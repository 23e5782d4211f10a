"""Unit tests for the fault-injection utilities."""

import pytest

from repro import LinkSpec, ServiceCluster, ServiceSpec, WireConfig
from repro.apps import KVStore
from repro.faults import (
    CrashSchedule,
    all_acks,
    all_replies,
    calls_to,
    drop_first,
    drop_matching,
    net_msg,
    order_messages,
    replies_from,
)

FAST = LinkSpec(delay=0.005, jitter=0.0)


def make_cluster(**kwargs):
    spec = kwargs.pop("spec", ServiceSpec(bounded=5.0, unique=True))
    return ServiceCluster(spec, KVStore, n_servers=2,
                          default_link=FAST, **kwargs)


def test_drop_matching_counts_and_removes():
    cluster = make_cluster()
    fault = drop_matching(cluster.deployment.fabric, calls_to(1))
    result = cluster.call_and_run("put", {"key": "k", "value": 1},
                                  extra_time=0.3)
    assert result.ok                       # server 2 answered
    assert fault.matched > 0
    assert fault.dropped == fault.matched  # unlimited drop
    fault.remove()
    before = fault.dropped
    cluster.call_and_run("get", {"key": "k"}, extra_time=0.3)
    assert fault.dropped == before         # no longer active


def test_drop_first_limits_drops():
    # acceptance=2 so the call cannot complete without server 1,
    # forcing retransmissions through the limited drop filter.
    cluster = make_cluster(spec=ServiceSpec(bounded=5.0, unique=True,
                                            acceptance=2))
    fault = drop_first(cluster.deployment.fabric, 2, calls_to(1))
    result = cluster.call_and_run("put", {"key": "k", "value": 1},
                                  extra_time=0.5)
    assert result.ok
    assert fault.dropped == 2
    assert fault.matched >= 3   # retransmissions got through eventually


def test_predicates_select_correct_messages():
    cluster = make_cluster()
    seen = {"replies": 0, "acks": 0, "orders": 0}
    rf = replies_from(1)
    ar = all_replies()
    aa = all_acks()
    om = order_messages()

    def spy(env):
        if ar(env):
            seen["replies"] += 1
            assert rf(env) == (env.src == 1)
        if aa(env):
            seen["acks"] += 1
        if om(env):
            seen["orders"] += 1
        return True

    cluster.deployment.fabric.add_filter(spy)
    cluster.call_and_run("put", {"key": "k", "value": 1}, extra_time=0.5)
    assert seen["replies"] == 2   # both servers replied
    assert seen["acks"] == 2      # client ACKed both (unique execution)
    assert seen["orders"] == 0    # no total order configured


def test_net_msg_unwraps_only_grpc_payloads():
    from repro.net.message import Envelope

    env = Envelope(1, 2, "not-a-netmsg", 0.0)
    assert net_msg(env) is None


def test_crash_schedule_bounce():
    cluster = make_cluster()
    schedule = CrashSchedule(cluster.deployment.runtime,
                             [cluster.deployment.nodes[pid]
                              for pid in cluster.server_pids])
    schedule.bounce(1, down_at=0.5, up_at=1.5)
    cluster.deployment.settle(1.0)
    assert not cluster.deployment.nodes[1].up
    assert cluster.deployment.nodes[2].up
    cluster.deployment.settle(1.0)
    assert cluster.deployment.nodes[1].up
    assert cluster.deployment.nodes[1].incarnation == 2


def test_crash_schedule_relative_to_now():
    cluster = make_cluster()
    cluster.deployment.settle(2.0)   # now = 2.0
    schedule = CrashSchedule(cluster.deployment.runtime,
                             [cluster.deployment.nodes[1]])
    schedule.crash_at(2.5, 1)
    cluster.deployment.settle(0.4)
    assert cluster.deployment.nodes[1].up
    cluster.deployment.settle(0.2)
    assert not cluster.deployment.nodes[1].up


# ----------------------------------------------------------------------
# Fault injection under wire-pipeline batching
# ----------------------------------------------------------------------

def _batching_pair():
    """Two raw fabric nodes with link-level coalescing enabled."""
    from repro.net import NetworkFabric, Node, UnreliableTransport
    from repro.runtime import SimRuntime
    from repro.xkernel import Protocol, compose_stack

    class Collector(Protocol):
        def __init__(self, name):
            super().__init__(name)
            self.received = []

        async def pop(self, payload, sender):
            self.received.append(payload)

    rt = SimRuntime()
    fabric = NetworkFabric(rt, default_link=FAST,
                           wire=WireConfig(batch=True))
    nodes, tops = {}, {}
    for pid in (1, 2):
        node = Node(pid, rt, fabric)
        top = Collector(f"top@{pid}")
        compose_stack(top, UnreliableTransport(node))
        node.start()
        nodes[pid], tops[pid] = node, top
    return rt, fabric, nodes, tops


def test_losing_a_batched_envelope_counts_one_loss_per_inner_message():
    from repro.net import LinkSpec as LS

    rt, fabric, nodes, tops = _batching_pair()
    fabric.set_link(1, 2, LS(delay=0.02, jitter=0.0, loss=1.0))

    async def main():
        for i in range(5):
            await nodes[1].transport.push(2, f"m{i}")
        await rt.sleep(0.5)

    rt.run(main())
    # One coalesced envelope went down the link and was dropped, but the
    # net.* accounting is per message: five sends, five losses.
    assert tops[2].received == []
    assert fabric.trace.metrics.value("net.send") == 5
    assert fabric.trace.metrics.value("net.drop-loss") == 5
    assert fabric.trace.metrics.value("net.envelopes") == 1
    assert fabric.trace.metrics.value("net.batch.envelopes") == 1


def test_drop_filters_probe_each_inner_message_of_a_batch():
    rt, fabric, nodes, tops = _batching_pair()
    fault = drop_matching(fabric,
                          lambda env: env.payload == "victim")

    async def main():
        for payload in ("a", "victim", "b", "victim", "c"):
            await nodes[1].transport.push(2, payload)
        await rt.sleep(0.5)

    rt.run(main())
    # The filter saw every inner message individually; the survivors
    # continued in a rebuilt batch.
    assert fault.matched == 2 and fault.dropped == 2
    assert tops[2].received == ["a", "b", "c"]
    assert fabric.trace.metrics.value("net.drop-filter") == 2
    assert fabric.trace.metrics.value("net.deliver") == 3
    assert fabric.trace.metrics.value("net.envelopes") == 1


def test_retransmission_converges_over_lossy_links_with_batching():
    # The Reliable Communication micro-protocol must still converge when
    # its (re)transmissions ride in coalesced envelopes over a link that
    # drops whole batches.
    spec = ServiceSpec(bounded=8.0, unique=True, acceptance=2,
                       retrans_timeout=0.05)
    cluster = ServiceCluster(
        spec, KVStore, n_servers=2, seed=9,
        default_link=LinkSpec(delay=0.005, jitter=0.002, loss=0.25),
        wire=WireConfig(batch=True, queue_depth=16))
    for i in range(3):
        result = cluster.call_and_run("put", {"key": f"k{i}", "value": i},
                                      extra_time=0.5)
        assert result.ok
    for pid in cluster.server_pids:
        for i in range(3):
            assert cluster.app(pid).data[f"k{i}"] == i
    # Losses happened (the link is genuinely bad) and every dropped
    # batch accounted at least one loss.
    assert cluster.deployment.metrics.value("net.drop-loss") > 0
