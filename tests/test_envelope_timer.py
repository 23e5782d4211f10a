"""The envelope is its own delivery timer.

The fabric arms each transmitted copy with ``runtime.call_later(delay,
envelope)``, and the kernel arms that :class:`~repro.net.message.
Envelope` in place: one object per copy, no action closure, no second
timer.  Each test below pins one thing that shortcut must keep: a
profiler that wraps ``runtime.call_later`` still sees every delivery,
an envelope takes its turn among plain timers exactly as a timer armed
at that point would, ``run_until`` and the heap purge keep it, and
Total Order's leader, now derived once per change of the live-member
set, still moves when the leader fails.
"""

import pytest

from repro import LinkSpec, ServiceCluster, ServiceSpec
from repro.apps import KVStore
from repro.core.messages import NetOp
from repro.net import NetworkFabric, Node, UnreliableTransport
from repro.net.message import Envelope
from repro.runtime import SimRuntime
from repro.sim import RandomSource
from repro.sim.kernel import Timer
from repro.xkernel import Protocol


class Top(Protocol):
    """Top protocol appending every payload popped up to it to ``log``."""

    def __init__(self, name, log):
        super().__init__(name)
        self.log = log

    async def pop(self, payload, sender):
        self.log.append(payload)


def _pair(runtime, link, log, seed=0):
    fabric = NetworkFabric(runtime, rand=RandomSource(seed),
                           default_link=link)
    for pid in (1, 2):
        node = Node(pid, runtime, fabric)
        UnreliableTransport(node)
        node.attach(object, Top(f"top@{pid}", log))
        node.start()
    return fabric


def _wrap_call_later(runtime, armed):
    """Install a forwarding ``call_later`` shaped like the perf layer
    tracer's: it records what it is asked to arm and arms a closure
    that runs the action instead."""
    arm = runtime.call_later

    def call_later(delay, action):
        armed.append(action)

        def fire():
            action()
        return arm(delay, fire)
    runtime.call_later = call_later


def _deliveries(wrapped):
    rt = SimRuntime()
    log = []
    fabric = _pair(rt, LinkSpec(delay=0.01, jitter=0.004, duplicate=0.5,
                                spike_prob=0.3, spike_delay=0.5), log,
                   seed=13)
    armed = []
    if wrapped:
        _wrap_call_later(rt, armed)
    times = []
    fabric.trace.observers.append(
        lambda e: times.append((e.time, e.detail))
        if e.kind == "deliver" else None)
    for i in range(40):
        rt.call_later(0.001 * i, lambda i=i: fabric.send(1, 2, i))
    rt.run_until_idle()
    return fabric, armed, times, log


def test_a_call_later_wrapper_sees_every_delivery_spikes_and_copies_too():
    fabric, armed, times, log = _deliveries(wrapped=True)
    envelopes = [action for action in armed
                 if isinstance(action, Envelope)]
    metrics = fabric.trace.metrics
    assert metrics.value("net.duplicate") > 0
    assert sum(envelope.copy for envelope in envelopes) == \
        metrics.value("net.duplicate")
    assert any(time > 0.5 for time, _ in times)      # some copies spiked
    assert len(envelopes) == len(log) == metrics.value("net.deliver") \
        == 40 + metrics.value("net.duplicate")
    # Wrapped or not, the same copies arrive at the same instants.
    _, _, bare_times, bare_log = _deliveries(wrapped=False)
    assert (times, log) == (bare_times, bare_log)


@pytest.mark.parametrize("envelope_first", [False, True])
def test_an_envelope_and_a_plain_timer_due_together_fire_in_arming_order(
        envelope_first):
    rt = SimRuntime()
    order = []
    fabric = _pair(rt, LinkSpec(delay=0.25, jitter=0.0), order)
    if envelope_first:
        fabric.send(1, 2, "envelope")
    rt.call_later(0.25, lambda: order.append("timer"))
    if not envelope_first:
        fabric.send(1, 2, "envelope")
    rt.call_later(0.25, lambda: order.append("last"))
    rt.run_until_idle()
    assert order == (["envelope", "timer", "last"] if envelope_first
                     else ["timer", "envelope", "last"])


def test_run_until_puts_an_envelope_back_and_it_is_delivered_once():
    rt = SimRuntime()
    log = []
    fabric = _pair(rt, LinkSpec(delay=0.5, jitter=0.0), log)
    fabric.send(1, 2, "late")
    kernel = rt.kernel
    kernel.run_until(0.2)
    assert log == [] and kernel.now == 0.2
    [(when, _, envelope)] = kernel._timers
    assert isinstance(envelope, Envelope) and when == 0.5
    assert not envelope.cancelled
    kernel.run_until(1.0)
    assert log == ["late"]
    assert fabric.trace.metrics.value("net.deliver") == 1
    assert kernel._timers == []
    kernel.run_until(2.0)
    assert log == ["late"]


def test_purging_cancelled_timers_keeps_every_envelope():
    rt = SimRuntime()
    log = []
    fabric = _pair(rt, LinkSpec(delay=1.0, jitter=0.0), log)
    kernel = rt.kernel
    for i in range(10):
        fabric.send(1, 2, i)
    doomed = [rt.call_later(0.5, lambda: log.append("cancelled"))
              for _ in range(40)]
    for timer in doomed:
        timer.cancel()
    assert kernel.timers_purged > 0
    held = [entry[2] for entry in kernel._timers
            if isinstance(entry[2], Envelope)]
    assert len(held) == 10
    rt.run_until_idle()
    assert log == list(range(10))
    assert kernel.timers_fired == 10


def test_an_envelope_is_armed_in_place_and_a_plain_action_is_wrapped():
    rt = SimRuntime()
    log = []
    fabric = _pair(rt, LinkSpec(delay=0.1, jitter=0.0), log)
    envelope = Envelope(1, 2, "direct", 0.0, fabric=fabric)
    assert rt.call_later(0.1, envelope) is envelope
    timer = rt.call_later(0.1, lambda: None)
    assert type(timer) is Timer and timer.action is not None
    rt.run_until_idle()
    assert log == ["direct"]
    assert envelope.action is None and timer.action is None


def test_the_leader_cache_follows_the_leader_failing():
    """Calls are ordered by server 3, the largest id; once it fails, the
    next-largest live member, server 2, assigns the ranks of the calls
    that follow, and the survivors apply one order."""
    spec = ServiceSpec(ordering="total", unique=True, bounded=0.0,
                       acceptance=1)
    cluster = ServiceCluster(spec, KVStore, n_servers=3, n_clients=1,
                             seed=4, membership="oracle",
                             default_link=LinkSpec(delay=0.01,
                                                   jitter=0.002))
    dep = cluster.deployment
    trace = dep.fabric.trace
    trace.keep_events = True
    client = cluster.client
    group = cluster.group
    leads = {pid: cluster.grpc(pid).micro("Total_Order").i_am_leader
             for pid in (1, 2, 3)}

    async def scenario():
        for i in range(3):
            assert (await cluster.call(client, "put",
                                       {"key": f"a{i}", "value": i})).ok
        assert [leads[pid](group) for pid in (1, 2, 3)] == \
            [False, False, True]
        dep.crash(3)
        await dep.runtime.sleep(0.1)
        assert [leads[pid](group) for pid in (1, 2)] == [False, True]
        for i in range(3):
            assert (await cluster.call(client, "put",
                                       {"key": f"b{i}", "value": i})).ok

    dep.run_scenario(scenario(), extra_time=1.0)
    ranked = {}
    for event in trace.events:
        msg = event.detail
        if event.kind == "send" and getattr(msg, "type", None) is \
                NetOp.ORDER:
            ranked.setdefault(msg.order, set()).add((msg.sender, msg.id))
    assert sorted(ranked) == [1, 2, 3, 4, 5, 6]
    assert [{sender for sender, _ in ranked[rank]} for rank in ranked] == \
        [{3}] * 3 + [{2}] * 3
    assert cluster.app(1).data == cluster.app(2).data
    assert len(cluster.app(2).data) == 6
