"""Schedule equivalence of the message path.

Each scenario drives one seeded deployment down one way a message can
travel: multicast calls with unicast replies, coalesced ``WireBatch``
envelopes, a lossy link that duplicates every survivor, a partition, a
crash with arrivals still in flight followed by recovery, and heartbeats
on the wire pipeline's control fast lane.  What the schedule produced is
pinned two ways: a SHA-256 over every ``NetTrace`` record's ``(time,
kind, src, dst)``, and each call's virtual completion time.

The golden values were recorded with the previous message path: a
per-node inbox drained by a receive-loop task, two envelopes per send,
and one forwarding coroutine per x-kernel layer.  They are that
implementation's output; never regenerate them from this tree.  If one
moves, a change to the delivery path changed the schedule.
"""

import hashlib

import pytest

from repro import Deployment, LinkSpec, ServiceSpec, WireConfig
from repro.apps import KVStore
from repro.core.microprotocols import ALL
from repro.net import Node
from repro.sim import Kernel

NET = LinkSpec(delay=0.01, jitter=0.004)


def _lanes(dep, service, clients, n_calls, done):
    """One closed-loop client task per pid, ``n_calls`` puts each."""

    async def lane(pid):
        for i in range(n_calls):
            result = await dep.call(pid, service, "put",
                                    {"key": f"k{pid}-{i % 3}", "value": i})
            done.append((service, pid, i, result.status.value,
                         dep.runtime.now()))

    return [dep.spawn_client(pid, lane(pid), name=f"client-{service}-{pid}")
            for pid in clients]


def _drive(dep, handles, extra_time=0.5):
    async def main():
        for handle in handles:
            await dep.runtime.join(handle)

    dep.run_scenario(main(), extra_time=extra_time)


def unicast_multicast():
    dep = Deployment(seed=1, default_link=NET)
    dep.add_service("kv", ServiceSpec(acceptance=2), KVStore,
                    servers=3, clients=2)
    done = []
    _drive(dep, _lanes(dep, "kv", [101, 102], 5, done))
    return dep, done, 0


def batched():
    dep = Deployment(seed=2, default_link=NET,
                     wire=WireConfig(batch=True, max_batch_msgs=2))
    for name in ("a", "b", "c"):
        dep.add_service(name, ServiceSpec(acceptance=2), KVStore,
                        servers=[1, 2, 3], clients=[101, 102])
    done = []
    handles = [handle for name in ("a", "b", "c")
               for handle in _lanes(dep, name, [101, 102], 4, done)]
    _drive(dep, handles)
    assert dep.metrics.value("net.batch.flush.cap") > 0
    return dep, done, 0


def loss_duplicate():
    dep = Deployment(seed=3, default_link=LinkSpec(
        delay=0.01, jitter=0.005, loss=0.2, duplicate=1.0))
    dep.add_service("kv", ServiceSpec(unique=True, acceptance=2,
                                      bounded=2.0),
                    KVStore, servers=3, clients=2)
    done = []
    _drive(dep, _lanes(dep, "kv", [101, 102], 5, done))
    return dep, done, 0


def partition():
    dep = Deployment(seed=4, default_link=NET)
    dep.add_service("kv", ServiceSpec(acceptance=2), KVStore,
                    servers=3, clients=2)
    done = []
    handles = _lanes(dep, "kv", [101, 102], 5, done)
    dep.runtime.call_later(0.03, lambda: dep.partition([1, 2], [101]))
    dep.runtime.call_later(0.4, dep.heal)
    _drive(dep, handles)
    return dep, done, 0


def crash_in_flight():
    dep = Deployment(seed=5, membership="oracle",
                     default_link=LinkSpec(delay=0.05, jitter=0.01))
    dep.add_service("kv", ServiceSpec(acceptance=ALL), KVStore,
                    servers=3, clients=2)
    done = []
    handles = _lanes(dep, "kv", [101, 102], 6, done)
    # Calls are multicast every ~0.1 s over a 50 ms link: at 0.07 the
    # second round's arrivals at server 2 are still on the wire.
    dep.runtime.call_later(0.07, lambda: dep.crash(2))
    dep.runtime.call_later(0.5, lambda: dep.recover(2))
    _drive(dep, handles)
    return dep, done, 1          # one crash/recovery round


def heartbeat_fast_lane():
    dep = Deployment(seed=6, membership="heartbeat",
                     heartbeat_interval=0.02, default_link=NET)
    dep.add_service("kv", ServiceSpec(acceptance=ALL, bounded=2.0),
                    KVStore, servers=3, clients=1)
    done = []
    handles = _lanes(dep, "kv", [101], 8, done)
    dep.runtime.call_later(0.05, lambda: dep.crash(3))
    dep.runtime.call_later(0.3, lambda: dep.recover(3))
    _drive(dep, handles)
    dep.settle(0.2)
    assert dep.metrics.value("net.fastlane.sends") > 0
    return dep, done, 1


SCENARIOS = {f.__name__: f for f in (
    unicast_multicast, batched, loss_duplicate, partition, crash_in_flight,
    heartbeat_fast_lane)}


def _digest(dep):
    lines = "\n".join(f"{e.time!r} {e.kind} {e.src} {e.dst}"
                      for e in dep.fabric.trace.events)
    return hashlib.sha256(lines.encode()).hexdigest()


def _run(name):
    dep, done, restarts = SCENARIOS[name]()
    stats = dep.runtime.stats()
    observed = {
        "digest": _digest(dep),
        "records": len(dep.fabric.trace.events),
        "calls": [(svc, pid, i, status, repr(t))
                  for svc, pid, i, status, t in done],
    }
    dep.shutdown()
    return observed, stats, len(dep.nodes), restarts


#: Recorded with the receive-loop message path (see the module docstring).
GOLDEN = {
    'batched': {
        "digest": ('012a3c72f37eebd3d3093019eef1d5e097dbfb00'
                   'cf428fa16d970b0ed23f62a2'),
        "records": 360, "steps": 563, "tasks": 417,
        "calls": [
            ('c', 102, 0, 'OK', '0.023452971780908154'),
            ('c', 101, 0, 'OK', '0.02479403879025572'),
            ('a', 101, 0, 'OK', '0.02558467856916226'),
            ('b', 101, 0, 'OK', '0.02558467856916226'),
            ('a', 102, 0, 'OK', '0.02604841757699143'),
            ('b', 102, 0, 'OK', '0.02604841757699143'),
            ('c', 102, 1, 'OK', '0.04742647028741231'),
            ('a', 101, 1, 'OK', '0.04841020866464468'),
            ('b', 101, 1, 'OK', '0.04841020866464468'),
            ('c', 101, 1, 'OK', '0.049925267220639266'),
            ('a', 102, 1, 'OK', '0.05118363575134347'),
            ('b', 102, 1, 'OK', '0.05118363575134347'),
            ('c', 102, 2, 'OK', '0.0688288867619484'),
            ('a', 101, 2, 'OK', '0.0715325870158581'),
            ('b', 101, 2, 'OK', '0.0715325870158581'),
            ('c', 101, 2, 'OK', '0.07205125939509105'),
            ('a', 102, 2, 'OK', '0.07466636828427546'),
            ('b', 102, 2, 'OK', '0.07466636828427546'),
            ('c', 102, 3, 'OK', '0.09267398933089076'),
            ('a', 101, 3, 'OK', '0.09382220046038667'),
            ('b', 101, 3, 'OK', '0.09382220046038667'),
            ('c', 101, 3, 'OK', '0.09835482316060444'),
            ('a', 102, 3, 'OK', '0.09850202253930694'),
            ('b', 102, 3, 'OK', '0.09850202253930694'),
        ],
    },
    'crash_in_flight': {
        "digest": ('9dc0cb54d9ded2de7d6e499b5166a01cf765a28b'
                   'e94006485c76bf0ff18bf2f3'),
        "records": 410, "steps": 504, "tasks": 307,
        "calls": [
            ('kv', 101, 0, 'OK', '0.1117658194232139'),
            ('kv', 102, 0, 'OK', '0.11249755302523343'),
            ('kv', 102, 1, 'OK', '0.22437061208648912'),
            ('kv', 101, 1, 'OK', '0.22675799778508454'),
            ('kv', 101, 2, 'OK', '0.33632027596733993'),
            ('kv', 102, 2, 'OK', '0.34269855806583294'),
            ('kv', 101, 3, 'OK', '0.4512114580049128'),
            ('kv', 102, 3, 'OK', '0.45601577978337837'),
            ('kv', 101, 4, 'OK', '0.5577124831481091'),
            ('kv', 102, 4, 'OK', '0.5718674282530014'),
            ('kv', 101, 5, 'OK', '0.6731861624359892'),
            ('kv', 102, 5, 'OK', '0.6851232102945825'),
        ],
    },
    'heartbeat_fast_lane': {
        "digest": ('e07c03369bb63ad2da379a80473ebb1b15361aac'
                   '65c7576a3b54222ffb3e9a66'),
        "records": 1186, "steps": 1527, "tasks": 628,
        "calls": [
            ('kv', 101, 0, 'OK', '0.02602929576725046'),
            ('kv', 101, 1, 'OK', '0.05303467207256014'),
            ('kv', 101, 2, 'OK', '0.12000000000000001'),
            ('kv', 101, 3, 'OK', '0.1451309577720044'),
            ('kv', 101, 4, 'OK', '0.16989369182923247'),
            ('kv', 101, 5, 'OK', '0.195400584338536'),
            ('kv', 101, 6, 'OK', '0.22207132670977242'),
            ('kv', 101, 7, 'OK', '0.2456029418357117'),
        ],
    },
    'loss_duplicate': {
        "digest": ('4cb44e2e556433254849369b2fc5f3f376f4a3c2'
                   '3f9d5c59397bca120366b404'),
        "records": 840, "steps": 840, "tasks": 451,
        "calls": [
            ('kv', 102, 0, 'OK', '0.02288557275390109'),
            ('kv', 101, 0, 'OK', '0.023250695944782095'),
            ('kv', 101, 1, 'OK', '0.045701884209503794'),
            ('kv', 102, 1, 'OK', '0.04616138865753749'),
            ('kv', 102, 2, 'OK', '0.06803325234407001'),
            ('kv', 101, 2, 'OK', '0.0681793846186892'),
            ('kv', 102, 3, 'OK', '0.09082297127490292'),
            ('kv', 102, 4, 'OK', '0.11666458542838691'),
            ('kv', 101, 3, 'OK', '0.17450197549520322'),
            ('kv', 101, 4, 'OK', '0.1991141144849762'),
        ],
    },
    'partition': {
        "digest": ('8a87201c54c4e0e1e5b128d08d13dd8c0aab6945'
                   'e69675e4f163f7f3891f408a'),
        "records": 196, "steps": 279, "tasks": 188,
        "calls": [
            ('kv', 101, 0, 'OK', '0.021684915284004562'),
            ('kv', 102, 0, 'OK', '0.0219443335119862'),
            ('kv', 102, 1, 'OK', '0.045658711055170616'),
            ('kv', 102, 2, 'OK', '0.07189268227890727'),
            ('kv', 102, 3, 'OK', '0.09453835032604052'),
            ('kv', 102, 4, 'OK', '0.11970188098313948'),
            ('kv', 101, 1, 'OK', '0.4735763263918632'),
            ('kv', 101, 2, 'OK', '0.49778869808717063'),
            ('kv', 101, 3, 'OK', '0.5209923069352512'),
            ('kv', 101, 4, 'OK', '0.5428295986469678'),
        ],
    },
    'unicast_multicast': {
        "digest": ('07485101704c6cd57e15a7517c71d2e6888744de'
                   'c517d31bb8faccd51a399df0'),
        "records": 168, "steps": 247, "tasks": 152,
        "calls": [
            ('kv', 102, 0, 'OK', '0.02351041511636585'),
            ('kv', 101, 0, 'OK', '0.024956954061059893'),
            ('kv', 102, 1, 'OK', '0.046761189729664566'),
            ('kv', 101, 1, 'OK', '0.04811632482456578'),
            ('kv', 102, 2, 'OK', '0.07041099929795605'),
            ('kv', 101, 2, 'OK', '0.0739045300397346'),
            ('kv', 102, 3, 'OK', '0.0941941987258547'),
            ('kv', 101, 3, 'OK', '0.09921095561191784'),
            ('kv', 102, 4, 'OK', '0.11969650977434862'),
            ('kv', 101, 4, 'OK', '0.12156255634376761'),
        ],
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_schedule_matches_the_receive_loop_path(name):
    observed, _, _, _ = _run(name)
    golden = GOLDEN[name]
    assert observed["records"] == golden["records"]
    assert observed["calls"] == golden["calls"]
    assert observed["digest"] == golden["digest"]


#: Delivered arrivals that finish inline, never becoming a task.  Not
#: receive-loop figures: recorded when an arrival became a task only on
#: demand, and raised (90 -> 120, 91 -> 182, 513 -> 537, 350 -> 378,
#: 39 -> 80, 42 -> 84) when RPC Main stopped asking an executing
#: arrival for its task unless an orphan policy can kill it.  If one
#: falls, arrivals that used to finish inline now park or ask for their
#: task.
INLINE_ARRIVALS = {
    "batched": 120, "crash_in_flight": 182, "heartbeat_fast_lane": 537,
    "loss_duplicate": 378, "partition": 80, "unicast_multicast": 84,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_one_kernel_step_fewer_per_delivered_envelope(name, monkeypatch):
    """The receive loop cost one step per delivered envelope, plus one
    per start (node start or recovery) and one per crash that cancelled
    it; it was one task per start, and one per arrival.  An arrival that
    finishes inline is no task at all.  Nothing else about the schedule
    moved."""
    delivered, inline = [], []
    deliver, start, spawn = Node.deliver, Kernel.start, Kernel.spawn
    spawns = [0]

    def counting(node, envelope):
        delivered.append(envelope)
        deliver(node, envelope)

    def counting_spawn(kernel, *args, **kwargs):
        spawns[0] += 1
        return spawn(kernel, *args, **kwargs)

    def counting_start(kernel, *args, **kwargs):
        made, spawned = kernel.tasks_spawned, spawns[0]
        task = start(kernel, *args, **kwargs)
        # Tasks made, less the ones spawned along the way: the arrival's.
        made = kernel.tasks_spawned - made - (spawns[0] - spawned)
        inline.append(task is None and made == 0)
        return task

    monkeypatch.setattr(Node, "deliver", counting)
    monkeypatch.setattr(Kernel, "spawn", counting_spawn)
    monkeypatch.setattr(Kernel, "start", counting_start)
    _, stats, nodes, restarts = _run(name)
    golden = GOLDEN[name]
    starts = nodes + restarts
    assert stats["steps_executed"] == (
        golden["steps"] - len(delivered) - starts - restarts)
    assert sum(inline) == INLINE_ARRIVALS[name]
    assert stats["tasks_spawned"] == (
        golden["tasks"] - starts - INLINE_ARRIVALS[name])


def _lossy_counters(keep_trace):
    """A seeded run over lossy, duplicating, spiking links with coalesced
    envelopes and a partition: every ``net.*`` counter at the end."""
    dep = Deployment(seed=7, keep_trace=keep_trace,
                     default_link=LinkSpec(delay=0.01, jitter=0.005,
                                           loss=0.2, duplicate=0.3,
                                           spike_prob=0.1, spike_delay=0.05),
                     wire=WireConfig(batch=True, max_batch_msgs=2))
    dep.add_service("kv", ServiceSpec(unique=True, acceptance=2,
                                      bounded=2.0),
                    KVStore, servers=3, clients=2)
    done = []
    handles = _lanes(dep, "kv", [101, 102], 5, done)
    dep.runtime.call_later(0.03, lambda: dep.partition([1, 2], [101]))
    dep.runtime.call_later(0.3, dep.heal)
    _drive(dep, handles)
    counters = {name: dep.metrics.value(name)
                for name in dep.metrics.counter_names("net.")}
    events = len(dep.fabric.trace.events)
    dep.shutdown()
    return counters, done, events


def test_counters_do_not_depend_on_keeping_the_trace():
    """``net.send``/``net.deliver`` are bumped inline when no event is
    kept; every ``net.*`` counter and every call's outcome must read the
    same as when each record builds its event."""
    kept, kept_done, kept_events = _lossy_counters(True)
    counted, counted_done, counted_events = _lossy_counters(False)
    assert counted_events == 0 and kept_events > 0
    for kind in ("send", "deliver", "drop-loss", "duplicate",
                 "drop-partition", "envelopes", "batch.messages"):
        assert kept[f"net.{kind}"] > 0, kind
    assert counted == kept
    assert counted_done == kept_done
