"""X10 — heartbeat membership tuning: detection latency vs accuracy.

The membership substrate is timeout-based and therefore unreliable in an
asynchronous system.  This ablation sweeps the suspicion threshold on a
network with performance failures (delay spikes) and measures both sides
of the trade-off: how fast a real crash is detected, and how often a
merely-slow peer is falsely suspected.

Expected shape: detection latency grows linearly with the threshold;
false suspicions fall sharply as the threshold grows — pick your poison.
"""

from _common import attach, run_once, save_result

from repro import LinkSpec
from repro.bench import banner, render_table
from repro.core.messages import MemChange
from repro.membership import HeartbeatDetector
from repro.membership.detector import Heartbeat
from repro.net import NetworkFabric, Node, UnreliableTransport
from repro.runtime import SimRuntime
from repro.sim import RandomSource

SPIKY = LinkSpec(delay=0.01, jitter=0.005, spike_prob=0.05,
                 spike_delay=0.3)
INTERVAL = 0.05
THRESHOLDS = (2, 3, 5, 8, 12)
OBSERVATION = 30.0
CRASH_AT = 10.0


def run_point(suspect_after, seed=0):
    rt = SimRuntime()
    fabric = NetworkFabric(rt, rand=RandomSource(seed),
                           default_link=SPIKY)
    detectors = {}
    for pid in (1, 2):
        node = Node(pid, rt, fabric)
        UnreliableTransport(node)
        detector = HeartbeatDetector(node, [1, 2], interval=INTERVAL,
                                     suspect_after=suspect_after)
        node.attach(Heartbeat, detector)
        node.start()
        detector.start()
        detectors[pid] = detector

    events = []
    detectors[1].listeners.append(
        lambda pid, change: events.append((rt.now(), pid, change)))
    rt.kernel.run_until(CRASH_AT)
    fabric.node(2).crash()
    rt.kernel.run_until(OBSERVATION)

    detection = next((t - CRASH_AT for t, pid, ch in events
                      if t >= CRASH_AT and ch is MemChange.FAILURE), None)
    false_suspicions = sum(1 for t, pid, ch in events
                           if t < CRASH_AT and ch is MemChange.FAILURE)
    return {"threshold": suspect_after,
            "detection_ms": detection * 1000 if detection else None,
            "false_suspicions": false_suspicions}


def test_x10_heartbeat_tuning(benchmark):
    def experiment():
        return [run_point(k) for k in THRESHOLDS]

    rows = run_once(benchmark, experiment)

    table = render_table(
        ["suspect after (missed beats)", "detection latency ms",
         "false suspicions in 10s"],
        [[r["threshold"],
          f"{r['detection_ms']:.0f}" if r["detection_ms"] else "-",
          r["false_suspicions"]] for r in rows])
    save_result("x10_heartbeat_tuning", "\n".join([
        banner("X10 — failure detector tuning",
               f"heartbeats every {INTERVAL * 1000:.0f}ms over a link "
               f"with 5% x {SPIKY.spike_delay * 1000:.0f}ms delay "
               f"spikes"),
        table]))
    attach(benchmark, {f"k={r['threshold']}":
                       r["false_suspicions"] for r in rows})

    # Every threshold eventually detects the real crash...
    assert all(r["detection_ms"] is not None for r in rows)
    # ...with latency growing in the threshold...
    assert rows[-1]["detection_ms"] > rows[0]["detection_ms"]
    # ...while aggressive thresholds false-positive on delay spikes and
    # conservative ones do not.
    assert rows[0]["false_suspicions"] > 0
    assert rows[-1]["false_suspicions"] == 0
