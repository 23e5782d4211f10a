"""The deployment observatory: instruments and their assembly.

Unit coverage for each instrument — the bounded histogram reservoir, the
space-saving hot-key sketch, the rolling SLO windows with breach
latching, the flight recorder's ring semantics and deterministic dumps,
the profiler's self/cumulative attribution — plus end-to-end checks
that an ``observatory=True`` deployment wires them all together and
renders the one-page health report.
"""

import importlib
import random

import pytest

from repro import Deployment, ServiceSpec
from repro.apps import KVStore, ShardRouter
from repro.obs.flight import FlightRecorder, live_recorders
from repro.obs.loadstats import KeyLoadTracker, SpaceSaving
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.profiler import KernelProfiler
from repro.obs.slo import SloTracker


def _marshal():
    return importlib.import_module("repro.stubs.marshal")


# ---------------------------------------------------------------------------
# Histogram reservoir (bounded memory, deterministic summaries)
# ---------------------------------------------------------------------------

def test_reservoir_exact_below_cap():
    hist = Histogram("t", reservoir=64)
    values = [i / 10 for i in range(50)]
    for v in values:
        hist.observe(v)
    assert hist.samples == values          # every observation retained
    assert hist.count == 50
    assert hist.summary()["max"] == pytest.approx(4.9)


def test_reservoir_bounds_memory_with_exact_aggregates():
    hist = Histogram("t", reservoir=32)
    rng = random.Random(7)
    values = [rng.random() for _ in range(5000)]
    for v in values:
        hist.observe(v)
    assert len(hist.samples) == 32         # bounded however long the run
    assert hist.count == 5000              # aggregates stay exact
    assert hist.total == pytest.approx(sum(values))
    assert hist.summary()["min"] == pytest.approx(min(values))
    assert hist.summary()["max"] == pytest.approx(max(values))


def test_reservoir_is_deterministic_per_name():
    def run(name):
        hist = Histogram(name, reservoir=16)
        rng = random.Random(3)
        for _ in range(1000):
            hist.observe(rng.random())
        return hist.samples

    assert run("same") == run("same")      # seeded from the name
    # Seeded benchmarks stay byte-identical across runs of one tree.


# ---------------------------------------------------------------------------
# Space-saving hot keys under a Zipfian stream
# ---------------------------------------------------------------------------

def test_space_saving_finds_zipf_head():
    keys = [f"key-{i:03d}" for i in range(100)]
    weights = [1.0 / (rank + 1) for rank in range(100)]
    rng = random.Random(42)
    truth = {}
    sketch = SpaceSaving(budget=8)
    for _ in range(4000):
        key = rng.choices(keys, weights)[0]
        truth[key] = truth.get(key, 0) + 1
        sketch.hit(key)
    assert len(sketch) <= 8
    assert sketch.total == 4000
    top = sketch.top(8)
    top_keys = [key for key, _, _ in top]
    # The guaranteed-heavy keys (freq > total/budget) must be present.
    for key, freq in truth.items():
        if freq > 4000 / 8:
            assert key in top_keys, (key, freq)
    # The sketch's defining bound: count - err <= truth <= count.
    for key, count, err in top:
        true = truth.get(key, 0)
        assert count - err <= true <= count, (key, count, err, true)


def test_space_saving_eviction_picks_the_same_victim():
    """Keys far beyond the budget, so nearly every miss evicts: the
    victim is the lowest count, ties broken by the lowest key.  ``top()``
    was recorded with the ``min(key=lambda k: (counts[k], k))`` scan this
    replaced; one different victim anywhere in the stream changes it."""
    keys = [f"key-{i:04d}" for i in range(512)]
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(512)]
    rng = random.Random(24)
    sketch = SpaceSaving(budget=8)
    for _ in range(20000):
        sketch.hit(rng.choices(keys, weights)[0])
    assert sketch.total == 20000
    assert sketch.top() == [
        ("key-0000", 3905, 0), ("key-0001", 2303, 2289),
        ("key-0002", 2299, 2298), ("key-0027", 2299, 2298),
        ("key-0081", 2299, 2298), ("key-0113", 2299, 2298),
        ("key-0171", 2298, 2297), ("key-0476", 2298, 2297)]


def test_key_load_tracker_per_service_and_publish():
    metrics = MetricsRegistry()
    tracker = KeyLoadTracker(metrics, top_k=4)
    for _ in range(5):
        tracker.note("shard-0", "hot")
    tracker.note("shard-0", "cold")
    tracker.note("shard-1", "other")
    assert tracker.services() == ["shard-0", "shard-1"]
    assert tracker.top("shard-0")[0] == ("hot", 5, 0)
    assert tracker.top("missing") == []
    tracker.publish()
    snap = metrics.snapshot()["gauges"]
    assert snap["placement.load.volume.shard-0"] == 6
    assert snap["placement.load.hottest.shard-0"] == 5
    assert metrics.value("placement.load.noted") == 7
    assert any("hot×5" in line for line in tracker.report_lines())


# ---------------------------------------------------------------------------
# SLO windows: watermarks, breach latching, re-arming
# ---------------------------------------------------------------------------

def test_slo_breach_latches_once_and_rearms():
    metrics = MetricsRegistry()
    fired = []
    slo = SloTracker(metrics, window=8, thresholds={99: 0.1},
                     min_samples=4, clock=lambda: 1.5)
    slo.on_breach = fired.append
    for _ in range(4):
        slo.observe("svc", 0.01)
    assert slo.breaches == []              # under the bound
    slo.observe("svc", 0.5)                # p99 jumps over -> breach
    slo.observe("svc", 0.5)                # still latched: no second one
    assert len(slo.breaches) == 1 and len(fired) == 1
    breach = slo.breaches[0]
    assert (breach.service, breach.percentile) == ("svc", 99)
    assert breach.time == 1.5 and breach.value > breach.threshold
    for _ in range(8):                     # flush the window clean
        slo.observe("svc", 0.01)
    slo.observe("svc", 0.5)                # latch re-armed -> new breach
    assert len(slo.breaches) == 2
    assert metrics.value("obs.slo.breaches") == 2


def test_slo_watermarks_and_publish():
    metrics = MetricsRegistry()
    slo = SloTracker(metrics, window=100, min_samples=1)
    for i in range(100):
        slo.observe("svc", (i + 1) / 1000)
    marks = slo.watermarks("svc")
    assert marks["p50"] == pytest.approx(0.051)  # nearest rank
    assert marks["p99"] == pytest.approx(0.099)
    slo.publish()
    assert metrics.snapshot()["gauges"]["obs.slo.p99.svc"] == (
        pytest.approx(0.099))
    assert slo.watermarks("unseen") == {"p50": 0.0, "p95": 0.0,
                                        "p99": 0.0}


def test_slo_rejects_unknown_percentile():
    with pytest.raises(ValueError):
        SloTracker(MetricsRegistry(), thresholds={90: 0.1})


# ---------------------------------------------------------------------------
# Flight recorder: bounded ring, deterministic dumps
# ---------------------------------------------------------------------------

def test_flight_ring_overwrites_oldest():
    metrics = MetricsRegistry()
    clock = iter(range(100))
    flight = FlightRecorder(metrics, capacity=4,
                            clock=lambda: float(next(clock)))
    for i in range(10):
        flight.note("evt", i=i)
    assert len(flight) == 4 and flight.total_noted == 10
    assert [fields["i"] for _, _, _, fields in flight.entries()] == (
        [6, 7, 8, 9])                      # oldest first, newest retained
    seqs = [seq for seq, _, _, _ in flight.entries()]
    assert seqs == sorted(seqs)
    assert metrics.value("obs.recorder.overwrites") == 6


def test_flight_dump_is_deterministic():
    def run():
        flight = FlightRecorder(MetricsRegistry(), capacity=8,
                                clock=lambda: 0.25)
        flight.note("suspect", pid=3)
        # Insertion order of fields must not matter: sorted rendering.
        flight.note("rebind", members=[1, 2], service="kv")
        flight.note("rebind", service="kv", members=[1, 2])
        return flight.dump("test")

    first, second = run(), run()
    assert first == second
    lines = first.split("\n")
    assert len(lines) == 3
    # Past the sequence number, field order must not show.
    assert lines[1].split("] ", 1)[1] == lines[2].split("] ", 1)[1]
    assert "pid=3" in lines[0]


def test_flight_dump_bookkeeping_and_live_registry():
    metrics = MetricsRegistry()
    flight = FlightRecorder(metrics, capacity=8)
    flight.note("evt")
    text = flight.dump("because")
    assert flight.dumps == [("because", text)]
    assert metrics.value("obs.recorder.dumps") == 1
    assert flight in live_recorders()      # visible to the failure hook
    flight.publish()
    assert metrics.snapshot()["gauges"]["obs.recorder.retained"] == 1


def test_flight_note_accepts_wire_pipeline_fields():
    # Regression: the wire pipeline tapes fast-lane activations with the
    # payload's class name.  A field literally named ``kind`` collides
    # with note()'s positional parameter and raises — which, on the
    # heartbeat send path, silently kills the sender daemon and drives
    # every detector to suspicion.  Keep the call shape valid.
    flight = FlightRecorder(MetricsRegistry(), capacity=4)
    flight.note("fastlane", src=1, dst=2, payload="Heartbeat")
    flight.note("backpressure", src=1, dst=2, inflight=9)
    assert len(flight) == 2


# ---------------------------------------------------------------------------
# Profiler attribution
# ---------------------------------------------------------------------------

def test_profiler_nested_self_vs_cumulative():
    prof = KernelProfiler()
    prof.handler_enter(1, "outer", "h1")
    prof.handler_enter(1, "inner", "h2")
    prof.handler_exit(1, 0.3)
    prof.handler_exit(1, 1.0)
    sites = {s.label: s for s in prof.handler_sites()}
    assert sites["inner:h2"].self_time == pytest.approx(0.3)
    assert sites["outer:h1"].cum == pytest.approx(1.0)
    assert sites["outer:h1"].self_time == pytest.approx(0.7)
    for site in sites.values():
        assert 0.0 <= site.self_time <= site.cum
    assert "outer:h1;inner:h2 300000" in prof.collapsed()


def test_profiler_recursion_gives_one_context_per_path():
    prof = KernelProfiler()
    prof.handler_enter(1, "a", "h")
    prof.handler_enter(1, "b", "h")
    prof.handler_enter(1, "a", "h")
    prof.handler_exit(1, 0.1)
    prof.handler_exit(1, 0.3)
    prof.handler_exit(1, 0.6)
    assert prof.collapsed().splitlines() == [
        "a:h 300000", "a:h;b:h 200000", "a:h;b:h;a:h 100000"]
    rows = {s.label: (s.calls, s.cum, s.self_time)
            for s in prof.handler_sites()}
    assert rows == {"a:h": (2, 0.1 + 0.6, 0.1 + (0.6 - 0.3)),
                    "b:h": (1, 0.3, 0.3 - 0.1)}
    assert prof._stacks == {}


def test_profiler_tasks_parked_in_one_site_keep_separate_child_time():
    """Two tasks inside the same context node at once: the child time
    of one must not be subtracted from the other's self time."""
    prof = KernelProfiler()
    prof.handler_enter(1, "outer", "h")
    prof.handler_enter(2, "outer", "h")        # same node, other task
    prof.handler_enter(1, "inner", "h")
    prof.handler_exit(1, 0.25)                 # task 1's child
    prof.handler_exit(2, 1.0)                  # task 2: no children
    prof.handler_exit(1, 1.0)
    sites = {s.label: s for s in prof.handler_sites()}
    assert sites["outer:h"].calls == 2
    assert sites["outer:h"].cum == 2.0
    assert sites["outer:h"].self_time == 1.0 + 0.75
    assert prof.collapsed().splitlines() == [
        "outer:h 1750000", "outer:h;inner:h 250000"]


def test_profiler_reports_only_contexts_that_exited():
    prof = KernelProfiler()
    prof.handler_enter(1, "parked", "h")       # never exits
    prof.handler_enter(1, "done", "h")
    prof.handler_exit(1, 0.0)
    prof.handler_enter(1, "also-parked", "h")  # never exits
    assert prof.collapsed() == "parked:h;done:h 0"
    assert [s.label for s in prof.handler_sites()] == ["done:h"]
    metrics = MetricsRegistry()
    prof.publish(metrics)
    assert metrics.snapshot()["gauges"]["obs.profile.handler_sites"] == 1
    prof.handler_exit(7, 1.0)                  # unknown task: ignored
    assert [s.label for s in prof.handler_sites()] == ["done:h"]


def test_profiler_stacks_do_not_outlive_crashed_handlers():
    """A node crash while its handlers are parked (the bus is cleared,
    the parked tasks cancelled): every bracket still unwinds through its
    ``handler_exit``, so ``_stacks`` holds no entry for a dead task
    however many crash/recover rounds pass."""
    deployment = Deployment(seed=5, membership="oracle", observatory=True)
    service = deployment.add_service(
        "kv", ServiceSpec(reliable=True, bounded=50.0), KVStore,
        servers=1, clients=1)
    client, server = service.client_pids[0], service.server_pids[0]
    prof = deployment.observatory.profiler
    parked = []

    async def rounds():
        for i in range(100):
            deployment.crash(server)       # the call below cannot finish
            deployment.spawn_client(client, service.call(
                client, "put", {"key": "k", "value": i}))
            await deployment.runtime.sleep(0.05)
            parked.append(len(prof._stacks))   # inside Synchronous_Call
            deployment.crash(client)
            await deployment.runtime.sleep(0.05)
            assert prof._stacks == {}, i
            deployment.recover(client)
            deployment.recover(server)
            await deployment.runtime.sleep(0.05)

    deployment.run_scenario(rounds())
    assert parked == [1] * 100
    assert prof._stacks == {}
    calls = {s.label: s.calls for s in prof.handler_sites()}
    assert calls["Synchronous_Call:SynchronousCall.msg_from_user"] == 100
    deployment.shutdown()


#: ``collapsed()``, ``handler_sites()`` rows and the deterministic
#: ``obs.profile.*`` gauges of ``python -m repro report sharded-kv``
#: (heartbeat membership, one crash, one coordinator-kill migration),
#: recorded with the flat per-exit path table the context tree replaced.
#: Floats compare with ``==``.  Not regenerable from this tree: they are
#: the other implementation's output.
#:
#: Since ``MSG_FROM_NETWORK`` handlers declare the message kinds they act
#: on, a handler site counts only the arrivals of its kinds.  The six
#: ``msg_from_net``-style counts below were re-derived on that
#: implementation by bracketing only the invocations whose ``msg.type``
#: was among the handler's declared kinds: of the 1016 arrivals (343
#: CALL, 337 REPLY, 336 ACK), RPC Main's two handlers and Unique
#: Execution's ``admit_call`` now count CALLs only (1016 -> 343, 908 ->
#: 235, 908 -> 235), Acceptance and Collation REPLYs only (908 -> 337,
#: 805 -> 234) and Reliable Communication REPLYs and ACKs (1016 -> 673).
#: Unique Execution's ``msg_from_net`` acts on all three kinds and keeps
#: 1016.  Every virtual-time figure, the collapsed stacks and the gauges
#: did not move: the skipped invocations were returns taking no time.
REPORT_COLLAPSED = """\
Acceptance:Acceptance.msg_from_net 0
Acceptance:Acceptance.server_failure 0
Collation:Collation.msg_from_net 0
RPC_Main:RPCMain.drop_in_progress_duplicates 0
RPC_Main:RPCMain.msg_from_net 0
RPC_Main:RPCMain.msg_from_net;Unique_Execution:UniqueExecution.handle_reply 0
RPC_Main:RPCMain.msg_from_user 0
RPC_Main:RPCMain.msg_from_user;Acceptance:Acceptance.handle_new_call 0
RPC_Main:RPCMain.msg_from_user;Bounded_Termination:BoundedTermination.handle_new_call 0
RPC_Main:RPCMain.msg_from_user;Collation:Collation.handle_new_call 0
RPC_Main:RPCMain.msg_from_user;Reliable_Communication:ReliableCommunication.handle_new_call 0
Reliable_Communication:ReliableCommunication.handle_timeout 0
Reliable_Communication:ReliableCommunication.msg_from_net 0
Synchronous_Call:SynchronousCall.msg_from_user 4371839
Unique_Execution:UniqueExecution.admit_call 0
Unique_Execution:UniqueExecution.msg_from_net 0"""
REPORT_HANDLER_SITES = [
    ("Synchronous_Call:SynchronousCall.msg_from_user", 136,
     4.371839014379124, 4.371839014379124),
    ("Acceptance:Acceptance.handle_new_call", 136, 0.0, 0.0),
    ("Acceptance:Acceptance.msg_from_net", 337, 0.0, 0.0),
    ("Acceptance:Acceptance.server_failure", 24, 0.0, 0.0),
    ("Bounded_Termination:BoundedTermination.handle_new_call", 136,
     0.0, 0.0),
    ("Collation:Collation.handle_new_call", 136, 0.0, 0.0),
    ("Collation:Collation.msg_from_net", 234, 0.0, 0.0),
    ("RPC_Main:RPCMain.drop_in_progress_duplicates", 343, 0.0, 0.0),
    ("RPC_Main:RPCMain.msg_from_net", 235, 0.0, 0.0),
    ("RPC_Main:RPCMain.msg_from_user", 136, 0.0, 0.0),
    ("Reliable_Communication:ReliableCommunication.handle_new_call", 136,
     0.0, 0.0),
    ("Reliable_Communication:ReliableCommunication.handle_timeout", 1224,
     0.0, 0.0),
    ("Reliable_Communication:ReliableCommunication.msg_from_net", 673,
     0.0, 0.0),
    ("Unique_Execution:UniqueExecution.admit_call", 235, 0.0, 0.0),
    ("Unique_Execution:UniqueExecution.handle_reply", 235, 0.0, 0.0),
    ("Unique_Execution:UniqueExecution.msg_from_net", 1016, 0.0, 0.0),
]
REPORT_GAUGES = {
    # 5990 with the flat table, when each delivered envelope also took
    # a step of its node's receive loop; arrivals now spawn their task
    # straight from the delivery.  The only value here that moved.
    "obs.profile.steps": 3854,
    "obs.profile.handler_sites": 16,
    "obs.profile.handler_virtual": 4.371839014379124,
    "obs.profile.marshal.calls": 0, "obs.profile.marshal.bytes": 0,
    "obs.profile.unmarshal.calls": 0, "obs.profile.unmarshal.bytes": 0,
}


def test_profiler_matches_the_flat_table_on_the_report_scenario(
        monkeypatch, capsys):
    from repro.__main__ import main

    seen = []
    render = Deployment.render_report

    def capture(deployment):
        # Before ``shutdown()`` steps the cancelled tasks out.
        deployment.observatory.publish()
        seen.append((deployment.observatory.profiler,
                     deployment.metrics.snapshot()["gauges"]))
        return render(deployment)

    monkeypatch.setattr(Deployment, "render_report", capture)
    assert main(["report", "sharded-kv"]) == 0
    ((prof, gauges),) = seen
    assert prof.collapsed() == REPORT_COLLAPSED
    assert [(s.label, s.calls, s.cum, s.self_time)
            for s in prof.handler_sites()] == REPORT_HANDLER_SITES
    assert {name: gauges[name] for name in REPORT_GAUGES} == REPORT_GAUGES
    assert prof._stacks == {}
    # The step table lists kinds: the 1 223 expired timeouts are one
    # row of the report's top 8, not 1 223 one-sample rows below it.
    assert gauges["obs.profile.step_sites"] < 60
    report = capsys.readouterr().out
    top_tasks = report.split("top tasks by sampled wall clock:")[1]
    rows = [line.split()[:2] for line in top_tasks.splitlines()[1:9]]
    assert ["timeout", "samples=1223"] in rows


# ---------------------------------------------------------------------------
# The step sampler: sites per task kind, bounded by the deployment's shape
# ---------------------------------------------------------------------------

def test_task_kind_drops_only_the_trailing_sequence_number():
    from repro.obs.profiler import task_kind

    assert task_kind("node-101-msg-5532") == "node-101-msg"
    assert task_kind("node-101-msg-5532.3") == "node-101-msg"
    assert task_kind("timeout-1223") == "timeout"
    assert task_kind("cc-EVT-12") == "cc-EVT"
    assert task_kind("client-116") == "client"
    assert task_kind("drain-shard-3") == "drain-shard"
    for name in ("node-101-recv", "node-2-recv", "heartbeat@5-send",
                 "main", "nb-EVT", "-", "7", "task-"):
        assert task_kind(name) == name


def _observed_sharded_puts(n_puts):
    from repro.apps import build_sharded_kv

    deployment = Deployment(seed=3, observatory=True)
    kv = build_sharded_kv(
        deployment, 2, clients=1, servers_per_shard=1,
        spec=ServiceSpec(reliable=True, bounded=5.0, acceptance=1))

    async def scenario():
        for i in range(n_puts):
            assert (await kv.put(f"key-{i % 16}", i)).ok

    deployment.run_scenario(scenario())
    sites = deployment.observatory.profiler.step_sites()
    deployment.shutdown()
    return sites


def test_step_sites_do_not_grow_with_the_number_of_calls():
    few = _observed_sharded_puts(10)
    many = _observed_sharded_puts(40)
    assert len(few) == len(many)
    assert [s.name for s in many] != []
    assert sorted(s.name for s in few) == sorted(s.name for s in many)
    by_name = {s.name: s for s in many}
    # No node runs a receive loop: the fabric's delivery spawns each
    # arrival's task itself ...
    assert not [name for name in by_name if name.endswith("-recv")]
    # ... and a node's per-message tasks, like all expired timeouts
    # (Reliable Communication's retransmit timer fires on every call),
    # are one site each however many ran.
    assert {name for name in by_name if "-msg" in name} == {
        "node-1-msg", "node-101-msg", "node-2-msg"}
    assert by_name["node-101-msg"].samples >= 40
    assert by_name["timeout"].samples >= 40
    assert all(s.samples > 0 for s in many)


# ---------------------------------------------------------------------------
# End to end: the assembled observatory on a live deployment
# ---------------------------------------------------------------------------

def _run_observed_deployment(observatory):
    deployment = Deployment(seed=11, membership="oracle",
                            observatory=observatory)
    kv = deployment.add_service("kv", ServiceSpec(), KVStore, servers=2)
    for i in range(6):
        result = kv.call_and_run("put", {"key": f"k{i % 2}", "value": i})
        assert result.ok
    deployment.publish_runtime_stats()
    return deployment


def test_observatory_end_to_end_report():
    deployment = _run_observed_deployment(True)
    obs = deployment.observatory
    assert obs.profiler.steps_seen > 0
    assert obs.profiler.handler_sites()    # virtual time attributed
    marshal = _marshal()
    assert marshal._PROFILER is obs.profiler  # stub hook installed
    marshal.marshal({"probe": 1})
    assert obs.profiler.marshal_calls > 0
    assert deployment._slo.watermarks("kv")["p99"] > 0.0
    snap = deployment.metrics.snapshot()["gauges"]
    assert snap["obs.profile.steps"] > 0
    report = deployment.render_report()
    for header in ("kernel profile", "per-shard hot keys",
                   "SLO windows", "flight recorder"):
        assert header in report, header
    deployment.shutdown()
    assert _marshal()._PROFILER is None    # close() released the global


def test_observatory_breach_dumps_flight_tape():
    from repro.obs.observatory import ObservatoryConfig
    config = ObservatoryConfig(slo_thresholds={99: 0.0},
                               slo_min_samples=1)
    deployment = _run_observed_deployment(config)
    assert deployment._slo.breaches       # every call is over a 0s bound
    reasons = [reason for reason, _ in deployment.flight.dumps]
    assert any(reason.startswith("slo-breach:kv") for reason in reasons)
    tape = deployment.flight.format_dump()
    assert "slo-breach" in tape
    deployment.shutdown()


def test_disabled_deployment_has_no_observatory_hooks():
    deployment = Deployment(seed=11, membership="oracle")
    assert deployment.observatory is None
    assert deployment.flight is None and deployment._slo is None
    assert deployment.runtime.profiler is None
    assert deployment.fabric.pipeline.flight is None
    assert _marshal()._PROFILER is None
    assert ShardRouter(["a", "b"])._load is None
    from repro.errors import ReproError
    with pytest.raises(ReproError):
        deployment.render_report()
    deployment.shutdown()
