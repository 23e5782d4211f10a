"""The observability layer: span trees, event records, metrics, export.

The tentpole scenario: a group RPC over five servers on lossy links must
produce ONE connected span tree per call — client root, per-transmission
send events, per-server execute spans, reply dispatches — with every
retransmission attributed to Reliable Communication.  And with the layer
disabled, the instrumented code paths must emit nothing at all.
"""

import io
import json

import pytest

from repro import LinkSpec, ServiceCluster, ServiceSpec
from repro.apps import KVStore
from repro.core.messages import NetMsg, NetOp
from repro.obs import (
    MetricsRegistry,
    Recorder,
    format_flame,
    read_jsonl,
    span_trees,
    to_jsonl,
)

#: 25% loss + seed 0 deterministically loses a few CALLs/replies, forcing
#: Reliable Communication to retransmit (the sim replays draws exactly).
LOSSY = LinkSpec(delay=0.01, jitter=0.002, loss=0.25)


def lossy_cluster(obs=True, seed=0, spec=ServiceSpec(acceptance=5,
                                                      unique=True)):
    return ServiceCluster(spec, KVStore, n_servers=5, seed=seed,
                          default_link=LOSSY, obs=obs)


@pytest.fixture(scope="module")
def traced():
    """One traced call over the lossy 5-server cluster (module-shared:
    the scenario is deterministic and the tests only read)."""
    cluster = lossy_cluster()
    result = cluster.call_and_run("put", {"key": "k", "value": 1},
                                  extra_time=1.0)
    assert result.ok
    return cluster, result


# ----------------------------------------------------------------------
# Span-tree shape
# ----------------------------------------------------------------------

def test_one_connected_tree_per_call(traced):
    cluster, result = traced
    rec = cluster.deployment.obs
    # Every span of the run belongs to a single trace with a single root.
    traces = {s.trace for s in rec.spans}
    assert len(traces) == 1
    roots = rec.roots()
    assert len(roots) == 1
    assert roots[0].name == "rpc.call"
    assert roots[0].attrs["status"] == "OK"
    assert roots[0].duration > 0

    # ... and the tree is fully connected: every non-root span's parent
    # exists in the same trace.
    by_sid = {s.sid: s for s in rec.spans}
    for span in rec.spans:
        if span.parent is not None:
            assert span.parent in by_sid
            assert by_sid[span.parent].trace == span.trace


def test_every_server_executed_under_the_root(traced):
    cluster, _ = traced
    rec = cluster.deployment.obs
    execs = [s for s in rec.spans if s.name == "server.execute"]
    assert len(execs) == 5
    assert {s.node for s in execs} == {1, 2, 3, 4, 5}
    # Each execute sits under that server's msg.Call dispatch span.
    by_sid = {s.sid: s for s in rec.spans}
    for span in execs:
        assert by_sid[span.parent].name == "msg.Call"
        assert by_sid[span.parent].node == span.node


def test_retransmissions_attributed_to_reliable_communication(traced):
    cluster, _ = traced
    rec = cluster.deployment.obs
    # The scenario actually lost packets.
    assert cluster.deployment.metrics.value("net.drop-loss") > 0
    retrans = [s for s in rec.spans
               if s.name == "rpc.send" and s.attrs.get("retransmit")]
    assert retrans  # losses forced at least one retransmission
    assert all(s.attrs["micro"] == "Reliable_Communication"
               for s in retrans)
    # Retransmits hang off the client's root, like the initial send.
    root = rec.roots()[0]
    assert all(s.parent == root.sid for s in retrans)
    initial = [s for s in rec.spans
               if s.name == "rpc.send" and not s.attrs.get("retransmit")]
    assert len(initial) == 1 and initial[0].attrs["micro"] == "RPC_Main"


def test_replies_nest_under_their_server_subtree(traced):
    cluster, _ = traced
    rec = cluster.deployment.obs
    by_sid = {s.sid: s for s in rec.spans}
    replies = [s for s in rec.spans if s.name == "msg.Reply"]
    assert replies  # at least one reply reached the client
    for span in replies:
        assert span.node == cluster.client
        assert by_sid[span.parent].name == "server.execute"


def test_handler_records_cover_the_composition(traced):
    cluster, _ = traced
    rec = cluster.deployment.obs
    handlers = [e for e in rec.events if e.kind == "handler"]
    assert handlers
    owners = {e.fields["owner"] for e in handlers}
    # Every micro-protocol of this composition did traced work.
    assert {"RPC_Main", "Reliable_Communication", "Synchronous_Call",
            "Acceptance", "Collation", "Unique_Execution"} <= owners
    # ... and the per-owner histograms aggregate the same records.
    for owner in owners:
        hist = rec.metrics.histogram(f"handler.{owner}")
        assert hist.count == sum(1 for e in handlers
                                 if e.fields["owner"] == owner)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------

def test_network_counters_live_in_the_registry(traced):
    dep = traced[0].deployment
    assert dep.metrics is dep.obs.metrics
    assert dep.fabric.trace.metrics is dep.metrics
    for kind in ("send", "drop-loss", "deliver"):
        assert dep.metrics.value(f"net.{kind}") > 0


def test_runtime_stats_publish_as_gauges(traced):
    cluster, _ = traced
    cluster.deployment.publish_runtime_stats()
    snap = cluster.deployment.metrics.snapshot()
    assert snap["gauges"]["kernel.steps_executed"] > 0
    assert snap["gauges"]["kernel.tasks_spawned"] > 0
    assert snap["gauges"]["kernel.timers_fired"] > 0


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------

def test_jsonl_roundtrip_reconstructs_the_tree(traced):
    cluster, _ = traced
    buf = io.StringIO()
    n = cluster.deployment.export_trace(buf)
    lines = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert len(lines) == n
    spans = [l for l in lines if l["t"] == "span"]
    assert len(spans) == len(cluster.deployment.obs.spans)
    roots = [l for l in spans if l["parent"] is None]
    assert len(roots) == 1 and roots[0]["name"] == "rpc.call"
    # read_jsonl parses what to_jsonl wrote.
    parsed = read_jsonl(io.StringIO(buf.getvalue()))
    assert len(parsed["span"]) == len(spans)
    assert parsed["metric"]  # counters rode along


def test_flame_summary_names_the_call_chain(traced):
    cluster, _ = traced
    flame = cluster.deployment.format_flame()
    for needle in ("rpc.call", "server.execute", "msg.Reply",
                   "retransmit=True", "Reliable_Communication"):
        assert needle in flame


def test_span_trees_nest_handlers(traced):
    cluster, _ = traced
    trees = span_trees(cluster.deployment.obs)
    (roots,) = trees.values()
    root = roots[0]
    # NEW_RPC_CALL / CALL_FROM_USER handlers ran inside the root span.
    assert any(h.fields["event"] == "CALL_FROM_USER"
               for h in root.handlers)


# ----------------------------------------------------------------------
# Disabled mode
# ----------------------------------------------------------------------

def test_disabled_recorder_emits_nothing():
    cluster = lossy_cluster(obs=False)
    result = cluster.call_and_run("put", {"key": "k", "value": 1},
                                  extra_time=1.0)
    assert result.ok
    # No recorder was attached ...
    assert cluster.deployment.obs is None
    assert cluster.deployment.runtime.obs is None
    # ... so no handler histograms accumulated (network counters still
    # count — they are metrics, not tracing).
    assert cluster.deployment.metrics.histogram_names("handler.") == []
    assert cluster.deployment.metrics.counter_names("handler.") == []
    # No span context leaked onto the wire.
    for event in cluster.deployment.fabric.trace.events:
        msg = event.detail
        if hasattr(msg, "trace_ctx"):
            assert msg.trace_ctx() is None


def test_obs_off_by_default():
    cluster = lossy_cluster(obs=False)
    assert cluster.deployment.obs is None
    assert isinstance(cluster.deployment.metrics, MetricsRegistry)
    result = cluster.call_and_run("put", {"key": "k", "value": 1},
                                  extra_time=1.0)
    assert result.ok
    assert cluster.deployment.metrics.value("net.send") > 0


def test_behavior_identical_with_and_without_tracing():
    """Tracing must be read-only: same results, same message pattern,
    Total Order's span-carrying ORDER messages included."""
    for spec in (ServiceSpec(acceptance=5, unique=True),
                 ServiceSpec(acceptance=5, unique=True, ordering="total")):
        runs = []
        for obs in (False, True):
            cluster = lossy_cluster(obs=obs, spec=spec)
            result = cluster.call_and_run("put", {"key": "k", "value": 1},
                                          extra_time=1.0)
            dep = cluster.deployment
            runs.append((result.status, result.args,
                         dep.metrics.value("net.send"),
                         dep.metrics.value("net.drop-loss"),
                         dep.runtime.now(),
                         [cluster.app(pid).data
                          for pid in cluster.server_pids]))
        assert runs[0] == runs[1], spec


def order_sends(cluster):
    return [e.detail
            for e in cluster.deployment.fabric.trace.of_kind("send")
            if isinstance(e.detail, NetMsg)
            and e.detail.type is NetOp.ORDER]


def test_order_arrivals_are_spans_of_the_call_trace():
    """Each server's ORDER arrival is one ``msg.Order`` span in the
    call's own trace; untraced, the ORDER carries no annotations."""
    spec = ServiceSpec(acceptance=3, unique=True, ordering="total")
    cluster = ServiceCluster(spec, KVStore, n_servers=3,
                             default_link=LinkSpec(delay=0.005), obs=True)
    result = cluster.call_and_run("put", {"key": "k", "value": 1},
                                  extra_time=0.3)
    assert result.ok
    root, = cluster.deployment.obs.roots()
    orders = [s for s in cluster.deployment.obs.spans if s.name == "msg.Order"]
    assert sorted(s.node for s in orders) == cluster.server_pids
    assert {s.trace for s in orders} == {root.trace}

    plain = ServiceCluster(spec, KVStore, n_servers=3,
                           default_link=LinkSpec(delay=0.005))
    assert plain.call_and_run("put", {"key": "k", "value": 1}).ok
    assert order_sends(plain)
    assert all(msg.annotations is None for msg in order_sends(plain))


# ----------------------------------------------------------------------
# Recorder / exporter units (no cluster)
# ----------------------------------------------------------------------

def test_standalone_recorder_parenting():
    rec = Recorder()
    root = rec.start_span("root")
    rec.push_ctx(root.ctx)
    child = rec.start_span("child")
    rec.pop_ctx()
    rec.end_span(child)
    rec.end_span(root)
    assert child.trace == root.trace
    assert child.parent == root.sid
    orphanless = rec.start_span("fresh")
    assert orphanless.trace != root.trace  # new trace when no context


def test_flame_formats_standalone_recorder():
    rec = Recorder()
    span = rec.start_span("rpc.call", node=7, attrs={"op": "x"})
    rec.end_span(span)
    out = format_flame(rec)
    assert "rpc.call" in out and "node=7" in out
    buf = io.StringIO()
    assert to_jsonl(rec, buf) >= 1
