"""Watching one call: the span recorder answers "what did this call do".

Issue, every copy's arrival, each server's execution and the client's
resumption all show in the call's span tree (``obs=True``), and
recording it changes nothing the call does.
"""

import pytest

from repro import LinkSpec, ServiceCluster, ServiceSpec
from repro.apps import KVStore

FAST = LinkSpec(delay=0.005, jitter=0.0)


def traced_cluster(**kwargs):
    spec = kwargs.pop("spec", ServiceSpec(acceptance=3, bounded=5.0,
                                          unique=True))
    return ServiceCluster(spec, KVStore, n_servers=3, default_link=FAST,
                          obs=True, **kwargs)


def call_spans(cluster, result):
    """The spans of ``result``'s call, in start order."""
    root = next(s for s in cluster.deployment.obs.roots()
                if s.attrs.get("call_id") == result.id)
    return root, sorted((s for s in cluster.deployment.obs.spans
                         if s.trace == root.trace),
                        key=lambda s: s.start)


def named(spans, name):
    return [s for s in spans if s.name == name]


def test_timeline_covers_the_call_lifecycle():
    cluster = traced_cluster()
    result = cluster.call_and_run("put", {"key": "k", "value": 1},
                                  extra_time=0.3)
    assert result.ok
    root, spans = call_spans(cluster, result)
    assert spans[0] is root and root.name == "rpc.call"   # issued
    assert root.node == cluster.client
    assert len(named(spans, "msg.Call")) == 3              # one per server
    assert len(named(spans, "server.execute")) == 3
    replies = named(spans, "msg.Reply")
    assert len(replies) == 3 and {s.node for s in replies} == {
        cluster.client}                                     # back at the client
    # The client resumed once the call ended; nothing it waited on
    # started after that.
    assert root.end is not None and root.attrs["status"] == "OK"
    waited = sorted(s.start for s in spans if s.name != "msg.Reply")
    assert waited[-1] <= root.end
    # Time ordering holds along every parent link.
    by_id = {s.sid: s for s in spans}
    assert all(by_id[s.parent].start <= s.start
               for s in spans if s.parent is not None)


def test_first_execution_latency_matches_link_delay():
    cluster = traced_cluster()
    result = cluster.call_and_run("get", {"key": "k"}, extra_time=0.2)
    root, spans = call_spans(cluster, result)
    first = min(s.start for s in named(spans, "server.execute"))
    assert first - root.start == pytest.approx(0.005, abs=0.002)


def test_observer_attributes_points_to_nodes():
    cluster = traced_cluster()
    result = cluster.call_and_run("get", {"key": "k"}, extra_time=0.2)
    _, spans = call_spans(cluster, result)
    executions = named(spans, "server.execute")
    assert sorted(s.node for s in executions) == [1, 2, 3]


def test_multiple_calls_tracked_separately():
    cluster = traced_cluster()
    r1 = cluster.call_and_run("put", {"key": "a", "value": 1},
                              extra_time=0.2)
    r2 = cluster.call_and_run("put", {"key": "b", "value": 2},
                              extra_time=0.2)
    assert len(cluster.deployment.obs.roots()) == 2
    root1, spans1 = call_spans(cluster, r1)
    root2, spans2 = call_spans(cluster, r2)
    assert root1.trace != root2.trace
    assert named(spans1, "server.execute") and named(spans2,
                                                     "server.execute")
    assert not {s.sid for s in spans1} & {s.sid for s in spans2}


def test_format_timeline_is_readable():
    cluster = traced_cluster()
    result = cluster.call_and_run("get", {"key": "k"}, extra_time=0.2)
    root, _ = call_spans(cluster, result)
    text = cluster.deployment.format_flame(root.trace)
    assert "rpc.call" in text and "server.execute" in text
    assert "ms" in text


def test_observer_does_not_change_behavior():
    """The same seeded run with and without tracing produces identical
    application state and network traffic counts."""
    def run(obs):
        cluster = ServiceCluster(
            ServiceSpec(acceptance=3, bounded=5.0, unique=True),
            KVStore, n_servers=3, seed=7,
            default_link=LinkSpec(delay=0.01, jitter=0.01, loss=0.1),
            obs=obs)
        for i in range(5):
            cluster.call_and_run("put", {"key": f"k{i}", "value": i},
                                 extra_time=0.3)
        states = [cluster.app(pid).data for pid in cluster.server_pids]
        return states, cluster.deployment.metrics.snapshot()["counters"]

    plain_states, plain_counters = run(False)
    traced_states, traced_counters = run(True)
    assert plain_states == traced_states
    net = {name: value for name, value in plain_counters.items()
           if name.startswith("net.")}
    assert net and net == {name: value for name, value
                           in traced_counters.items()
                           if name.startswith("net.")}
