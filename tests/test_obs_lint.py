"""The metric-name catalog and the lints that hold code to it."""

from repro.analysis import (
    METRIC_NAMESPACES,
    check_metric_emitters,
    check_metric_names,
    known_metric_prefixes,
)


# ----------------------------------------------------------------------
# The metric-name catalog
# ----------------------------------------------------------------------

def test_metric_catalog_includes_the_wire_pipeline_namespaces():
    for prefix in ("net.batch.", "net.queue.", "net.fastlane.",
                   "net.", "handler.", "kernel.",
                   "service.", "placement."):
        assert prefix in METRIC_NAMESPACES
    # Longest-first so the specific wire namespaces win over "net.".
    prefixes = known_metric_prefixes()
    assert prefixes.index("net.batch.") < prefixes.index("net.")


def test_metric_catalog_includes_the_observatory_namespaces():
    for prefix in ("placement.load.", "obs.profile.", "obs.slo.",
                   "obs.recorder.", "obs."):
        assert prefix in METRIC_NAMESPACES
    prefixes = known_metric_prefixes()
    assert prefixes.index("placement.load.") < prefixes.index("placement.")
    assert prefixes.index("obs.slo.") < prefixes.index("obs.")
    ok = check_metric_names(
        ["placement.load.noted", "placement.load.volume.shard-0",
         "obs.profile.steps", "obs.slo.p99.kv", "obs.recorder.notes"])
    assert ok.ok


def test_check_metric_names_accepts_and_flags():
    ok = check_metric_names(["net.batch.envelopes", "net.queue.waits",
                             "net.fastlane.sends", "net.send",
                             "service.kv.calls", "handler.RPC_Main"])
    assert ok.ok
    bad = check_metric_names(["wire.batch.envelopes", "net."])
    assert not bad.ok
    assert len(bad.violations) == 2


def test_every_catalogued_namespace_has_an_emitter():
    check_metric_emitters().raise_if_failed()


def test_emitter_lint_flags_a_namespace_nothing_emits(monkeypatch):
    monkeypatch.setitem(METRIC_NAMESPACES, "net.link.",
                        "per-link delivery counters")
    result = check_metric_emitters()
    assert not result.ok
    assert len(result.violations) == 1
    assert "'net.link.'" in result.violations[0]


def test_emitter_lint_credits_the_longest_matching_prefix(monkeypatch):
    # "net.batch.messages" emits net.batch., so a catalogued
    # "net.batch.messages." would still have no emitter of its own.
    monkeypatch.setitem(METRIC_NAMESPACES, "net.batch.messages.", "nested")
    assert check_metric_emitters().ok is False
    monkeypatch.delitem(METRIC_NAMESPACES, "net.batch.messages.")
    monkeypatch.setitem(METRIC_NAMESPACES, "net.batch.flush.", "nested")
    assert check_metric_emitters().ok   # "net.batch.flush.cap" emits it


def test_live_deployment_instruments_stay_inside_the_catalog():
    from repro import LinkSpec, ServiceCluster, ServiceSpec, WireConfig
    from repro.apps import KVStore

    cluster = ServiceCluster(
        ServiceSpec(bounded=5.0, unique=True), KVStore, n_servers=3,
        default_link=LinkSpec(delay=0.005, jitter=0.0),
        membership="heartbeat",
        wire=WireConfig(batch=True, queue_depth=8))
    cluster.call_and_run("put", {"key": "k", "value": 1}, extra_time=0.3)
    cluster.deployment.publish_runtime_stats()
    snap = cluster.deployment.metrics.snapshot()
    names = (list(snap["counters"]) + list(snap["gauges"])
             + list(snap["histograms"]))
    assert names  # something was actually instrumented
    check_metric_names(names).raise_if_failed()


def test_observatory_instruments_stay_inside_the_catalog():
    from repro import Deployment, ServiceSpec
    from repro.apps import KVStore

    deployment = Deployment(membership="oracle", observatory=True)
    kv = deployment.add_service("kv", ServiceSpec(), KVStore, servers=2)
    kv.call_and_run("put", {"key": "k", "value": 1})
    deployment.publish_runtime_stats()
    snap = deployment.metrics.snapshot()
    names = [name for kind in snap.values() for name in kind]
    # The observatory actually landed instruments in its namespaces...
    assert any(name.startswith("obs.profile.") for name in names)
    assert any(name.startswith("obs.slo.") for name in names)
    assert any(name.startswith("obs.recorder.") for name in names)
    # ...and every one of them is inside the documented catalog.
    check_metric_names(names).raise_if_failed()
    deployment.shutdown()
