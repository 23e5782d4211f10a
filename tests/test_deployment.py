"""The deployment plane: many named services on one simulated fabric.

Covers the multi-service refactor: co-hosted composites with *different*
ServiceSpecs on one node, service-key routing in the node's arrival
table, name resolution
to the service's group at call time, rebinding after
reconfiguration, pid-collision validation, per-service metrics and span
labels, and the shared per-node heartbeat detector.
"""

import io

import pytest

from repro import (
    Deployment,
    Group,
    ServiceCluster,
    ServiceSpec,
    read_optimized,
    replicated_state_machine,
)
from repro.apps import CounterApp, KVStore
from repro.core.deployment import CLIENT_BASE_PID
from repro.core.messages import NetMsg, NetOp
from repro.membership.detector import Heartbeat
from repro.errors import (
    BindingError,
    ConfigurationError,
    DependencyError,
    ReproError,
)


def two_service_deployment(**kwargs):
    """Two differently-specced services sharing server node 2 and one
    client node: the tentpole configuration."""
    dep = Deployment(seed=5, **kwargs)
    orders = dep.add_service("orders", replicated_state_machine(2),
                             KVStore, servers=[1, 2], clients=[101])
    sessions = dep.add_service("sessions", read_optimized(2.0),
                               KVStore, servers=[2, 3], clients=[101])
    return dep, orders, sessions


# ---------------------------------------------------------------------------
# Co-hosting: one node, several composites, different semantics
# ---------------------------------------------------------------------------


def test_two_services_share_a_node_with_different_specs():
    dep, orders, sessions = two_service_deployment()

    # Node 2 carries a composite for each service; they are distinct
    # objects with distinct specs.
    assert orders.grpc(2) is not sessions.grpc(2)
    assert orders.spec.ordering == "total"
    assert sessions.spec.ordering == "none"
    assert orders.spec != sessions.spec

    async def scenario():
        r1 = await dep.call(101, "orders", "put",
                            {"key": "o1", "value": 1})
        r2 = await dep.call(101, "sessions", "put",
                            {"key": "s1", "value": 2})
        assert r1.ok and r2.ok

    dep.run_scenario(scenario())

    # Each write landed in the right application on the shared node.
    assert dep.services["orders"].app(2).data == {"o1": 1}
    assert dep.services["sessions"].app(2).data == {"s1": 2}
    # And never leaked into the other service's replicas.
    assert dep.services["orders"].app(1).data == {"o1": 1}
    assert dep.services["sessions"].app(3).data == {"s1": 2}


def test_service_key_routes_wire_messages():
    dep, orders, sessions = two_service_deployment()
    node = dep.nodes[2]
    assert node.route(NetMsg(NetOp.ACK, service="orders")) is orders.grpc(2)
    assert node.route(NetMsg(NetOp.ACK, service="sessions")) \
        is sessions.grpc(2)


def _stray_call():
    return NetMsg(NetOp.CALL, id=999, op="put",
                  args={"key": "stray", "value": 1},
                  server=Group("sessions", [1]), sender=101, inc=1,
                  client=101)


def test_a_message_for_a_service_not_hosted_here_is_dropped():
    """Node 1 hosts only ``orders``: a ``sessions`` call sent to it is
    dropped there, not executed by ``orders``."""
    dep, orders, sessions = two_service_deployment()

    async def scenario():
        await sessions.grpc(101).net_push(1, _stray_call())
        await dep.runtime.sleep(1.0)

    dep.run_scenario(scenario())
    assert orders.app(1).data == {}
    assert dep.fabric.trace.metrics.value("net.deliver") == 1   # no reply


def test_an_unkeyed_message_reaches_no_keyed_service():
    """Every composite of a deployment claims its own service key, so a
    wire message stamped with none has no claimant on any node."""
    dep, orders, sessions = two_service_deployment()

    async def scenario():
        await dep.nodes[101].transport.push([1, 2, 3], _stray_call())
        await dep.runtime.sleep(1.0)

    dep.run_scenario(scenario())
    for svc in (orders, sessions):
        assert all(app.data == {} for app in svc.apps.values())
    assert dep.fabric.trace.metrics.value("net.deliver") == 3   # no reply


def test_services_with_different_apps():
    dep = Deployment(seed=1)
    dep.add_service("kv", read_optimized(), KVStore,
                    servers=[1], clients=[101])
    dep.add_service("ctr", read_optimized(), CounterApp,
                    servers=[1], clients=[101])

    async def scenario():
        r1 = await dep.call(101, "kv", "put", {"key": "k", "value": 9})
        r2 = await dep.call(101, "ctr", "inc", {"amount": 5})
        assert r1.ok and r2.ok

    dep.run_scenario(scenario())
    assert dep.services["kv"].app(1).data == {"k": 9}
    assert dep.services["ctr"].app(1).value == 5


# ---------------------------------------------------------------------------
# Configuration validation (the latent pid-collision bug)
# ---------------------------------------------------------------------------


def test_cluster_rejects_server_count_into_client_range():
    with pytest.raises(ConfigurationError):
        ServiceCluster(read_optimized(), KVStore,
                       n_servers=CLIENT_BASE_PID)


def test_deployment_rejects_server_pid_in_client_range():
    dep = Deployment()
    with pytest.raises(ConfigurationError):
        dep.add_service("svc", read_optimized(), KVStore,
                        servers=[1, CLIENT_BASE_PID], clients=[200])


def test_deployment_rejects_pid_as_both_server_and_client():
    dep = Deployment()
    with pytest.raises(ConfigurationError):
        dep.add_service("svc", read_optimized(), KVStore,
                        servers=[1, 2], clients=[2])


def test_duplicate_service_name_rejected():
    dep = Deployment()
    svc = dep.add_service("svc", read_optimized(), KVStore,
                          servers=[1], clients=[101])
    with pytest.raises(BindingError):
        dep.add_service("svc", read_optimized(), KVStore,
                        servers=[2], clients=[101])
    # No silent overwrite: the name still resolves to the first group.
    assert dep.service("svc") is svc
    assert svc.group.members == (1,)


def test_repeated_pid_rejected_before_anything_is_wired():
    dep = Deployment()
    for servers, clients in (([1, 1], [101]), ([1, 2], [101, 101])):
        with pytest.raises(ConfigurationError):
            dep.add_service("a", read_optimized(), KVStore,
                            servers=servers, clients=clients)
        assert dep.services == {} and dep.nodes == {}
    # The corrected retry is not poisoned by the rejected ones.
    svc = dep.add_service("a", read_optimized(), KVStore,
                          servers=[1, 2], clients=[101])
    assert svc.call_and_run("put", {"key": "k", "value": 1}).ok


def test_illegal_spec_rejected_before_any_node_is_made():
    dep = Deployment(seed=1)
    with pytest.raises(DependencyError):
        dep.add_service("x", ServiceSpec(unique=True, reliable=False),
                        KVStore, servers=2)
    assert dep.services == {} and dep.nodes == {}
    # The rejected call allocated no pids.
    svc = dep.add_service("x", ServiceSpec(), KVStore, servers=2)
    assert svc.server_pids == [1, 2]


def test_unknown_membership_mode_rejected():
    with pytest.raises(ReproError):
        Deployment(membership="gossip")


# ---------------------------------------------------------------------------
# Name resolution: a service name resolves to its group on every call
# ---------------------------------------------------------------------------


def test_call_to_unknown_service_raises():
    dep, _, _ = two_service_deployment()
    with pytest.raises(BindingError):
        dep.service("billing")
    with pytest.raises(BindingError):
        dep.rebind("billing", [1])

    async def scenario():
        with pytest.raises(BindingError):
            await dep.call(101, "billing", "put", {})

    dep.run_scenario(scenario())


def test_call_from_non_participant_node_raises():
    dep = Deployment(seed=2)
    dep.add_service("a", read_optimized(), KVStore,
                    servers=[1], clients=[101])
    dep.add_service("b", read_optimized(), KVStore,
                    servers=[2], clients=[102])

    async def scenario():
        # 102 participates in "b" only; it has no composite for "a".
        with pytest.raises(BindingError):
            await dep.call(102, "a", "get", {"key": "x"})

    dep.run_scenario(scenario())


def test_rebind_resolves_at_call_time():
    dep = Deployment(seed=3)
    svc = dep.add_service("kv", read_optimized(), KVStore,
                          servers=[1, 2, 3], clients=[101])

    async def before():
        result = await dep.call(101, "kv", "put", {"key": "k", "value": 1})
        assert result.ok

    dep.run_scenario(before())

    # Reconfigure: node 3 leaves the service. Later calls resolve the
    # name to the new group.
    new_group = dep.rebind("kv", [1, 2])
    assert svc.group == new_group
    assert dep.service("kv").group.members == (1, 2)

    async def after():
        result = await dep.call(101, "kv", "get", {"key": "k"})
        assert result.ok and result.args == 1

    dep.run_scenario(after())
    # Node 3 saw the first write but none of the post-rebind traffic.
    assert dep.metrics.value("service.kv.calls") == 2


def test_rebind_to_non_member_rejected():
    dep = Deployment()
    dep.add_service("kv", read_optimized(), KVStore,
                    servers=[1, 2], clients=[101])
    with pytest.raises(BindingError):
        dep.rebind("kv", [1, 7])       # 7 runs no composite
    with pytest.raises(BindingError):
        dep.rebind("kv", [1, 101])     # 101 is a client, not a server


def test_rebind_accepts_explicit_group():
    dep = Deployment()
    dep.add_service("kv", read_optimized(), KVStore,
                    servers=[1, 2], clients=[101])
    group = dep.rebind("kv", Group("kv", [2]))
    assert group.members == (2,)


def test_rebind_with_calls_in_flight():
    """In-flight calls complete against the group they resolved; calls
    issued after the rebind resolve the new one.  Nothing demux-misses
    or errors in between."""
    dep = Deployment(seed=6)
    dep.add_service("kv", read_optimized(5.0),
                    lambda: KVStore(op_delay=0.4),
                    servers=[1, 2, 3], clients=[101])
    results = []

    async def caller(i):
        results.append(await dep.call(101, "kv", "put",
                                      {"key": f"k{i}", "value": i}))

    async def scenario():
        tasks = [dep.runtime.spawn(caller(i), name=f"caller-{i}")
                 for i in range(6)]
        await dep.runtime.sleep(0.1)       # everyone mid-execution
        dep.rebind("kv", [1, 2])
        for i in range(6, 9):              # post-rebind traffic
            tasks.append(dep.runtime.spawn(caller(i), name=f"caller-{i}"))
        for task in tasks:
            await dep.runtime.join(task)

    dep.run_scenario(scenario(), extra_time=2.0)
    assert len(results) == 9
    assert all(r.ok for r in results)
    # The pre-rebind writes reached the old group's members; node 3 saw
    # none of the post-rebind traffic.
    late = {f"k{i}" for i in range(6, 9)}
    assert late <= set(dep.services["kv"].app(1).data)
    assert late & set(dep.services["kv"].app(3).data) == set()


# ---------------------------------------------------------------------------
# Per-service observability labels
# ---------------------------------------------------------------------------


def test_per_service_metrics_labels():
    dep, _, _ = two_service_deployment()

    async def scenario():
        await dep.call(101, "orders", "put", {"key": "a", "value": 1})
        await dep.call(101, "sessions", "put", {"key": "b", "value": 2})
        await dep.call(101, "sessions", "get", {"key": "b"})

    dep.run_scenario(scenario())

    assert dep.metrics.value("service.orders.calls") == 1
    assert dep.metrics.value("service.sessions.calls") == 2
    assert dep.metrics.value("service.orders.status.OK") == 1
    assert dep.metrics.value("service.sessions.status.OK") == 2
    # Executions counted per shard-service by the dispatcher.
    assert dep.metrics.value("service.orders.executions") >= 1
    assert dep.metrics.value("service.sessions.executions") >= 1
    snap = dep.metrics.snapshot()
    assert "service.orders.latency" in snap["histograms"]
    assert "service.sessions.latency" in snap["histograms"]


def test_per_service_span_labels():
    dep, _, _ = two_service_deployment(obs=True)

    async def scenario():
        await dep.call(101, "orders", "put", {"key": "a", "value": 1})
        await dep.call(101, "sessions", "get", {"key": "a"})

    dep.run_scenario(scenario())

    labels = {s.attrs.get("service") for s in dep.obs.spans
              if s.name == "rpc.call"}
    assert labels == {"orders", "sessions"}
    # Server-side spans carry the label too.
    exec_labels = {s.attrs.get("service") for s in dep.obs.spans
                   if s.name == "server.execute"}
    assert "orders" in exec_labels
    # The JSONL exporter surfaces it.
    out = io.StringIO()
    dep.export_trace(out)
    assert '"service": "orders"' in out.getvalue()


# ---------------------------------------------------------------------------
# Shared per-node heartbeat membership
# ---------------------------------------------------------------------------


def test_heartbeat_detector_shared_across_cohosted_services():
    dep, orders, sessions = two_service_deployment(
        membership="heartbeat", heartbeat_interval=0.05, suspect_after=3)
    # One detector per node, not per composite.
    assert set(dep._membership.detectors) == {1, 2, 3, 101}
    # Node 2 hosts two composites, both fed by the same detector.
    detector = dep._membership.detectors[2]
    assert len(detector.listeners) == 2


def test_composites_and_detectors_push_straight_to_their_transport():
    """Each node's table holds one claim per hosted service and one for
    heartbeats, and every claimant's ``lower`` is the transport."""
    dep, orders, sessions = two_service_deployment(
        membership="heartbeat", heartbeat_interval=0.05, suspect_after=3)
    node = dep.nodes[2]
    assert set(node.routes) == {(NetMsg, "orders"), (NetMsg, "sessions"),
                                (Heartbeat, "")}
    assert dep._membership.detectors[2].lower is node.transport
    for svc in (orders, sessions):
        for pid, grpc in svc.grpcs.items():
            assert grpc.lower is dep.nodes[pid].transport
        for pid, dispatcher in svc.dispatchers.items():
            assert dispatcher.lower is svc.grpc(pid)
            assert svc.grpc(pid).upper is dispatcher


def test_heartbeat_suspicion_fans_out_to_all_cohosted_composites():
    dep, orders, sessions = two_service_deployment(
        membership="heartbeat", heartbeat_interval=0.05, suspect_after=3)
    dep.settle(0.5)            # everyone alive and seen
    dep.crash(3)               # a "sessions" server dies
    dep.settle(1.0)            # heartbeats go missing -> suspicion
    # Every composite on every live node dropped 3 from its view.
    for svc in (orders, sessions):
        for pid, grpc in svc.grpcs.items():
            if pid == 3:
                continue
            assert 3 not in grpc.members


def test_services_added_after_start_join_heartbeat_stream():
    dep = Deployment(seed=4, membership="heartbeat",
                     heartbeat_interval=0.05, suspect_after=3)
    dep.add_service("a", read_optimized(), KVStore,
                    servers=[1, 2], clients=[101])
    dep.settle(0.3)
    dep.add_service("b", read_optimized(), KVStore,
                    servers=[2, 3], clients=[101])
    dep.settle(0.5)
    # The late node's detector is live and nobody suspects anybody.
    for pid, detector in dep._membership.detectors.items():
        assert detector._suspected == set(), f"node {pid}"

    async def scenario():
        result = await dep.call(101, "b", "put", {"key": "k", "value": 1})
        assert result.ok

    dep.run_scenario(scenario())


# ---------------------------------------------------------------------------
# ServiceCluster builds a one-service deployment and returns the service
# ---------------------------------------------------------------------------


def test_cluster_is_a_one_service_deployment():
    cluster = ServiceCluster(read_optimized(), KVStore, n_servers=2)
    assert isinstance(cluster.deployment, Deployment)
    assert set(cluster.deployment.services) == {"servers"}
    assert cluster is cluster.deployment.service("servers")
    assert cluster.group == Group("servers", [1, 2])
    assert cluster.client_pids == [CLIENT_BASE_PID]
    result = cluster.call_and_run("put", {"key": "k", "value": 1})
    assert result.ok
    # Its calls surface in the per-service metric namespace.
    assert cluster.deployment.metrics.value("service.servers.calls") == 1


def test_cluster_still_rejects_zero_servers():
    with pytest.raises(ReproError):
        ServiceCluster(ServiceSpec(), KVStore, n_servers=0)


def test_call_instruments_count_every_call_its_status_and_latency():
    """``Deployment.call`` reads the kernel clock and bumps its counters
    in place; a seeded lossy run pins the names and the values (taken
    when it still went through ``runtime.now()`` and ``Counter.inc``)."""
    from repro import LinkSpec

    dep = Deployment(seed=11, default_link=LinkSpec(delay=0.01,
                                                    jitter=0.005, loss=0.3))
    svc = dep.add_service("kv", ServiceSpec(unique=True, bounded=0.03,
                                            retrans_timeout=0.05),
                          KVStore, servers=3, clients=2)

    async def lane(pid):
        for i in range(10):
            await dep.call(pid, "kv", "put", {"key": f"k{pid}-{i}",
                                              "value": i})

    lanes = [dep.spawn_client(pid, lane(pid)) for pid in svc.client_pids]

    async def main():
        for handle in lanes:
            await dep.runtime.join(handle)

    dep.run_scenario(main(), extra_time=0.5)
    metrics = dep.metrics
    assert {name: metrics.value(name)
            for name in metrics.counter_names("service.kv.")} == {
        "service.kv.calls": 20, "service.kv.executions": 47,
        "service.kv.status.OK": 19, "service.kv.status.TIMEOUT": 1}
    latency = metrics.histogram("service.kv.latency")
    assert latency.count == 20
    assert repr(latency.total) == "0.48623574881838116"
    assert repr(latency.percentile(50)) == "0.024226218545844773"
