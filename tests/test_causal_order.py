"""Causal Order extension: happened-before gating across clients."""

import pytest

from repro import LinkSpec, ServiceCluster, ServiceSpec
from repro.analysis import History, check, promises
from repro.apps import KVStore
from repro.errors import DependencyError

JITTERY = LinkSpec(delay=0.01, jitter=0.12)   # heavy reordering, no loss
#: Server 3's inbound links have huge delay variance, so a later call
#: can genuinely overtake an earlier one there while the client has long
#: since completed via the fast replicas.
ERRATIC = LinkSpec(delay=0.02, jitter=0.5)


def causal_spec():
    return ServiceSpec(ordering="causal", unique=True, bounded=0.0,
                       acceptance=1)


def make_cluster(spec, seed=0, n_clients=2):
    cluster = ServiceCluster(spec, KVStore, n_servers=3,
                             n_clients=n_clients, seed=seed,
                             default_link=JITTERY)
    cluster.deployment.fabric.set_links_to(3, ERRATIC)
    return cluster


def causal_micro(cluster, pid):
    return cluster.grpc(pid).micro("Causal_Order")


def cross_client_scenario(cluster):
    """A writes, hands its causal token to B, B writes."""
    a, b = cluster.client_pids

    async def scenario():
        async def a_writes():
            result = await cluster.call(a, "put",
                                        {"key": "cause", "value": 1})
            assert result.ok

        task = cluster.spawn_client(a, a_writes())
        await cluster.deployment.runtime.join(task)
        # The causal token travels out of band (e.g. inside a message
        # the application itself sent from A to B).  The control run
        # (no Causal Order configured) has no token to pass.
        if cluster.grpc(a).has_micro("Causal_Order"):
            causal_micro(cluster, b).join(causal_micro(cluster, a).token())

        async def b_writes():
            result = await cluster.call(b, "put",
                                        {"key": "effect", "value": 2})
            assert result.ok

        task = cluster.spawn_client(b, b_writes())
        await cluster.deployment.runtime.join(task)

    cluster.deployment.run_scenario(scenario(), extra_time=3.0)


def order_violations(cluster):
    violations = 0
    for pid in cluster.server_pids:
        keys = [k for _, k, _ in cluster.app(pid).apply_log]
        if "cause" in keys and "effect" in keys:
            if keys.index("effect") < keys.index("cause"):
                violations += 1
        elif "effect" in keys and "cause" not in keys:
            violations += 1
    return violations


def test_without_causal_order_effects_can_precede_causes():
    # Control: with acceptance=1, A stops waiting after the first reply,
    # so B's dependent write can overtake A's at the laggard replicas.
    total = 0
    for seed in range(8):
        spec = causal_spec().with_(ordering="none")
        cluster = make_cluster(spec, seed=seed)
        cross_client_scenario(cluster)
        total += order_violations(cluster)
    assert total > 0


def test_causal_order_never_applies_effect_before_cause():
    for seed in range(8):
        cluster = make_cluster(causal_spec(), seed=seed)
        cross_client_scenario(cluster)
        assert order_violations(cluster) == 0, f"seed={seed}"
        # Both writes eventually execute everywhere.
        for pid in cluster.server_pids:
            keys = [k for _, k, _ in cluster.app(pid).apply_log]
            assert keys == ["cause", "effect"], f"seed={seed} {keys}"


def test_own_calls_are_causally_chained():
    # A client's later calls depend on its earlier completed calls,
    # giving per-session ordering even with acceptance=1 and jitter.
    cluster = make_cluster(causal_spec(), seed=3, n_clients=1)
    client = cluster.client
    history = History()

    async def put(i):
        args = {"key": f"k{i}", "value": i}
        history.end(history.invoke(client, args),
                    await cluster.call(client, "put", args))

    async def scenario():
        for i in range(5):
            task = cluster.spawn_client(client, put(i))
            await cluster.deployment.runtime.join(task)

    cluster.deployment.run_scenario(scenario(), extra_time=3.0)
    assert all(call.result.ok for call in history.calls)
    # Issue order at every server, and every call reached every server.
    check(history.read(cluster.dispatchers),
          promises(causal_spec())).raise_if_failed()
    assert [len(order) for order in history.executed.values()] == [5] * 3


def test_parked_calls_drain():
    cluster = make_cluster(causal_spec(), seed=1)
    cross_client_scenario(cluster)
    for pid in cluster.server_pids:
        assert causal_micro(cluster, pid).parked == 0
        assert causal_micro(cluster, pid).executed_count == 2


def test_token_is_frozen_and_joinable():
    cluster = make_cluster(causal_spec(), seed=0)
    micro = causal_micro(cluster, cluster.client_pids[0])
    token = micro.token()
    assert token == frozenset()
    other = causal_micro(cluster, cluster.client_pids[1])
    other.join(frozenset({(1, 1, 7)}))
    assert (1, 1, 7) in other.token()


def test_causal_requires_reliable():
    with pytest.raises(DependencyError):
        ServiceSpec(ordering="causal", reliable=False).build()


def test_deps_survive_retransmission():
    from repro.faults import calls_to, drop_first

    spec = causal_spec().with_(acceptance=3)
    cluster = ServiceCluster(spec, KVStore, n_servers=3, n_clients=2,
                             seed=2,
                             default_link=LinkSpec(delay=0.01, jitter=0.0))
    a, b = cluster.client_pids
    # Server 3 misses B's first transmission; the retransmission must
    # still carry the dependency annotation.
    fault = drop_first(cluster.deployment.fabric, 1, calls_to(3))

    async def scenario():
        task = cluster.spawn_client(a, _put(cluster, a, "cause", 1))
        await cluster.deployment.runtime.join(task)
        fault.dropped = 0   # arm for B's call specifically
        causal_micro(cluster, b).join(causal_micro(cluster, a).token())
        task = cluster.spawn_client(b, _put(cluster, b, "effect", 2))
        await cluster.deployment.runtime.join(task)

    cluster.deployment.run_scenario(scenario(), extra_time=2.0)
    keys3 = [k for _, k, _ in cluster.app(3).apply_log]
    assert keys3 == ["cause", "effect"]


def _put(cluster, pid, key, value):
    async def inner():
        result = await cluster.call(pid, "put", {"key": key,
                                                 "value": value})
        assert result.ok
    return inner()
