"""Sharding a keyspace over independently-configured services."""

import zlib

import pytest

from repro import Deployment, read_optimized, replicated_state_machine
from repro.apps import (
    KVStore,
    RingRouter,
    ShardedKV,
    ShardRouter,
    build_sharded_kv,
)
from repro.errors import ReproError
from repro.obs import MetricsRegistry


# ---------------------------------------------------------------------------
# ShardRouter
# ---------------------------------------------------------------------------


def test_router_is_deterministic_and_total():
    router = ShardRouter(["a", "b", "c"])
    keys = [f"k{i}" for i in range(100)]
    first = [router.route(k) for k in keys]
    second = [router.route(k) for k in keys]
    assert first == second
    assert set(first) <= {"a", "b", "c"}
    # CRC-32 modulo the list — independent of Python hash salting.
    assert router.shard_index("k0") == zlib.crc32(b"k0") % 3


def test_router_spreads_keys():
    router = ShardRouter([f"s{i}" for i in range(4)])
    buckets = router.partition(f"key-{i}" for i in range(400))
    assert sum(len(v) for v in buckets.values()) == 400
    assert all(len(v) > 0 for v in buckets.values())


def test_router_partition_groups_by_owner():
    router = ShardRouter(["a", "b"])
    buckets = router.partition(["x", "y", "z"])
    for name, keys in buckets.items():
        for key in keys:
            assert router.route(key) == name


def test_router_order_is_part_of_the_function():
    # Same names, different order: the index is stable, the name is not,
    # which is why clients must build routers from the same sequence.
    r1, r2 = ShardRouter(["a", "b"]), ShardRouter(["b", "a"])
    idx = r1.shard_index("x")
    assert r2.shard_index("x") == idx
    assert r1.route("x") == r1.services[idx]
    assert r2.route("x") == r2.services[idx]


def test_router_rejects_empty():
    with pytest.raises(ReproError):
        ShardRouter([])


def test_router_counts_lookups_and_per_shard_routing():
    metrics = MetricsRegistry()
    router = ShardRouter(["a", "b"], metrics=metrics)
    for i in range(10):
        router.route(f"k{i}")
    assert metrics.value("placement.router.lookups") == 10
    per_shard = [metrics.value(f"placement.router.keys_routed.{name}")
                 for name in ("a", "b")]
    assert sum(per_shard) == 10
    assert all(count > 0 for count in per_shard)


# ---------------------------------------------------------------------------
# RingRouter: the consistent-hash drop-in
# ---------------------------------------------------------------------------


def test_ring_router_same_surface_different_placement():
    ring = RingRouter(["a", "b", "c"], seed=5)
    keys = [f"k{i}" for i in range(100)]
    assert [ring.route(k) for k in keys] == [ring.route(k) for k in keys]
    for key in keys:
        assert ring.route(key) == ring.services[ring.shard_index(key)]
    buckets = ring.partition(keys)
    assert sum(len(v) for v in buckets.values()) == 100


def test_partition_does_not_count_lookup_metrics():
    # Bulk planning must not inflate the per-call routing counters that
    # the rebalancing benchmarks assert on.
    for router in (ShardRouter(["a", "b"], metrics=MetricsRegistry()),
                   RingRouter(["a", "b"], metrics=MetricsRegistry())):
        router.partition([f"k{i}" for i in range(20)])
        assert router._lookups.value == 0
        router.route("k0")
        assert router._lookups.value == 1


# ---------------------------------------------------------------------------
# ShardedKV over a live deployment
# ---------------------------------------------------------------------------


def test_sharded_kv_end_to_end():
    dep = Deployment(seed=11)
    kv = build_sharded_kv(dep, 3, spec=read_optimized(2.0),
                          servers_per_shard=1)
    writes = {f"key-{i}": i for i in range(12)}

    async def scenario():
        for key, value in writes.items():
            assert (await kv.put(key, value)).ok
        for key, value in writes.items():
            result = await kv.get(key)
            assert result.ok and result.args == value
        assert await kv.keys() == sorted(writes)
        assert (await kv.delete("key-0")).ok
        assert (await kv.get("key-0")).args is None

    dep.run_scenario(scenario())

    # Each key lives only on its owning shard.
    for name in kv.router.services:
        svc = dep.services[name]
        stored = set(svc.app(svc.server_pids[0]).data)
        expected = {k for k in writes if kv.shard_of(k) == name} - {"key-0"}
        assert stored == expected


def test_sharded_kv_per_shard_specs():
    dep = Deployment(seed=12)
    kv = build_sharded_kv(
        dep, 2,
        specs=[replicated_state_machine(2), read_optimized(2.0)],
        servers_per_shard=2)
    assert dep.services["shard-0"].spec.ordering == "total"
    assert dep.services["shard-1"].spec.ordering == "none"

    async def scenario():
        for i in range(8):
            assert (await kv.put(f"k{i}", i)).ok

    dep.run_scenario(scenario())
    # The totally-ordered shard replicated every one of its writes.
    strict = dep.services["shard-0"]
    assert strict.app(strict.server_pids[0]).data == \
        strict.app(strict.server_pids[1]).data


def test_sharded_kv_shares_client_nodes_across_shards():
    dep = Deployment(seed=13)
    kv = build_sharded_kv(dep, 3, spec=read_optimized(2.0), clients=2)
    pids = dep.services["shard-0"].client_pids
    for name in kv.router.services:
        assert dep.services[name].client_pids == pids
    # A second view over the same router works from the other client.
    other = ShardedKV(dep, pids[1], kv.router)

    async def scenario():
        assert (await kv.put("a", 1)).ok
        result = await other.get("a")
        assert result.ok and result.args == 1

    dep.run_scenario(scenario())


def test_build_sharded_kv_validates_arguments():
    dep = Deployment()
    with pytest.raises(ReproError):
        build_sharded_kv(dep, 0)
    with pytest.raises(ReproError):
        build_sharded_kv(dep, 3, specs=[read_optimized()])


def test_ring_router_is_built_and_a_modulo_router_still_routes():
    dep = Deployment(seed=14)
    kv = build_sharded_kv(dep, 2, spec=read_optimized(2.0))
    assert isinstance(kv.router, RingRouter)
    # The modulo baseline is no longer a build option; a hand-built
    # view over the same services keeps that path exercised.
    legacy = ShardedKV(dep, kv.client_pid,
                       ShardRouter(kv.router.services,
                                   metrics=dep.metrics))

    async def scenario():
        assert (await legacy.put("x", 1)).ok
        result = await legacy.get("x")
        assert result.ok and result.args == 1

    dep.run_scenario(scenario())
    # Both router kinds feed the shared lookup counter.
    assert dep.metrics.value("placement.router.lookups") >= 2
