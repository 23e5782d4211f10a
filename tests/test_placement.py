"""The elastic placement plane: ring, live migration, membership-driven
rebinding.

Covers the consistent-hash ring's determinism and minimal-movement
property, the stable-backed KV shard, the four-phase key migration
(including racing writes repaired at catch-up and salvage from a dead
source's stable store), call parking across a cutover, the automatic
:class:`~repro.placement.driver.RebindDriver`, and the acceptance
scenario: a resize under steady workload with a shard killed
mid-migration, after which every acknowledged write is readable and no
key is owned by two shards.
"""

import pytest

from repro import Deployment, HashRing, ServiceSpec, build_elastic_kv
from repro.apps import StableKVStore
from repro.errors import MigrationError, PlacementError
from repro.placement import KeyMigration, ShardMove, ViewManager
from repro.placement.ring import plan_moves

KEYS = [f"key-{i}" for i in range(400)]

ELASTIC_SPEC = ServiceSpec(reliable=True, unique=True, execution="serial",
                           bounded=2.0, acceptance=1)


# ---------------------------------------------------------------------------
# HashRing
# ---------------------------------------------------------------------------


def test_ring_is_deterministic_across_builds():
    r1 = HashRing(["a", "b", "c"], vnodes=32, seed=7)
    r2 = HashRing(["c", "a", "b"], vnodes=32, seed=7)  # order-independent
    assert [r1.route(k) for k in KEYS] == [r2.route(k) for k in KEYS]
    # The seed is part of the placement function.
    r3 = HashRing(["a", "b", "c"], vnodes=32, seed=8)
    assert any(r1.route(k) != r3.route(k) for k in KEYS)


def test_ring_spreads_keys_over_every_node():
    ring = HashRing([f"s{i}" for i in range(4)], vnodes=64)
    buckets = ring.partition(KEYS)
    assert sum(len(v) for v in buckets.values()) == len(KEYS)
    for name, keys in buckets.items():
        # 64 vnodes keep each share within loose bounds of the 25% ideal.
        assert 0.05 * len(KEYS) < len(keys) < 0.50 * len(KEYS), name


def test_ring_add_moves_only_adjacent_ranges():
    before = HashRing(["s0", "s1", "s2", "s3"], vnodes=64)
    after = before.copy()
    after.add("s4")
    moves = before.moved_keys(after, KEYS)
    # Every moved key lands on the newcomer — nothing reshuffles between
    # the old nodes — and the moved share is O(K/N), far from modulo-N's
    # near-total remap.
    assert all(new == "s4" for (_, new) in moves.values())
    assert 0 < len(moves) / len(KEYS) <= 0.45


def test_ring_remove_moves_only_the_victims_keys():
    before = HashRing(["s0", "s1", "s2", "s3"], vnodes=64)
    after = before.copy()
    after.remove("s2")
    moves = before.moved_keys(after, KEYS)
    owned = [k for k in KEYS if before.route(k) == "s2"]
    assert set(moves) == set(owned)
    assert all(old == "s2" for (old, _) in moves.values())


def test_ring_rejects_misuse():
    with pytest.raises(PlacementError):
        HashRing(vnodes=0)
    ring = HashRing(["a"])
    with pytest.raises(PlacementError):
        ring.add("a")
    with pytest.raises(PlacementError):
        ring.remove("b")
    with pytest.raises(PlacementError):
        HashRing().route("k")


def test_plan_moves_is_deterministic_and_minimal():
    before = HashRing(["s0", "s1", "s2"], vnodes=64)
    after = before.copy()
    after.add("s3")
    plan = plan_moves(after, before.partition(KEYS))
    again = plan_moves(after, before.partition(KEYS))
    assert plan == again
    # Only keys whose owner changed travel, each to its new owner.
    for (source, dest), keys in plan.items():
        assert dest == "s3"
        for key in keys:
            assert before.route(key) == source
            assert after.route(key) == dest
    planned = {k for keys in plan.values() for k in keys}
    assert planned == set(before.moved_keys(after, KEYS))


# ---------------------------------------------------------------------------
# StableKVStore: acked writes survive crashes
# ---------------------------------------------------------------------------


def test_stable_kvstore_survives_crash_and_recovery():
    dep = Deployment(seed=9)
    dep.add_service("kv", ELASTIC_SPEC, StableKVStore,
                    servers=[1], clients=[101])

    async def write():
        assert (await dep.call(101, "kv", "put",
                               {"key": "a", "value": 1})).ok
        assert (await dep.call(101, "kv", "put",
                               {"key": "b", "value": 2})).ok
        assert (await dep.call(101, "kv", "delete", {"key": "b"})).ok

    dep.run_scenario(write())
    dep.crash(1)
    assert dep.services["kv"].app(1).data == {}      # volatile state died
    dep.recover(1)
    assert dep.services["kv"].app(1).data == {"a": 1}  # reloaded from disk

    async def read():
        result = await dep.call(101, "kv", "get", {"key": "a"})
        assert result.ok and result.args == 1
        gone = await dep.call(101, "kv", "get", {"key": "b"})
        assert gone.ok and gone.args is None         # deletes are stable too

    dep.run_scenario(read())


# ---------------------------------------------------------------------------
# Elastic KV end-to-end: build, grow, shrink
# ---------------------------------------------------------------------------


def write_keys(dep, kv, n):
    writes = {f"key-{i}": i for i in range(n)}

    async def scenario():
        for key, value in writes.items():
            assert (await kv.put(key, value)).ok

    dep.run_scenario(scenario())
    return writes


def assert_single_ownership(dep, plane, keys):
    """Every key lives on exactly one ring shard: the one that routes it."""
    for key in keys:
        holders = [name for name in plane.ring.nodes
                   if key in dep.services[name].app(
                       dep.services[name].server_pids[0]).data]
        assert holders == [plane.ring.route(key)], key


def test_build_elastic_kv_end_to_end():
    dep = Deployment(seed=20)
    plane, kv = build_elastic_kv(dep, 3)
    assert plane.shards == ["shard-0", "shard-1", "shard-2"]
    writes = write_keys(dep, kv, 30)

    async def read():
        for key, value in writes.items():
            result = await kv.get(key)
            assert result.ok and result.args == value
        assert await kv.keys() == sorted(writes)

    dep.run_scenario(read())
    assert_single_ownership(dep, plane, writes)
    assert dep.metrics.value("placement.router.lookups") >= 60


def test_add_shard_migrates_minimally():
    dep = Deployment(seed=21)
    plane, kv = build_elastic_kv(dep, 3)
    writes = write_keys(dep, kv, 40)
    before = plane.ring.copy()

    dep.run_scenario(plane.add_shard())

    assert plane.shards == [f"shard-{i}" for i in range(4)]
    assert plane.epoch == 1
    # Only the ranges adjacent to the newcomer travelled.
    moved = before.moved_keys(plane.ring, writes)
    assert all(new == "shard-3" for (_, new) in moved.values())
    assert dep.metrics.value("placement.migration.runs") == 1
    assert dep.metrics.value("placement.migration.keys_moved") == len(moved)
    assert dep.metrics.gauge("placement.ring.shards").value == 4
    assert dep.metrics.gauge("placement.ring.epoch").value == 1

    async def read():
        for key, value in writes.items():
            result = await kv.get(key)
            assert result.ok and result.args == value, key

    dep.run_scenario(read())
    assert_single_ownership(dep, plane, writes)


def test_remove_shard_rehomes_its_keys():
    dep = Deployment(seed=22)
    plane, kv = build_elastic_kv(dep, 4)
    writes = write_keys(dep, kv, 40)

    dep.run_scenario(plane.remove_shard("shard-1"))

    assert "shard-1" not in plane.ring
    # The retired shard holds nothing (volatile or stable).
    svc = dep.services["shard-1"]
    assert svc.app(svc.server_pids[0]).data == {}
    node = dep.nodes[svc.server_pids[0]]
    assert node.stable.keys_with_prefix(StableKVStore.STABLE_PREFIX) == []

    async def read():
        for key, value in writes.items():
            result = await kv.get(key)
            assert result.ok and result.args == value, key

    dep.run_scenario(read())
    assert_single_ownership(dep, plane, writes)


def test_reshape_guards():
    dep = Deployment(seed=23)
    plane, _ = build_elastic_kv(dep, 1)

    async def scenario():
        with pytest.raises(PlacementError):
            await plane.remove_shard("shard-9")      # unknown
        with pytest.raises(PlacementError):
            await plane.remove_shard("shard-0")      # last shard
        with pytest.raises(PlacementError):
            await plane.drain_dead_shard("shard-0")  # nothing can absorb
        await plane.add_shard()
        with pytest.raises(PlacementError):
            await plane.add_shard("shard-1")         # already on the ring

    dep.run_scenario(scenario())


# ---------------------------------------------------------------------------
# Call parking across a cutover
# ---------------------------------------------------------------------------


def test_parked_call_waits_for_release_then_routes_fresh():
    dep = Deployment(seed=24)
    plane, kv = build_elastic_kv(dep, 2)
    write_keys(dep, kv, 4)
    key = "key-0"
    results = []

    async def scenario():
        plane._park({key})
        task = dep.runtime.spawn(kv.get(key), name="parked-get")
        await dep.runtime.sleep(0.5)
        assert not results             # still gated
        other = await kv.get("key-1")  # non-moving keys are untouched
        assert other.ok
        plane._release()
        results.append(await dep.runtime.join(task))

    dep.run_scenario(scenario())
    assert results[0].ok and results[0].args == 0
    assert dep.metrics.value("placement.parked_calls") >= 1


def test_calls_issued_during_resize_all_complete():
    dep = Deployment(seed=25)
    plane, kv = build_elastic_kv(dep, 3)
    writes = write_keys(dep, kv, 30)
    results = []

    async def workload():
        for i, key in enumerate(sorted(writes)):
            results.append(await kv.put(key, 1000 + i))
            await dep.runtime.sleep(0.002)

    async def scenario():
        work = dep.runtime.spawn(workload(), name="workload")
        await dep.runtime.sleep(0.01)
        await plane.add_shard()
        await dep.runtime.join(work)

    dep.run_scenario(scenario(), extra_time=1.0)
    assert len(results) == len(writes)
    assert all(r.ok for r in results)

    async def read():
        for i, key in enumerate(sorted(writes)):
            result = await kv.get(key)
            assert result.ok and result.args == 1000 + i, key

    dep.run_scenario(read())
    assert_single_ownership(dep, plane, writes)


# ---------------------------------------------------------------------------
# The migration protocol itself
# ---------------------------------------------------------------------------


def _hand_migration(dep, moves):
    """A migration ``src -> dst`` driven phase by phase, its snapshots
    persisted on the client node 101 (the one metadata replica)."""
    views = ViewManager.ensure(dep)
    views.replicas = [101]
    return KeyMigration(dep, 101, moves, epoch=0, views=views,
                        target=HashRing(["dst"]), sources=["src"])


def test_catch_up_ships_racing_writes_and_deletes():
    dep = Deployment(seed=26)
    dep.add_service("src", ELASTIC_SPEC, StableKVStore,
                    servers=[1], clients=[101])
    dep.add_service("dst", ELASTIC_SPEC, StableKVStore,
                    servers=[2], clients=[101])

    async def seed():
        for key, value in (("k1", 1), ("k2", 2), ("k3", 3)):
            assert (await dep.call(101, "src", "put",
                                   {"key": key, "value": value})).ok

    dep.run_scenario(seed())
    move = ShardMove("src", "dst", ["k1", "k2", "k3"])
    migration = _hand_migration(dep, [move])

    async def run():
        await migration.warm_transfer()
        assert dep.nodes[101].stable.keys_with_prefix(
            "placement.migration.") != []
        # Writes racing the warm phase: an update and a delete that the
        # destination's warm copy does not know about yet.
        assert (await dep.call(101, "src", "put",
                               {"key": "k1", "value": 99})).ok
        assert (await dep.call(101, "src", "delete", {"key": "k2"})).ok
        await migration.catch_up()
        await migration.cutover()

    dep.run_scenario(run())
    assert dep.services["dst"].app(2).data == {"k1": 99, "k3": 3}
    assert dep.services["src"].app(1).data == {}
    # The replicated crash-safety snapshot was freed at cutover.
    assert dep.nodes[101].stable.keys_with_prefix(
        "placement.migration.") == []


def test_catch_up_ships_keys_created_after_planning():
    """A key born during the warm phase is unknown to the frozen move
    plan; catch-up must still migrate it (and cutover must drop it)."""
    dep = Deployment(seed=38)
    dep.add_service("src", ELASTIC_SPEC, StableKVStore,
                    servers=[1], clients=[101])
    dep.add_service("dst", ELASTIC_SPEC, StableKVStore,
                    servers=[2], clients=[101])

    async def seed():
        for key, value in (("k1", 1), ("k2", 2)):
            assert (await dep.call(101, "src", "put",
                                   {"key": key, "value": value})).ok

    dep.run_scenario(seed())
    move = ShardMove("src", "dst", ["k1", "k2"])
    migration = _hand_migration(dep, [move])  # everything departs src

    async def run():
        await migration.warm_transfer()
        assert (await dep.call(101, "src", "put",
                               {"key": "k-new", "value": 42})).ok
        await migration.catch_up()
        await migration.cutover()

    dep.run_scenario(run())
    assert dep.services["dst"].app(2).data == {"k1": 1, "k2": 2,
                                               "k-new": 42}
    assert dep.services["src"].app(1).data == {}
    assert "k-new" in move.keys          # cutover dropped the real set


def test_unplanned_departures_get_their_own_move():
    """A source with no planned move still sheds keys created during
    the migration whose range belongs elsewhere under the target ring."""
    dep = Deployment(seed=39)
    dep.add_service("src", ELASTIC_SPEC, StableKVStore,
                    servers=[1], clients=[101])
    dep.add_service("dst", ELASTIC_SPEC, StableKVStore,
                    servers=[2], clients=[101])
    migration = _hand_migration(dep, [])

    async def run():
        await migration.warm_transfer()  # no planned moves: a no-op
        assert (await dep.call(101, "src", "put",
                               {"key": "late", "value": "v"})).ok
        await migration.catch_up()
        await migration.cutover()

    dep.run_scenario(run())
    assert dep.services["dst"].app(2).data == {"late": "v"}
    assert dep.services["src"].app(1).data == {}
    assert [(m.source, m.dest) for m in migration.moves] == [("src",
                                                              "dst")]


def test_keys_created_during_resize_are_not_lost():
    """The high-severity review scenario: puts that create brand-new
    keys while a grow migration runs must all be readable afterward."""
    dep = Deployment(seed=37)
    plane, kv = build_elastic_kv(dep, 3)
    write_keys(dep, kv, 10)
    acked = {}

    async def workload():
        for i in range(40):
            key = f"new-{i}"
            result = await kv.put(key, i)
            if result.ok:
                acked[key] = i
            await dep.runtime.sleep(0.005)

    async def scenario():
        work = dep.runtime.spawn(workload(), name="workload")
        await dep.runtime.sleep(0.01)
        await plane.add_shard()
        await dep.runtime.join(work)

    dep.run_scenario(scenario(), extra_time=1.0)
    assert acked, "the workload never got a write through"

    async def read():
        for key, value in acked.items():
            result = await kv.get(key)
            assert result.ok and result.args == value, key

    dep.run_scenario(read())
    assert_single_ownership(dep, plane, acked)


def test_park_waits_for_inflight_calls_to_drain():
    """A call that passed the gate before parking must land before the
    catch-up snapshot: _drain_inflight blocks until it completes."""
    dep = Deployment(seed=35)
    plane, kv = build_elastic_kv(dep, 2)
    write_keys(dep, kv, 4)
    key = "key-0"
    order = []

    async def slow_put():
        order.append("put-start")
        result = await kv.put(key, "late", delay=0.3)
        order.append("put-done")
        return result

    async def scenario():
        task = dep.runtime.spawn(slow_put(), name="slow-put")
        await dep.runtime.sleep(0.05)     # in flight, gate still open
        plane._park({key})
        await plane._drain_inflight()
        order.append("drained")
        plane._release()
        assert (await dep.runtime.join(task)).ok

    dep.run_scenario(scenario())
    assert order == ["put-start", "put-done", "drained"]


def test_slow_write_racing_a_resize_is_never_dropped():
    """End-to-end version: an acknowledged slow put issued just before
    a shrink must survive the cutover's drop_keys."""
    dep = Deployment(seed=40)
    plane, kv = build_elastic_kv(dep, 3)
    writes = write_keys(dep, kv, 12)
    victim_key = next(k for k in sorted(writes)
                      if plane.ring.route(k) == "shard-1")
    results = []

    async def slow_put():
        results.append(await kv.put(victim_key, "late", delay=0.4))

    async def scenario():
        task = dep.runtime.spawn(slow_put(), name="slow-put")
        await dep.runtime.sleep(0.01)
        await plane.remove_shard("shard-1")
        await dep.runtime.join(task)

    dep.run_scenario(scenario(), extra_time=1.0)
    assert results and results[0].ok

    async def read():
        result = await kv.get(victim_key)
        assert result.ok and result.args == "late"

    dep.run_scenario(read())
    writes[victim_key] = "late"
    assert_single_ownership(dep, plane, writes)


def test_drain_salvages_a_dead_shard_from_stable_store():
    dep = Deployment(seed=27)
    plane, kv = build_elastic_kv(dep, 2)
    writes = write_keys(dep, kv, 20)
    victim = dep.services["shard-1"]
    dep.crash(victim.server_pids[0])

    dep.run_scenario(plane.drain_dead_shard("shard-1"))

    assert plane.shards == ["shard-0"]
    assert dep.metrics.value("placement.migration.salvages") >= 1
    assert dep.metrics.value("placement.drains") == 1

    async def read():
        for key, value in writes.items():
            result = await kv.get(key)
            assert result.ok and result.args == value, key

    dep.run_scenario(read())


def test_rejoining_shard_cannot_resurrect_stale_keys():
    dep = Deployment(seed=28)
    plane, kv = build_elastic_kv(dep, 2)
    writes = write_keys(dep, kv, 20)
    victim = dep.services["shard-1"]
    stale = next(k for k in sorted(writes)
                 if plane.ring.route(k) == "shard-1")
    dep.crash(victim.server_pids[0])
    dep.run_scenario(plane.drain_dead_shard("shard-1"))

    async def overwrite():    # the key lives on, owned by the survivor
        assert (await kv.put(stale, "fresh")).ok

    dep.run_scenario(overwrite())
    dep.recover(victim.server_pids[0])
    # Recovery reloaded the shard's pre-crash stable state; rejoining
    # must wipe it before any key range migrates back.
    assert stale in victim.app(victim.server_pids[0]).data
    dep.run_scenario(plane.add_shard("shard-1"))

    async def read():
        result = await kv.get(stale)
        assert result.ok and result.args == "fresh"

    dep.run_scenario(read())
    assert_single_ownership(dep, plane, writes)


def test_rejoin_while_down_scrubs_stale_stable_state():
    """add_shard on a shard whose servers are still down must scrub its
    stable cells directly (the wipe RPC fails); a later recovery cannot
    resurrect pre-crash keys."""
    dep = Deployment(seed=41)
    plane, kv = build_elastic_kv(dep, 2)
    writes = write_keys(dep, kv, 20)
    victim = dep.services["shard-1"]
    pid = victim.server_pids[0]
    stale = next(k for k in sorted(writes)
                 if plane.ring.route(k) == "shard-1")
    dep.crash(pid)
    dep.run_scenario(plane.drain_dead_shard("shard-1"))

    async def overwrite():
        assert (await kv.put(stale, "fresh")).ok

    dep.run_scenario(overwrite())

    async def rejoin():
        # Still down: migrating ranges back must fail loudly, but only
        # after the stale stable cells were scrubbed.
        with pytest.raises(MigrationError):
            await plane.add_shard("shard-1")

    dep.run_scenario(rejoin())
    node = dep.nodes[pid]
    assert node.stable.keys_with_prefix(StableKVStore.STABLE_PREFIX) == []
    dep.recover(pid)
    assert victim.app(pid).data == {}        # nothing resurrected

    async def read():
        result = await kv.get(stale)
        assert result.ok and result.args == "fresh"

    dep.run_scenario(read())


def test_stable_kvstore_rebind_does_not_stack_recover_listeners():
    dep = Deployment(seed=42)
    svc = dep.add_service("kv", ELASTIC_SPEC, StableKVStore,
                          servers=[1], clients=[101])
    node = dep.nodes[1]
    app = svc.app(1)
    before = len(node.recover_listeners)
    app.bind(node)
    app.bind(node)
    assert len(node.recover_listeners) == before


# ---------------------------------------------------------------------------
# Membership-driven rebinding
# ---------------------------------------------------------------------------


def test_driver_shrinks_and_regrows_bindings():
    dep = Deployment(seed=30, membership="oracle")
    dep.add_service("kv", ELASTIC_SPEC, StableKVStore,
                    servers=[1, 2, 3], clients=[101])
    dep.auto_rebind()

    dep.crash(3)
    assert dep.service("kv").group.members == (1, 2)
    assert dep.metrics.value("placement.rebind.shrink") == 1

    async def during():
        result = await dep.call(101, "kv", "put", {"key": "a", "value": 1})
        assert result.ok

    dep.run_scenario(during())

    dep.recover(3)
    assert dep.service("kv").group.members == (1, 2, 3)
    assert dep.metrics.value("placement.rebind.regrow") == 1


def test_heartbeat_watch_fires_once_per_state_change():
    dep = Deployment(seed=32, membership="heartbeat",
                     heartbeat_interval=0.05, suspect_after=3)
    dep.add_service("kv", ELASTIC_SPEC, StableKVStore,
                    servers=[1, 2, 3], clients=[101])
    events = []
    dep.watch_membership(lambda pid, alive: events.append((pid, alive)))
    dep.auto_rebind()
    dep.settle(0.5)
    assert events == []

    dep.crash(3)
    dep.settle(1.0)
    # Three surviving observers suspect node 3; the watcher fired once.
    assert events == [(3, False)]
    assert dep.service("kv").group.members == (1, 2)
    assert dep.metrics.value("placement.rebind.shrink") == 1

    dep.recover(3)
    dep.settle(1.0)
    assert events == [(3, False), (3, True)]
    assert dep.service("kv").group.members == (1, 2, 3)


def test_driver_drains_a_fully_dead_shard():
    dep = Deployment(seed=33, membership="oracle")
    plane, kv = build_elastic_kv(dep, 3)
    writes = write_keys(dep, kv, 24)
    dep.auto_rebind(plane=plane)

    dep.crash(dep.services["shard-2"].server_pids[0])
    dep.settle(5.0)            # let the spawned drain run

    assert plane.shards == ["shard-0", "shard-1"]
    assert dep.metrics.value("placement.drains") == 1

    async def read():
        for key, value in writes.items():
            result = await kv.get(key)
            assert result.ok and result.args == value, key

    dep.run_scenario(read())
    assert_single_ownership(dep, plane, writes)


# ---------------------------------------------------------------------------
# Acceptance: resize under workload with a shard killed mid-migration
# ---------------------------------------------------------------------------


def test_resize_under_workload_survives_shard_death():
    dep = Deployment(seed=34, membership="oracle")
    plane, kv = build_elastic_kv(dep, 4)
    dep.auto_rebind(plane=plane)
    acked = {}

    async def workload():
        for i in range(50):
            key = f"key-{i}"
            result = await kv.put(key, i)
            if result.ok:
                acked[key] = i
            await dep.runtime.sleep(0.02)

    async def chaos():
        await dep.runtime.sleep(0.1)
        grow = dep.runtime.spawn(plane.add_shard(), name="grow")
        await dep.runtime.sleep(0.03)   # mid-migration
        dep.crash(dep.services["shard-1"].server_pids[0])
        await dep.runtime.join(grow)
        for _ in range(200):            # wait out the automatic drain
            if "shard-1" not in plane.ring:
                break
            await dep.runtime.sleep(0.1)

    async def scenario():
        work = dep.runtime.spawn(workload(), name="workload")
        havoc = dep.runtime.spawn(chaos(), name="chaos")
        await dep.runtime.join(work)
        await dep.runtime.join(havoc)

    dep.run_scenario(scenario(), extra_time=5.0)

    assert "shard-1" not in plane.ring          # drained automatically
    assert "shard-4" in plane.ring              # grow completed
    assert acked, "the workload never got a write through"

    async def verify():
        for key, value in acked.items():
            result = await kv.get(key)
            assert result.ok and result.args == value, key

    dep.run_scenario(verify())
    # No key — acked or not — is owned by two live shards.
    every_key = dep.run_scenario(kv.keys())
    assert_single_ownership(dep, plane, every_key)
    assert set(acked) <= set(every_key)
