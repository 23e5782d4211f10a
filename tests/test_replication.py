"""Replicated shard groups: per-shard configurable consistency.

Covers the :class:`~repro.replication.spec.ReplicaSpec` validation story
(Figure-4 graph plus the replication-mode edges, enforced at deployment
build time), active fan-out with round-robin read narrowing (and the
ordered-composition rule that disables it), passive primary-backup state
transfer, deterministic election / promotion / demotion, failover under
in-flight writes with zero acknowledged-write loss, reply-cache retry
dedup across a promotion, resync of recovered replicas, the
:class:`~repro.placement.driver.RebindDriver`'s drain-averting revive,
and replica groups under the elastic placement plane.
"""

import pytest

from repro import Deployment, LinkSpec, ServiceSpec, build_elastic_kv
from repro.apps import KVStore, ShardedKV, StableKVStore, build_sharded_kv
from repro.core.config import FIGURE4
from repro.core.microprotocols import ALL
from repro.errors import ConfigurationError, DependencyError, ReproError
from repro.replication import (
    ReplicaSpec,
    ReplicationManager,
    active_replicas,
    primary_backup,
)
from repro.replication.spec import MODE_EDGES, forward_state


# ---------------------------------------------------------------------------
# ReplicaSpec validation: Figure 4 plus the replication-mode edges
# ---------------------------------------------------------------------------


def test_presets_validate():
    active_replicas(3).service_spec()
    active_replicas(1, ordering="total").service_spec()
    primary_backup(3).service_spec()
    primary_backup(2, bounded=1.0, read_from="primary").service_spec()


def test_bad_shape_is_a_configuration_error():
    with pytest.raises(ConfigurationError):
        ReplicaSpec(replicas=0).service_spec()
    with pytest.raises(ConfigurationError):
        ReplicaSpec(mode="chain").service_spec()
    with pytest.raises(ConfigurationError):
        ReplicaSpec(read_from="nearest").service_spec()


def test_passive_requires_acceptance_one():
    spec = ServiceSpec(reliable=True, unique=True, execution="serial",
                       ordering="none", acceptance=2)
    with pytest.raises(DependencyError, match="[Aa]cceptance"):
        ReplicaSpec(mode="passive", spec=spec).service_spec()


@pytest.mark.parametrize("ordering", ["fifo", "total"])
def test_passive_rejects_ordered_delivery(ordering):
    # Writes execute on the primary alone; an ordering gate at the
    # backups would wait forever for calls they will never see.
    spec = ServiceSpec(reliable=True, unique=True, execution="serial",
                       ordering=ordering, acceptance=1)
    with pytest.raises(DependencyError, match="Passive_Replication"):
        ReplicaSpec(mode="passive", spec=spec).service_spec()


def test_active_group_requires_unique_execution():
    spec = ServiceSpec(reliable=True, execution="serial",
                       ordering="none", acceptance=1)
    with pytest.raises(DependencyError, match="Unique_Execution"):
        ReplicaSpec(mode="active", replicas=3, spec=spec).service_spec()
    # A single replica has nothing to diverge from.
    ReplicaSpec(mode="active", replicas=1, spec=spec).service_spec()


def test_replication_edges_shape_matches_figure4():
    assert all(len(edge) == len(FIGURE4[0]) for edge in MODE_EDGES)
    assert ("Passive_Replication", "Acceptance(1)") in [
        edge[:2] for edge in MODE_EDGES]


def _passive(**fields):
    return ReplicaSpec(mode="passive", spec=ServiceSpec(
        reliable=True, unique=True, execution="serial", acceptance=1
    ).with_(**fields))


#: The smallest replica spec that breaks each MODE_EDGES row, in row order.
MODE_BREAKS = [
    _passive(acceptance=2),
    _passive(ordering="total"),
    _passive(ordering="fifo"),
    _passive(reliable=False, unique=False),
    ReplicaSpec(replicas=2, spec=ServiceSpec()),
]


@pytest.mark.parametrize("row, rspec", zip(MODE_EDGES, MODE_BREAKS),
                         ids=[f"{d}->{p}" for d, p, _, _ in MODE_EDGES])
def test_each_mode_edge_is_what_validation_enforces(row, rspec):
    assert len(MODE_BREAKS) == len(MODE_EDGES)
    broken = [edge for edge in MODE_EDGES if edge[2](rspec)]
    assert broken == [row]
    with pytest.raises(DependencyError) as info:
        rspec.service_spec()
    assert str(info.value) == row[3]


def test_reads_narrow_only_without_ordering():
    assert active_replicas(3).reads_narrow
    assert not active_replicas(3, ordering="fifo").reads_narrow
    assert not active_replicas(3, ordering="total").reads_narrow


def test_forward_state_translations():
    assert forward_state("put", {"key": "k", "value": 7}) == \
        ("ingest", {"entries": {"k": 7}})
    assert forward_state("delete", {"key": "k"}) == \
        ("drop_keys", {"keys": ["k"]})
    assert forward_state("ingest", {"entries": {"a": 1}}) == \
        ("ingest", {"entries": {"a": 1}})
    assert forward_state("compact", {}) is None


def test_build_fails_whole_deployment_on_illegal_shard():
    dep = Deployment(seed=40)
    bad = ReplicaSpec(mode="passive", spec=ServiceSpec(
        reliable=True, unique=True, execution="serial",
        ordering="fifo", acceptance=1))
    with pytest.raises(DependencyError):
        build_sharded_kv(dep, 3,
                         replication=[active_replicas(2), bad,
                                      active_replicas(2)])
    # Shard 0 validated fine, but nothing was deployed.
    assert dep.services == {}


def test_build_fails_whole_deployment_on_a_bad_shard_parameter():
    dep = Deployment(seed=40)
    bad = ReplicaSpec(replicas=2, spec=ServiceSpec(
        reliable=True, unique=True, execution="serial",
        retrans_timeout=0.0))
    with pytest.raises(ConfigurationError):
        build_sharded_kv(dep, 3,
                         replication=[active_replicas(2), bad,
                                      active_replicas(2)])
    assert dep.services == {}


def test_replication_excludes_manual_spec_arguments():
    dep = Deployment(seed=40)
    with pytest.raises(ReproError):
        build_sharded_kv(dep, 2, replication=active_replicas(2),
                         servers_per_shard=2)
    with pytest.raises(ReproError):
        build_sharded_kv(dep, 2, replication=[active_replicas(2)])


def test_replica_count_must_match_deployed_servers():
    dep = Deployment(seed=41)
    dep.add_service("s", active_replicas(3).service_spec(), KVStore,
                    servers=2, clients=1)
    with pytest.raises(ReproError, match="2 servers"):
        ReplicationManager.ensure(dep).replicate("s", active_replicas(3))


def test_one_group_per_service_and_one_manager_per_deployment():
    dep = Deployment(seed=41)
    dep.add_service("s", active_replicas(2).service_spec(), KVStore,
                    servers=2, clients=1)
    manager = ReplicationManager.ensure(dep)
    assert ReplicationManager.ensure(dep) is manager
    with pytest.raises(ReproError):
        ReplicationManager(dep)
    manager.replicate("s", active_replicas(2))
    with pytest.raises(ReproError):
        manager.replicate("s", active_replicas(2))


# ---------------------------------------------------------------------------
# Active replication: fan-out writes, narrowed reads
# ---------------------------------------------------------------------------


def test_active_writes_reach_every_replica():
    dep = Deployment(seed=42)
    kv = build_sharded_kv(dep, 1, replication=active_replicas(3))

    async def scenario():
        for i in range(5):
            assert (await kv.put(f"k{i}", i)).ok

    dep.run_scenario(scenario())
    svc = dep.services["shard-0"]
    expected = {f"k{i}": i for i in range(5)}
    for pid in svc.server_pids:
        assert svc.app(pid).data == expected


def test_active_reads_round_robin_over_replicas():
    dep = Deployment(seed=42)
    kv = build_sharded_kv(dep, 1, replication=active_replicas(3))
    group = dep.replication.group("shard-0")
    targets = []
    original = group._read_target

    def spy(bound):
        narrowed = original(bound)
        targets.append(tuple(narrowed.members))
        return narrowed
    group._read_target = spy

    async def scenario():
        assert (await kv.put("k", 1)).ok
        for _ in range(6):
            assert (await kv.get("k")).args == 1

    dep.run_scenario(scenario())
    assert len(targets) == 6
    assert all(len(t) == 1 for t in targets)            # narrowed
    assert set(t[0] for t in targets) == set(group.members)
    assert dep.metrics.value("repl.reads.routed") == 6


def test_ordered_composition_serves_reads_through_full_group():
    """Regression: under FIFO ordering a read narrowed to one replica
    consumes a per-client sequence number the other replicas never see,
    parking every later fan-out write forever.  Ordered compositions
    must send reads to the whole group instead."""
    dep = Deployment(seed=43)
    kv = build_sharded_kv(dep, 1,
                          replication=active_replicas(3, ordering="fifo"))

    async def scenario():
        for i in range(4):                # write-read interleave
            assert (await kv.put(f"k{i}", i)).ok
            assert (await kv.get(f"k{i}")).args == i

    dep.run_scenario(scenario())
    assert dep.metrics.value("repl.reads.routed") == 0   # never narrowed


@pytest.mark.parametrize("ordering", ["total", "fifo"])
def test_serial_execution_under_ordering_with_concurrent_clients(ordering):
    """Regression: Serial_Execution's gate was held through the
    REPLY_FROM_SERVER chain, where Total_Order releases the next held
    call by re-entering forward_up in the same task.  That task then
    waited on the gate it was holding, and with two concurrent clients
    no put ever completed."""
    clients, puts_each = 2, 20
    dep = Deployment(seed=1, default_link=LinkSpec(delay=0.001,
                                                   jitter=0.0005))
    rspec = active_replicas(3, acceptance=ALL, ordering=ordering)
    assert rspec.spec.execution == "serial"
    kv = build_sharded_kv(dep, 1, clients=clients, replication=rspec)
    completed = []

    async def writer(pid, lane):
        view = ShardedKV(dep, pid, kv.router)
        for i in range(puts_each):
            completed.append((await view.put(f"k{lane}-{i}", i)).ok)

    svc = dep.services["shard-0"]
    for lane, pid in enumerate(svc.client_pids):
        dep.spawn_client(pid, writer(pid, lane))
    dep.settle(30.0)
    assert completed == [True] * (clients * puts_each)
    expected = {f"k{lane}-{i}": i
                for lane in range(clients) for i in range(puts_each)}
    for pid in svc.server_pids:
        assert svc.app(pid).data == expected


def test_active_group_survives_replica_crash():
    dep = Deployment(seed=44, membership="oracle")
    kv = build_sharded_kv(dep, 1, replication=active_replicas(3))
    dep.auto_rebind()

    async def before():
        for i in range(4):
            assert (await kv.put(f"k{i}", i)).ok

    dep.run_scenario(before())
    victim = dep.services["shard-0"].server_pids[0]
    dep.crash(victim)
    assert dep.replication.live_members("shard-0") == \
        [p for p in dep.services["shard-0"].server_pids if p != victim]

    async def after():
        for i in range(4):
            result = await kv.get(f"k{i}")
            assert result.ok and result.args == i
        assert (await kv.put("late", 9)).ok

    dep.run_scenario(after())
    assert dep.metrics.value("repl.shrinks") == 1


# ---------------------------------------------------------------------------
# Passive replication: primary-backup state transfer
# ---------------------------------------------------------------------------


def test_passive_backups_ingest_state_not_procedures():
    dep = Deployment(seed=45)
    kv = build_sharded_kv(dep, 1, replication=primary_backup(3))
    group = dep.replication.group("shard-0")
    svc = dep.services["shard-0"]
    assert group.primary == max(svc.server_pids)   # the paper's leader

    async def scenario():
        assert (await kv.put("a", 1)).ok
        assert (await kv.put("b", 2)).ok
        assert (await kv.delete("a")).ok

    dep.run_scenario(scenario())
    primary_log = svc.app(group.primary).apply_log
    assert [kind for kind, *_ in primary_log] == ["put", "put", "delete"]
    for pid in svc.server_pids:
        assert svc.app(pid).data == {"b": 2}       # all converged
        if pid != group.primary:
            # Backups receive the *resulting state*, never the write op.
            kinds = {kind for kind, *_ in svc.app(pid).apply_log}
            assert kinds <= {"ingest", "drop"}
    assert dep.metrics.value("repl.sync.calls") == 6   # 3 writes x 2


def test_passive_reads_can_pin_to_the_primary():
    dep = Deployment(seed=45)
    kv = build_sharded_kv(
        dep, 1, replication=primary_backup(3, read_from="primary"))
    group = dep.replication.group("shard-0")
    targets = []
    original = group._read_target

    def spy(bound):
        narrowed = original(bound)
        targets.append(tuple(narrowed.members))
        return narrowed
    group._read_target = spy

    async def scenario():
        assert (await kv.put("a", 1)).ok
        for _ in range(3):
            assert (await kv.get("a")).args == 1

    dep.run_scenario(scenario())
    assert targets == [(group.primary,)] * 3


def test_promotion_is_deterministic_and_taped():
    dep = Deployment(seed=46, membership="oracle", observatory=True)
    kv = build_sharded_kv(dep, 1, replication=primary_backup(3))
    group = dep.replication.group("shard-0")
    pids = sorted(group.members)

    async def write():
        assert (await kv.put("a", 1)).ok

    dep.run_scenario(write())
    assert group.primary == pids[-1]
    dep.crash(pids[-1])
    assert group.primary == pids[-2]       # next-largest in-sync pid
    dep.crash(pids[-2])
    assert group.primary == pids[-3]
    assert dep.metrics.value("repl.promotions") == 2
    tape = [fields for (_seq, _t, kind, fields) in dep.flight.entries()
            if kind == "repl-promote"]
    assert [fields["primary"] for fields in tape] == \
        [pids[-2], pids[-3]]

    async def read():
        assert (await kv.get("a")).args == 1   # sole survivor serves

    dep.run_scenario(read())


def test_passive_failover_loses_no_acknowledged_write():
    dep = Deployment(seed=47, membership="oracle")
    kv = build_sharded_kv(dep, 1, replication=primary_backup(3))
    group = dep.replication.group("shard-0")
    writes = {f"k{i}": i for i in range(8)}

    async def phase1():
        for key, value in writes.items():
            assert (await kv.put(key, value)).ok

    dep.run_scenario(phase1())
    dep.crash(group.primary)

    async def phase2():
        for key, value in writes.items():      # every ack survives
            result = await kv.get(key)
            assert result.ok and result.args == value, key
        assert (await kv.put("post", 99)).ok   # new primary writes

    dep.run_scenario(phase2())
    assert dep.metrics.value("repl.promotions") == 1


def test_failover_under_in_flight_write_retries_transparently():
    """Crash the primary while a write executes on it: the write
    surfaces as a TIMEOUT inside the group, is parked until promotion,
    and is re-issued against the new primary — the caller just sees OK.
    """
    dep = Deployment(seed=48, membership="oracle")
    kv = build_sharded_kv(dep, 1, replication=primary_backup(3))
    group = dep.replication.group("shard-0")
    old_primary = group.primary

    async def scenario():
        async def slow_write():
            # Executes for 1.0s of virtual time on the primary.
            return await kv.put("inflight", 1, delay=1.0)
        handle = dep.runtime.spawn(slow_write(), name="writer")
        await dep.runtime.sleep(0.3)          # write is now executing
        dep.crash(old_primary)                # ... and its server dies
        result = await dep.runtime.join(handle)
        assert result.ok                      # transparently retried
        assert (await kv.get("inflight")).args == 1

    dep.run_scenario(scenario())
    assert group.primary != old_primary
    assert dep.metrics.value("repl.failover.retries") == 1
    # The retry executed exactly once on the new primary.
    svc = dep.services["shard-0"]
    log = svc.app(group.primary).apply_log
    assert [e for e in log if e[0] == "put" and e[1] == "inflight"] == \
        [("put", "inflight", 1)]


def test_retry_of_dedups_across_promotion():
    """A client retry (``retry_of=``) of an acknowledged write must be
    answered from the reply cache even when the original primary has
    since crashed and a backup was promoted — never re-executed."""
    dep = Deployment(seed=49, membership="oracle")
    kv = build_sharded_kv(dep, 1, replication=primary_backup(3))
    group = dep.replication.group("shard-0")
    svc = dep.services["shard-0"]
    first = {}

    async def phase1():
        first["result"] = await kv.put("k", "v1")
        assert first["result"].ok

    dep.run_scenario(phase1())
    dep.crash(group.primary)                  # ack'd; then primary dies

    async def phase2():
        retried = await dep.call(kv.client_pid, "shard-0", "put",
                                 {"key": "k", "value": "v1"},
                                 retry_of=first["result"].id)
        assert retried.ok
        assert retried.args == first["result"].args

    dep.run_scenario(phase2())
    assert dep.metrics.value(
        "service.shard-0.reply_cache.hits") == 1
    # The new primary never executed the retried write a second time.
    puts = [e for e in svc.app(group.primary).apply_log
            if e[0] == "put"]
    assert puts == []                         # backup only ever ingested


# ---------------------------------------------------------------------------
# Recovery: resync, parked writes, demotion on rejoin
# ---------------------------------------------------------------------------


def test_recovered_replica_resyncs_before_serving():
    dep = Deployment(seed=50, membership="oracle")
    kv = build_sharded_kv(dep, 1, replication=primary_backup(3),
                          app_factory=StableKVStore)
    group = dep.replication.group("shard-0")
    old_primary = group.primary
    svc = dep.services["shard-0"]

    async def phase1():
        assert (await kv.put("keep", 1)).ok
        assert (await kv.put("stale", 1)).ok

    dep.run_scenario(phase1())
    dep.crash(old_primary)

    async def phase2():
        assert (await kv.delete("stale")).ok   # old primary missed this
        assert (await kv.put("fresh", 2)).ok

    dep.run_scenario(phase2())
    dep.recover(old_primary)                   # reloads pre-crash state
    assert old_primary not in group.synced     # not electable yet
    dep.settle(2.0)                            # resync runs
    assert old_primary in group.synced
    assert group.primary == old_primary        # largest pid takes back
    assert dep.metrics.value("repl.resyncs") == 1
    assert dep.metrics.value("repl.demotions") == 1
    # Stale state was dropped, missed writes transferred.
    assert svc.app(old_primary).data == {"keep": 1, "fresh": 2}

    async def phase3():
        assert (await kv.get("fresh")).args == 2

    dep.run_scenario(phase3())


def test_sole_survivor_rejoin_is_promoted_with_every_acked_write():
    """Every replica of a passive group crashes, then one recovers.
    Nobody holds a better copy, so it rejoins from its stable store and
    is promoted at once; writes resume and no acknowledged put is lost.
    """
    dep = Deployment(seed=52, membership="oracle", observatory=True)
    kv = build_sharded_kv(dep, 1, replication=primary_backup(3),
                          app_factory=StableKVStore)
    group = dep.replication.group("shard-0")
    writes = {f"k{i}": i for i in range(6)}

    async def phase1():
        for key, value in writes.items():
            assert (await kv.put(key, value)).ok

    dep.run_scenario(phase1())
    for pid in group.members:
        dep.crash(pid)
    assert group.primary is None and not group.live_members()
    survivor = min(group.members)         # not the natural primary
    dep.recover(survivor)
    dep.settle(1.0)
    assert group.primary == survivor
    assert group.synced == {survivor}
    promotions = [fields for (_seq, _t, kind, fields)
                  in dep.flight.entries() if kind == "repl-promote"]
    assert promotions[-1] == {"service": "shard-0", "primary": survivor,
                              "reason": "sole-survivor"}

    async def phase2():
        for key, value in writes.items():
            result = await kv.get(key)
            assert result.ok and result.args == value, key
        assert (await kv.put("after", 99)).ok
        assert (await kv.get("after")).args == 99

    dep.run_scenario(phase2())


def test_writes_park_during_resync_and_drain():
    dep = Deployment(seed=51, membership="oracle")
    kv = build_sharded_kv(dep, 1, replication=primary_backup(3))
    group = dep.replication.group("shard-0")
    backup = min(group.members)

    async def phase1():
        assert (await kv.put("a", 1)).ok

    dep.run_scenario(phase1())
    dep.crash(backup)
    dep.recover(backup)        # queues the resync daemon

    async def racing_write():
        # The resync task was queued first, so it blocks writes before
        # this runs; the write parks and drains after the transfer.
        result = await kv.put("b", 2)
        assert result.ok

    dep.run_scenario(racing_write())
    assert dep.metrics.value("repl.parked_writes") >= 1
    assert dep.metrics.value("repl.resyncs") == 1

    async def verify():
        assert (await kv.get("b")).args == 2

    dep.run_scenario(verify())


# ---------------------------------------------------------------------------
# Placement integration: revive instead of drain, elastic replica groups
# ---------------------------------------------------------------------------


def test_driver_revives_binding_from_unbound_live_replica():
    dep = Deployment(seed=52, membership="oracle")
    kv = build_sharded_kv(dep, 1, replication=active_replicas(3))
    dep.auto_rebind()
    group = dep.replication.group("shard-0")
    p1, p2, p3 = sorted(group.members)

    async def seed_data():
        assert (await kv.put("a", 1)).ok

    dep.run_scenario(seed_data())
    dep.crash(p1)
    dep.recover(p1)
    dep.settle(2.0)            # p1 resyncs and the binding regrows
    assert dep.service("shard-0").group.members == (p1, p2, p3)
    dep.rebind("shard-0", [p2, p3])   # an operator leaves p1 unbound
    dep.crash(p2)
    assert dep.service("shard-0").group.members == (p3,)
    # Last bound server dies; p1 is alive outside the binding, so the
    # driver re-points the binding instead of declaring the shard dead.
    dep.crash(p3)
    assert dep.service("shard-0").group.members == (p1,)
    assert dep.metrics.value("placement.rebind.revive") == 1

    async def still_serving():
        assert (await kv.get("a")).args == 1
        assert (await kv.put("b", 2)).ok

    dep.run_scenario(still_serving())


def test_elastic_plane_hosts_replica_groups():
    dep = Deployment(seed=53)
    plane, kv = build_elastic_kv(dep, 2, replication=primary_backup(2))
    assert set(dep.replication.groups) == {"shard-0", "shard-1"}
    writes = {f"key-{i}": i for i in range(24)}

    async def load():
        for key, value in writes.items():
            assert (await kv.put(key, value)).ok

    dep.run_scenario(load())

    # Growing the ring deploys a whole new replica group and migrates
    # ranges into it.
    dep.run_scenario(plane.add_shard("shard-2"))
    assert "shard-2" in dep.replication.groups
    new = dep.services["shard-2"]
    assert len(new.server_pids) == 2

    async def read_all():
        for key, value in writes.items():
            result = await kv.get(key)
            assert result.ok and result.args == value, key

    dep.run_scenario(read_all())
    # The migrated shard's backup holds the moved keys too (the ingest
    # was a replicated write through the group's primary).
    moved = {k for k in writes if plane.ring.route(k) == "shard-2"}
    if moved:
        group = dep.replication.group("shard-2")
        backup = next(p for p in group.members if p != group.primary)
        assert moved <= set(new.app(backup).data)
