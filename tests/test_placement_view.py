"""The replicated placement metadata plane: views, epochs, failover.

Covers the :class:`~repro.placement.view.PlacementView` lattice laws,
blob round-tripping, epoch monotonicity, stale-epoch call fencing in
``Deployment.call(view_epoch=)``, the reply cache's epoch stamping, the
control-loop slots the plane takes, and the coordinator-failover
matrix: a coordinator killed at each migration phase is either rolled
back or resumed by an elected successor with every acknowledged write
intact — including when the migration's
supervising caller dies *with* the coordinator and recovery must start
from the membership stream alone.  The lock rule closes it: a reshape
queued behind a migration whose supervisor died waits that runner out,
or takes its plan over, before it reshapes.
"""

import pytest

from repro import Deployment, HashRing, build_elastic_kv
from repro.core.messages import Status
from repro.core.replycache import ReplyCache
from repro.errors import ViewError
from repro.placement import PlacementView, ViewManager

KEYS = [f"key-{i}" for i in range(60)]


def _view(epoch=0, shards=("a", "b"), **kw):
    ring = HashRing(shards, vnodes=16, seed=3)
    return PlacementView.make(epoch=epoch, ring=ring, **kw)


# ---------------------------------------------------------------------------
# The lattice
# ---------------------------------------------------------------------------


def test_join_is_idempotent_commutative_associative():
    a = _view(epoch=2, shards=("a", "b"),
              bindings={"a": (1,), "b": (2,)},
              moves=[("a", "b")], dead=["c"])
    b = _view(epoch=2, shards=("b", "c"),
              bindings={"b": (2, 3), "c": (4,)},
              moves=[("b", "c")])
    c = _view(epoch=2, shards=("a", "c"), dead=["b"])
    assert a.join(a) == a
    assert a.join(b) == b.join(a)
    assert a.join(b).join(c) == a.join(b.join(c))
    merged = a.join(b)
    # Equal epochs merge componentwise: unions everywhere.
    assert set(merged.shards) == {"a", "b", "c"}
    assert merged.binding("b") == (2, 3)
    assert set(merged.moves) == {("a", "b"), ("b", "c")}


def test_join_higher_epoch_dominates_outright():
    old = _view(epoch=1, shards=("a", "b", "c"),
                moves=[("a", "b")], dead=["c"])
    new = _view(epoch=2, shards=("a", "b"))
    # No componentwise merge across epochs: the retired generation's
    # moves and dead set must not leak into the successor.
    assert old.join(new) == new
    assert new.join(old) == new


def test_blob_roundtrip_and_malformed_blob():
    view = _view(epoch=3, shards=("a", "b"),
                 bindings={"a": (1, 2)}, moves=[("a", "b")], dead=["x"])
    assert PlacementView.from_blob(view.to_blob()) == view
    with pytest.raises(ViewError):
        PlacementView.from_blob({"shards": ["a"]})       # no epoch
    with pytest.raises(ViewError):
        PlacementView.from_blob({"epoch": "not-a-number",
                                 "shards": [], "vnodes": 8, "seed": 0})


def test_view_rebuilds_the_exact_ring():
    ring = HashRing(["s0", "s1", "s2"], vnodes=32, seed=11)
    view = PlacementView.make(epoch=0, ring=ring)
    rebuilt = view.ring()
    assert [ring.route(k) for k in KEYS] == \
           [rebuilt.route(k) for k in KEYS]
    assert view.route(KEYS[0]) == ring.route(KEYS[0])


# ---------------------------------------------------------------------------
# ViewManager: installation, monotonicity, persistence
# ---------------------------------------------------------------------------


def test_manager_installs_once_and_epochs_only_move_forward():
    dep = Deployment(seed=31)
    plane, kv = build_elastic_kv(dep, 2, clients=2)
    views = dep.views
    assert ViewManager.ensure(dep) is views          # idempotent
    with pytest.raises(ViewError):
        ViewManager(dep)                             # double-install
    views.commit(views.current.with_(epoch=2))
    with pytest.raises(ViewError):
        views.sync(views.current.with_(epoch=1))
    with pytest.raises(ViewError):
        views.commit(views.current.with_(epoch=1))
    dep.control.uninstall("views")
    assert dep.views is None
    assert "views" not in dep.control.policies


def test_recovery_joins_every_replica_copy():
    dep = Deployment(seed=32)
    plane, kv = build_elastic_kv(dep, 2, clients=2)
    views = dep.views
    # Divergent same-epoch copies on the two metadata replicas (as a
    # crash between fanout writes would leave them).
    a, b = views.replicas
    dep.nodes[a].stable.put("placement.view.current",
                            views.current.with_(dead=("shard-0",))
                            .to_blob())
    dep.nodes[b].stable.put("placement.view.current",
                            views.current.with_(moves=[("shard-0",
                                                        "shard-1")])
                            .to_blob())
    joined = views.recover_view()
    assert joined.dead == ("shard-0",)
    assert joined.moves == (("shard-0", "shard-1"),)
    # A dead replica's disk still counts: salvage reads join it too.
    dep.crash(a)
    assert views.recover_view().dead == ("shard-0",)


# ---------------------------------------------------------------------------
# Stale-epoch fencing and the reply cache
# ---------------------------------------------------------------------------


def test_stale_epoch_call_bounces_before_dispatch():
    """A call stamped with a retired view epoch bounces with REDIRECT
    before any message is built; the current epoch goes through."""
    dep = Deployment(seed=33)
    plane, kv = build_elastic_kv(dep, 3, clients=2)
    pid = plane.coordinator
    calls = dep.metrics.counter("service.shard-0.calls")

    async def scenario():
        await plane.add_shard()          # epoch 0 -> 1
        before = calls.value
        stale = await dep.call(pid, "shard-0", "get", {"key": "k"},
                               view_epoch=0)
        assert calls.value == before     # nothing was dispatched
        fresh = await dep.call(pid, "shard-0", "get", {"key": "k"},
                               view_epoch=1)
        return stale, fresh

    stale, fresh = dep.run_scenario(scenario())
    assert stale.status is Status.REDIRECT and not stale.ok
    assert stale.args == {"epoch": 1}
    assert fresh.ok
    assert dep.metrics.value("placement.view.stale_bounces") == 1


def test_reply_cache_records_the_completion_epoch():
    cache = ReplyCache(capacity=2)
    from repro.core.messages import CallResult
    cache.put(7, 1, CallResult(id=1, status=Status.OK, args=1), epoch=0)
    cache.put(7, 2, CallResult(id=2, status=Status.OK, args=2), epoch=3)
    assert cache.epoch_of(7, 1) == 0
    assert cache.epoch_of(7, 2) == 3
    cache.put(7, 3, CallResult(id=3, status=Status.OK, args=3), epoch=4)
    # LRU eviction drops the epoch record with the entry.
    assert cache.epoch_of(7, 1) is None
    assert cache.epoch_of(7, 3) == 4


def test_deployment_stamps_cache_entries_with_the_view_epoch():
    dep = Deployment(seed=34)
    plane, kv = build_elastic_kv(dep, 2, clients=2)

    async def scenario():
        assert (await kv.put("k", 1)).ok
        await plane.add_shard()
        assert (await kv.put("k", 2)).ok

    dep.run_scenario(scenario())
    epochs = set()
    for svc in dep.services.values():
        epochs.update(svc.reply_cache._epochs.values())
    assert {0, 1} <= epochs


# ---------------------------------------------------------------------------
# Control-loop slots
# ---------------------------------------------------------------------------


def test_double_auto_rebind_replaces_instead_of_stacking():
    dep = Deployment(seed=35)
    plane, kv = build_elastic_kv(dep, 2, clients=2)
    first = dep.auto_rebind(plane=plane)
    second = dep.auto_rebind(plane=plane)
    policies = dep.control.policies
    assert policies["rebind"] is second and first is not second
    assert policies["views"] is dep.views
    assert policies["placement"] is plane
    dep.shutdown()
    assert policies == {} and dep.views is None


# ---------------------------------------------------------------------------
# Coordinator failover
# ---------------------------------------------------------------------------


def _preload(dep, kv, values):
    async def go():
        for i, key in enumerate(KEYS):
            values[key] = i
            assert (await kv.put(key, i)).ok
    dep.run_scenario(go())


def _arm_crash(dep, plane, victim, phase):
    """Kill ``victim`` from a separate daemon task the first time the
    migration reaches ``phase`` (a task cannot cancel itself)."""
    fired = []

    async def killer():
        dep.crash(victim)

    def hook(p):
        if p == phase and not fired:
            fired.append(p)
            dep.runtime.spawn(killer(), name="killer", daemon=True)

    plane.phase_hook = hook
    return fired


@pytest.mark.parametrize("phase,outcome", [
    ("snapshot", "rollback"),
    ("transfer", "rollback"),
    ("catchup", "resume"),
    ("cutover", "resume"),
])
def test_coordinator_crash_at_each_phase(phase, outcome):
    dep = Deployment(seed=36, observatory=True)
    plane, kv = build_elastic_kv(dep, 3, clients=3)
    dep.auto_rebind(plane=plane)
    victim = plane.coordinator
    worker = [p for p in plane.coordinators if p != victim][0]
    values = {}
    _preload(dep, kv, values)
    _arm_crash(dep, plane, victim, phase)
    from repro.placement import ElasticKV
    audit_kv = ElasticKV(plane, worker)

    async def scenario():
        await plane.add_shard()
        for key in KEYS:
            result = await audit_kv.get(key)
            assert result.ok and result.args == values[key], key

    dep.run_scenario(scenario(), extra_time=0.5)
    assert plane.coordinator != victim
    assert dep.metrics.value("placement.view.takeovers") == 1
    tapes = [kind for _, _, kind, _ in dep.flight.entries()
             if kind in ("view-propose", "coord-takeover",
                         "view-commit", "view-rollback")]
    assert tapes[0] == "view-propose"
    assert "coord-takeover" in tapes
    if outcome == "rollback":
        assert plane.epoch == 0 and len(plane.ring) == 3
        assert tapes[-1] == "view-rollback"
        assert dep.views.load_plan() is None
    else:
        assert plane.epoch == 1 and len(plane.ring) == 4
        assert tapes[-1] == "view-commit"
        assert dep.views.load_plan() is None


def test_drain_of_dead_shard_resumes_through_coordinator_crash():
    dep = Deployment(seed=37, observatory=True)
    plane, kv = build_elastic_kv(dep, 3, clients=3)
    victim = plane.coordinator
    worker = [p for p in plane.coordinators if p != victim][0]
    values = {}
    _preload(dep, kv, values)
    for pid in dep.services["shard-1"].server_pids:
        dep.crash(pid)
    # A drain parks early, so a warm-phase coordinator crash must
    # *resume* (the dead source cannot serve its keys regardless).
    _arm_crash(dep, plane, victim, "snapshot")
    from repro.placement import ElasticKV
    audit_kv = ElasticKV(plane, worker)

    async def scenario():
        await plane.drain_dead_shard("shard-1")
        for key in KEYS:
            result = await audit_kv.get(key)
            assert result.ok and result.args == values[key], key

    dep.run_scenario(scenario(), extra_time=0.5)
    assert plane.epoch == 1
    assert "shard-1" not in plane.ring
    assert dep.metrics.value("placement.view.takeovers") == 1


def test_stranded_plan_recovered_from_membership_stream():
    """The supervising caller runs *on the coordinator's node* and dies
    with it: nobody is left awaiting the migration, so recovery must
    start from the membership stream (:meth:`PlacementPlane.on_member`)."""
    dep = Deployment(seed=38, observatory=True)
    plane, kv = build_elastic_kv(dep, 3, clients=3)
    dep.auto_rebind(plane=plane)
    victim = plane.coordinator
    worker = [p for p in plane.coordinators if p != victim][0]
    values = {}
    _preload(dep, kv, values)
    _arm_crash(dep, plane, victim, "catchup")
    from repro.placement import ElasticKV
    audit_kv = ElasticKV(plane, worker)

    async def grow():
        await plane.add_shard()

    async def scenario():
        runtime = dep.runtime
        dep.spawn_client(victim, grow(), name="grow-on-coordinator")
        deadline = runtime.now() + 20.0
        while plane.epoch == 0 and runtime.now() < deadline:
            await runtime.sleep(0.05)
        assert plane.epoch == 1, "stranded migration was never recovered"
        for key in KEYS:
            result = await audit_kv.get(key)
            assert result.ok and result.args == values[key], key

    dep.run_scenario(scenario(), extra_time=0.5)
    assert len(plane.ring) == 4
    assert plane.coordinator != victim
    assert dep.views.load_plan() is None


def test_orphaned_plan_recovered_without_a_rebind_driver():
    """The supervisor's node dies first (the runner, on the still-live
    coordinator, carries on unsupervised), then the coordinator: the
    plan is left with no task driving it.  The plane's own ``placement``
    slot must pick it up — no ``auto_rebind(plane=...)`` installed."""
    dep = Deployment(seed=40, observatory=True)
    plane, kv = build_elastic_kv(dep, 3, clients=3)
    coordinator = plane.coordinator
    supervisor, worker = [p for p in plane.coordinators
                          if p != coordinator]
    values = {}
    _preload(dep, kv, values)
    fired = []

    async def killer():
        dep.crash(supervisor)
        await dep.runtime.sleep(0.0001)  # let the supervisor unwind
        dep.crash(coordinator)

    def hook(phase):
        if phase == "catchup" and not fired:
            fired.append(phase)
            dep.runtime.spawn(killer(), name="killer", daemon=True)

    plane.phase_hook = hook
    from repro.placement import ElasticKV
    audit_kv = ElasticKV(plane, worker)

    async def grow():
        await plane.add_shard()

    async def scenario():
        runtime = dep.runtime
        dep.spawn_client(supervisor, grow(), name="grow-on-supervisor")
        deadline = runtime.now() + 20.0
        while plane.epoch == 0 and runtime.now() < deadline:
            await runtime.sleep(0.05)
        assert plane.epoch == 1, "orphaned migration was never recovered"
        for key in KEYS:
            result = await audit_kv.get(key)
            assert result.ok and result.args == values[key], key

    dep.run_scenario(scenario(), extra_time=0.5)
    assert len(plane.ring) == 4
    assert plane.coordinator == worker
    assert dep.views.load_plan() is None


def _queued_grow_race(phase, *, kill_coordinator):
    """Grow A runs under a supervisor on a non-coordinator client; grow B
    queues on the migration lock behind it, from the third client, at
    A's ``snapshot`` hook.  A's supervisor node is crashed at ``phase``
    (and, with ``kill_coordinator``, the coordinator 0.1 ms later).

    Returns the plane, B's outcome, and the acknowledged keys that do
    not read back."""
    from repro.errors import PlacementError
    from repro.placement import ElasticKV
    dep = Deployment(seed=40, observatory=True)
    plane, kv = build_elastic_kv(dep, 3, clients=3)
    coordinator = plane.coordinator
    supervisor, worker = [p for p in plane.coordinators
                          if p != coordinator]
    values = {}
    _preload(dep, kv, values)
    fired = set()
    queued = {}

    async def grow_b():
        try:
            queued["shard"] = (await plane.add_shard()).name
        except PlacementError:
            queued["raised"] = True

    async def killer():
        dep.crash(supervisor)
        if kill_coordinator:
            await dep.runtime.sleep(0.0001)
            dep.crash(coordinator)

    def hook(p):
        if p == "snapshot" and "queue" not in fired:
            fired.add("queue")
            dep.spawn_client(worker, grow_b(), name="grow-b")
        if p == phase and "kill" not in fired:
            fired.add("kill")
            dep.runtime.spawn(killer(), name="killer", daemon=True)

    plane.phase_hook = hook
    audit_kv = ElasticKV(plane, worker)
    missing = []

    async def scenario():
        runtime = dep.runtime
        dep.spawn_client(supervisor, plane.add_shard(), name="grow-a")
        deadline = runtime.now() + 20.0
        while not queued and runtime.now() < deadline:
            await runtime.sleep(0.05)
        assert queued, "the queued grow never finished"
        for key in KEYS:
            result = await audit_kv.get(key)
            if not (result.ok and result.args == values[key]):
                missing.append(key)

    dep.run_scenario(scenario(), extra_time=0.5)
    return dep, plane, queued, missing


@pytest.mark.parametrize("phase", ["transfer", "catchup"])
def test_queued_reshape_waits_out_an_orphaned_runner(phase):
    """A reshape that takes the migration lock from a dead supervisor
    must let the still-running migration finish, then reshape the ring
    that migration committed — not run a second migration beside it."""
    dep, plane, queued, missing = _queued_grow_race(
        phase, kill_coordinator=False)
    assert missing == []
    assert queued == {"shard": "shard-4"}
    assert {"shard-3", "shard-4"} <= set(plane.ring.nodes)
    assert plane.epoch == 2
    assert dep.views.load_plan() is None
    for key in KEYS:
        holders = [name for name in plane.ring.nodes
                   if key in dep.services[name].app(
                       dep.services[name].server_pids[0]).data]
        assert holders == [plane.ring.route(key)], key


@pytest.mark.parametrize("phase", ["snapshot", "transfer"])
def test_queued_reshape_finishes_an_orphaned_plan_before_its_own(phase):
    """Supervisor, then coordinator: the queued reshape holds the lock
    when the orphaned runner dies, so it must take the orphaned plan
    over first — and still put its own shard on the ring (or raise),
    never return with it missing."""
    dep, plane, queued, missing = _queued_grow_race(
        phase, kill_coordinator=True)
    assert missing == []
    assert dep.views.load_plan() is None
    if "shard" in queued:
        assert queued["shard"] in plane.ring


def test_idle_coordinator_crash_is_a_quiet_takeover():
    dep = Deployment(seed=39, observatory=True)
    plane, kv = build_elastic_kv(dep, 3, clients=3)
    dep.auto_rebind(plane=plane)
    victim = plane.coordinator
    values = {}
    _preload(dep, kv, values)
    dep.crash(victim)                    # no migration in flight

    async def scenario():
        await dep.runtime.sleep(0.5)     # let recovery tasks settle
        assert plane.epoch == 0          # nothing to recover
        await plane.add_shard()          # next reshape just re-elects

    dep.run_scenario(scenario(), extra_time=0.5)
    assert plane.epoch == 1
    assert plane.coordinator != victim
    assert dep.metrics.value("placement.view.rollbacks") == 0
