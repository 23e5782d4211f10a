"""The placement plane: who owns which key, kept correct while the
system reshapes itself.

A :class:`PlacementPlane` sits between clients and a
:class:`~repro.core.deployment.Deployment`'s named shard services.  It
routes against the :class:`~repro.placement.ring.HashRing` described by
the deployment's current :class:`~repro.placement.view.PlacementView`
(an immutable, epoch-versioned metadata object replicated across the
coordinator candidates' stable stores), and every reshape —
:meth:`add_shard`, :meth:`remove_shard`, or a :meth:`drain_dead_shard`
triggered by the membership-driven :class:`~repro.placement.driver.
RebindDriver` — runs the live key-migration protocol of
:mod:`repro.placement.migration` so that no key is lost, duplicated, or
served stale across the resize.

Calls to keys inside a migrating range are **parked** during the
catch-up/cutover window (an event gate keyed by *ownership change* —
any key, existing or not yet created, whose owner differs between the
old and target ring) and released against the new ring once cutover
completes — "replayed" with fresh routing rather than erroring or
racing the transfer.  Calls to every other key proceed untouched, which
is what bounds the availability dip to the moving ranges.  Before the
catch-up snapshot is taken, the plane waits for in-flight calls that
already passed the gate to drain, so an acknowledged write can never
slip in between the re-snapshot and the cutover drop.

**One runner, one lock.**  Every reshape and every recovery enters
through one locked entry.  Under the migration lock it first waits out
a runner that is still live (its supervisor died and released the
lock), then finishes any plan still persisted in the replicated
:class:`~repro.placement.view.ViewManager`, and only then derives a
reshape's target from the ring that is now current.  So no lock holder
ever runs a migration beside another one or reshapes a ring a pending
plan is about to replace.

The phases of a plan run as one task *owned by the coordinator node*,
so a coordinator crash cancels the run exactly where a real site
failure would abandon it.  Its supervisor (the lock holder) then elects
a successor — the largest live candidate pid, the same rule replica
groups use to elect a primary — and, in the same scheduler step, starts
the same runner there on the persisted plan, from its last persisted
phase:

* plan phase ``warm`` (crash during snapshot/transfer): roll back — the
  destinations only hold warm-ingested copies, so they are scrubbed and
  the old view stands (a dead-shard *drain* instead resumes: its source
  cannot serve the keys anyway);
* ``catchup``: resume — the sources were never mutated by catch-up, so
  re-running the full re-list against the persisted warm snapshots is
  idempotent;
* ``cutover``: resume *cutover only*, from the persisted manifest of
  final key sets — re-running catch-up here would misread
  already-dropped source keys as deletions and lose data.

Acknowledged writes always live on exactly one side of the cut, so a
takeover at any phase loses no acknowledged call.

:class:`ElasticKV` is the client-side view (the elastic counterpart of
:class:`~repro.apps.sharding.ShardedKV`) and :func:`build_elastic_kv`
wires N stable-backed shard services plus a ready plane.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Union,
)

from repro.apps.kvstore import StableKVStore
from repro.core.config import ServiceSpec
from repro.core.messages import CallResult, Status
from repro.errors import PlacementError, TaskCancelled
from repro.placement.migration import KeyMigration, ShardMove, stable_cells
from repro.placement.ring import HashRing, plan_moves
from repro.placement.view import PLAN_PHASES, PlacementView, ViewManager

__all__ = ["PlacementPlane", "ElasticKV", "build_elastic_kv"]


class PlacementPlane:
    """Owns key placement for a set of shard services of one deployment."""

    def __init__(self, deployment: Any, *,
                 coordinator: Optional[int] = None):
        self.deployment = deployment
        self.ring = HashRing()
        #: The replicated metadata plane; the view's epoch is the
        #: routing-table version every stamped call carries.
        self.views = ViewManager.ensure(deployment)
        #: Client pid issuing the migration RPCs (must participate in
        #: every shard service); defaults to the first adopted shard's
        #: first client.  On a coordinator crash the largest live pid in
        #: :attr:`coordinators` takes over.
        self.coordinator = coordinator
        #: Every pid eligible to coordinate (and to hold a metadata
        #: replica); filled from the shard services' client sets.
        self.coordinators: List[int] = \
            [] if coordinator is None else [coordinator]
        self.metrics = deployment.metrics
        observatory = getattr(deployment, "observatory", None)
        #: The observatory's hot-key tracker, or None (attach-once).
        self._load = observatory.load if observatory is not None else None
        self._flight = getattr(deployment, "flight", None)
        #: Shard services known to be unreachable (RPC replaced by
        #: stable-store salvage).
        self.dead: Set[str] = set()
        #: Fault-injection / instrumentation hook: called synchronously
        #: at the start of each migration phase (``"snapshot"``,
        #: ``"transfer"``, ``"catchup"``, ``"cutover"``) in the
        #: coordinator-owned runner's context.  To inject a coordinator
        #: crash at a phase, spawn a killer task from the hook — a task
        #: cannot cancel itself.
        self.phase_hook: Optional[Callable[[str], None]] = None
        #: Predicate over key strings: True while calls to that key must
        #: park (None when no migration is in its parked window).
        self._park_pred: Any = None
        self._gate: Any = None
        #: Routed calls currently executing, counted per key, so a park
        #: can wait for calls that passed the gate before it closed.
        self._inflight: Dict[str, int] = {}
        self._drain_waiter: Any = None
        self._mig_lock = deployment.runtime.lock()
        #: The task of the latest phase runner; a lock holder joins it
        #: while it is live, whoever supervised it.
        self._runner: Any = None
        #: How new shards are built when :meth:`add_shard` is called
        #: without explicit arguments (filled by :func:`build_elastic_kv`).
        self.defaults: Dict[str, Any] = {}
        self._next_index = 0
        deployment.control.install("placement", self)

    # ------------------------------------------------------------------
    # Ring membership
    # ------------------------------------------------------------------

    def adopt(self, name: str) -> None:
        """Put an already-deployed service on the ring (no migration;
        used while assembling the initial layout)."""
        service = self.deployment.service(name)
        self.ring.add(name)
        if self.coordinator is None:
            self.coordinator = service.client_pids[0]
        for pid in service.client_pids:
            if pid not in self.coordinators:
                self.coordinators.append(pid)
        self._sync_view()
        self._publish_gauges()

    @property
    def shards(self) -> List[str]:
        return self.ring.nodes

    @property
    def epoch(self) -> int:
        """The current view epoch (bumped once per committed migration)."""
        return self.views.epoch

    # ------------------------------------------------------------------
    # The routed (and parkable) call path
    # ------------------------------------------------------------------

    async def call(self, client_pid: int, key: Any, op: str,
                   args: Dict[str, Any]) -> CallResult:
        """Route one keyed operation through the current ring.

        If ``key`` is inside a range that is being cut over right now,
        the call parks until the migration completes, then routes against
        the new ring — it can never observe a half-moved key.  The call
        is stamped with the view epoch it routed under; a bounce
        (``Status.REDIRECT``, impossible in this path unless the epoch
        moved between routing and dispatch) re-routes transparently.
        """
        key_str = str(key)
        self.metrics.counter("placement.router.lookups").inc()
        views = self.views
        while True:
            while self._gate is not None and self._park_pred(key_str):
                self.metrics.counter("placement.parked_calls").inc()
                await self._gate.wait()
            epoch = views.epoch
            service = self.ring.route(key_str)
            self.metrics.counter(
                f"placement.router.keys_routed.{service}").inc()
            if self._load is not None:
                self._load.note(service, key_str)
            self._inflight[key_str] = self._inflight.get(key_str, 0) + 1
            try:
                result = await self.deployment.call(
                    client_pid, service, op, args, view_epoch=epoch)
            finally:
                remaining = self._inflight[key_str] - 1
                if remaining:
                    self._inflight[key_str] = remaining
                else:
                    del self._inflight[key_str]
                self._notify_drained()
            if result.status is Status.REDIRECT:
                continue
            return result

    # ------------------------------------------------------------------
    # Reshaping
    # ------------------------------------------------------------------

    async def add_shard(self, name: Optional[str] = None) -> Any:
        """Grow the ring by one shard, migrating its key ranges in.

        A new shard takes the spec, server count and clients recorded by
        :func:`build_elastic_kv`.  Re-adding a previously drained or
        removed shard reuses its deployed service; any stale pre-crash
        state is wiped before the shard rejoins the ring, so it can never
        resurrect keys it no longer owns.  Under a replicated layout
        (``build_elastic_kv(replication=...)``) the new shard is a whole
        replica group: it gets the ReplicaSpec's server count and
        composition, and registers with the deployment's
        :class:`~repro.replication.manager.ReplicationManager` before any
        key moves in — migration then transfers ranges group-to-group.

        If the coordinator crashes mid-migration, a successor completes
        the resize (or rolls it back during the warm phase, in which
        case the service stays deployed but the ring is unchanged).
        """
        defaults = self.defaults
        rspec = defaults.get("replication")
        if name is None:
            while f"shard-{self._next_index}" in self.ring:
                self._next_index += 1
            name = f"shard-{self._next_index}"
            self._next_index += 1
        if name in self.ring:
            raise PlacementError(f"shard {name!r} is already on the ring")
        deployment = self.deployment
        if name in deployment.services:
            if self.coordinators:
                self._takeover(f"add:{name}")
            await self._wipe(name)
            self.dead.discard(name)
            service = deployment.services[name]
        else:
            if self.coordinator is None:
                raise PlacementError(
                    "adopt at least one shard before growing the ring")
            service = deployment.add_service(
                name, defaults.get("spec", ServiceSpec()), StableKVStore,
                servers=defaults.get("servers_per_shard", 1),
                clients=defaults.get("client_pids", [self.coordinator]))
            if rspec is not None:
                from repro.replication import ReplicationManager
                ReplicationManager.ensure(deployment).replicate(
                    name, rspec)
        def reshape() -> HashRing:
            if name in self.ring:
                raise PlacementError(
                    f"shard {name!r} is already on the ring")
            target = self.ring.copy()
            target.add(name)
            return target

        await self._run(f"add:{name}", reshape)
        return service

    async def remove_shard(self, name: str) -> None:
        """Shrink the ring by one shard, migrating its key ranges out.

        The service stays deployed (its nodes may carry other services);
        it simply no longer owns any keys.
        """
        if name not in self.ring:
            raise PlacementError(f"shard {name!r} is not on the ring")

        def reshape() -> Optional[HashRing]:
            if name not in self.ring:
                return None             # a queued drain got there first
            if len(self.ring) == 1:
                raise PlacementError(
                    "cannot remove the last shard: its keys have nowhere "
                    "to go")
            target = self.ring.copy()
            target.remove(name)
            return target

        await self._run(f"remove:{name}", reshape)

    async def drain_dead_shard(self, name: str) -> None:
        """Re-home a dead shard's key ranges from its stable storage.

        Called by the :class:`~repro.placement.driver.RebindDriver` when
        every server of a shard service is suspected.  The moving keys
        are parked for the whole migration (the source cannot serve them
        anyway), the key list and values are salvaged from the dead
        servers' stable store, and ownership cuts over to the survivors.
        """
        if name not in self.ring:
            return
        if len(self.ring) == 1:
            raise PlacementError(
                f"shard {name!r} is the only shard; nothing can absorb "
                f"its keys")
        self.dead.add(name)
        self.metrics.counter("placement.drains").inc()

        def reshape() -> Optional[HashRing]:
            if name not in self.ring:
                return None
            target = self.ring.copy()
            target.remove(name)
            return target

        await self._run(f"drain:{name}", reshape, park_early=True)

    # ------------------------------------------------------------------
    # Coordinator election and recovery
    # ------------------------------------------------------------------

    def _takeover(self, reason: str,
                  plan: Optional[Dict[str, Any]] = None) -> None:
        """Make sure a live, unsuspected candidate coordinates: the
        current one while it qualifies, else the largest live one (the
        replica groups' election rule), counted and taped as a
        ``coord-takeover``.  With no live candidate the parked calls are
        released against the old ring and the stranding surfaces; a
        persisted plan stays for a later :meth:`recover`."""
        deployment = self.deployment
        suspected = deployment.control.suspected
        previous = self.coordinator
        node = deployment.nodes.get(previous)
        if node is not None and node.up and previous not in suspected:
            return
        live = [pid for pid in self.coordinators
                if pid in deployment.nodes and deployment.nodes[pid].up
                and pid not in suspected]
        phase = plan["phase"] if plan is not None else None
        if not live:
            self._release()
            raise PlacementError(
                f"coordinator {previous} is down ({reason!r}, plan phase "
                f"{phase!r}) and no candidate is live (candidates: "
                f"{self.coordinators})")
        self.coordinator = max(live)
        self.metrics.counter("placement.view.takeovers").inc()
        if self._flight is not None:
            self._flight.note("coord-takeover", previous=previous,
                              successor=self.coordinator, phase=phase,
                              reason=reason)

    def on_member(self, pid: int, alive: bool) -> None:
        """Control-loop ``placement`` slot: the coordinator is
        suspected.  :meth:`recover` queues on the migration lock, so a
        live supervisor finishes its own failover first, and a plan with
        no one left driving it is picked up."""
        if alive or pid != self.coordinator:
            return
        self.deployment.runtime.spawn(
            self.recover(), name="placement-recover", daemon=True)

    async def recover(self) -> bool:
        """Resume (or roll back) a migration no one is driving, from the
        replicated plan.  Returns True when there was one to recover.

        Safe to call at any time: this is the locked entry without a
        reshape, so it waits for a live supervisor to finish and waits
        out a live runner whose supervisor died — by the time the plan
        is inspected, its presence really means no one is driving it.
        """
        try:
            return await self._run("recover")
        except PlacementError:
            if self._flight is not None:
                self._flight.note("recover-failed",
                                  coordinator=self.coordinator)
            raise

    # ------------------------------------------------------------------
    # The migration driver
    # ------------------------------------------------------------------

    async def _run(self, reason: str, reshape: Any = None, *,
                   park_early: bool = False) -> bool:
        """The one locked entry, for reshapes and recovery alike.

        Under the migration lock, in order: wait out a runner that is
        still live (its supervisor died and released the lock), finish
        a plan that is still persisted, and only then — when a
        ``reshape`` was asked for — derive its target from the ring now
        current and run it.  Returns True when a persisted plan was
        taken over."""
        runtime = self.deployment.runtime
        async with self._mig_lock:
            runner = self._runner
            if runner is not None and not runner.done:
                await self._supervise(runner, reason)
            resumed = self.views.load_plan() is not None
            if resumed:
                started = runtime.now()
                await self._supervise(self._resume(reason), reason)
                self._count_run(started)
            target = reshape() if reshape is not None else None
            if target is None:
                return resumed
            self._takeover(reason)
            started = runtime.now()
            obs = self.deployment.obs
            span = None
            if obs is not None:
                span = obs.start_span(
                    "placement.migrate", node=self.coordinator,
                    attrs={"reason": reason, "epoch": self.epoch})
                obs.push_ctx(span.ctx)
            migration = None
            try:
                migration = await self._supervise(self._spawn(
                    self._fresh(target, park_early, reason),
                    f"placement-migrate-{reason}"), reason)
            finally:
                if obs is not None:
                    obs.pop_ctx()
                    obs.end_span(span, keys_moved=(
                        migration.moved_total if migration else 0))
            self._count_run(started)
            return resumed

    def _count_run(self, started: float) -> None:
        self.metrics.counter("placement.migration.runs").inc()
        self.metrics.histogram("placement.migration.duration").observe(
            self.deployment.runtime.now() - started)
        self._publish_gauges()

    async def _supervise(self, task: Any,
                         reason: str) -> Optional[KeyMigration]:
        """Join a runner.  A coordinator crash cancels it: fail the plan
        over to a successor in the same scheduler step and join that
        runner instead.  Returns the last runner's migration (None when
        it rolled back or never persisted its plan)."""
        runtime = self.deployment.runtime
        while True:
            try:
                return await runtime.join(task)
            except TaskCancelled:
                coord = self.deployment.nodes.get(self.coordinator)
                if coord is not None and coord.up:
                    # The *supervisor* was cancelled (its node crashed),
                    # not the runner: let the cancellation unwind.  The
                    # runner carries on; the next lock holder waits it
                    # out.
                    raise
                task = self._resume(reason)
                if task is None:
                    return None

    def _resume(self, reason: str) -> Any:
        """Hand the persisted plan to a live coordinator: a runner
        resuming it from its phase, or None when there is no plan (the
        crash landed before the proposal was persisted, or after the
        commit cleared it: the view stands as it is)."""
        plan = self.views.load_plan()
        self._takeover(reason, plan)
        if plan is None:
            self._release()
            return None
        return self._spawn(self._phases(plan, reason, resumed=True),
                           f"placement-recover-{reason}")

    def _spawn(self, runner: Any, name: str) -> Any:
        self._runner = self.deployment.nodes[self.coordinator].spawn(
            runner, name=name)
        return self._runner

    async def _fresh(self, target: HashRing, park_early: bool,
                     reason: str) -> Optional[KeyMigration]:
        """A reshape's runner: enumerate the keys, persist the plan at
        ``warm``, run it.  The enumeration runs on the coordinator too,
        so a crash before the proposal dies with it."""
        keys_by_shard = {}
        for name in self.ring.nodes:
            keys_by_shard[name] = await self._shard_keys(name)
        plan = {
            "epoch": self.epoch,
            "target_epoch": self.epoch + 1,
            "phase": "warm",
            "reason": reason,
            "park_early": park_early,
            "target": {"shards": list(target.nodes),
                       "vnodes": target.vnodes, "seed": target.seed},
            "sources": list(self.ring.nodes),
            "moves": [{"source": source, "dest": dest, "keys": list(keys),
                       "moved": 0} for (source, dest), keys
                      in plan_moves(target, keys_by_shard).items()],
            "dead": sorted(self.dead),
        }
        self.views.propose(plan, reason=reason)
        return await self._phases(plan, reason, resumed=False)

    async def _phases(self, plan: Dict[str, Any], reason: str,
                      resumed: bool) -> Optional[KeyMigration]:
        """The one phase runner: rebuild the migration from the plan and
        run the steps of :data:`PLAN_PHASES` from the plan's phase on.
        The only resume-only branch: a resumed ``warm`` plan rolls back
        (nothing irreversible has happened yet) unless it is a drain,
        whose dead source cannot serve the moving keys anyway."""
        views = self.views
        spec = plan["target"]
        target = HashRing(spec["shards"], vnodes=spec["vnodes"],
                          seed=spec["seed"])
        park_early = plan["park_early"]
        phase = plan["phase"]
        self.dead.update(plan["dead"])
        moves = []
        for blob in plan["moves"]:
            move = ShardMove(blob["source"], blob["dest"],
                             list(blob["keys"]))
            move.moved = blob["moved"]
            moves.append(move)
        migration = KeyMigration(
            self.deployment, self.coordinator, moves, epoch=plan["epoch"],
            views=views, target=target, dead=self.dead,
            sources=list(plan["sources"]), phase_hook=self._fire_hook)
        # Park by ownership change, not by the enumerated plan: a key
        # created during the migration still parks if its range moves.
        # The gate closes before the first step that needs the moving
        # ranges quiet — a drain's warm transfer, else catch-up — and
        # survives a coordinator crash (it lives on the plane).
        old = self.ring

        def moving(key: str) -> bool:
            return old.route(key) != target.route(key)

        quiet = "catchup" if phase == "warm" and not park_early else phase
        try:
            if resumed and phase == "warm" and not park_early:
                await migration.rollback()
                views.rollback(reason=f"{reason}:coordinator-crash")
                self._release()
                return None
            for step in PLAN_PHASES[PLAN_PHASES.index(phase):]:
                if step == quiet:
                    if self._gate is None:
                        self._park(moving)
                    await self._drain_inflight()
                if step != phase:
                    # The marker is persisted before the step runs, so a
                    # crash from here on resumes this step.
                    views.update_plan(phase=step,
                                      moves=self._moves_blob(migration),
                                      dead=sorted(self.dead))
                    self._fire_hook(step)
                if step == "warm":
                    await migration.warm_transfer()
                elif step == "catchup":
                    if phase == "catchup":
                        migration.load_snapshots()
                    await migration.catch_up()
                else:
                    # Catch-up completed, so the manifest holds the final
                    # key sets and re-dropping is idempotent.  Re-running
                    # catch-up here would misread keys an earlier cutover
                    # already dropped from a source as deletions.
                    await migration.cutover()
        except TaskCancelled:
            raise                       # the supervisor fails it over
        except BaseException:
            # A migration error (e.g. a destination rejecting its
            # ingest) aborts the reshape: the old view stands.
            views.rollback(reason=f"{reason}:error")
            self._release()
            raise
        self._commit(target, reason)
        return migration

    def _commit(self, target: HashRing, reason: str) -> None:
        """Cut the metadata over: new ring, epoch+1, plan retired, gate
        released.  Synchronous — no crash window between its steps."""
        views = self.views
        self.ring = target
        views.commit(PlacementView.make(
            epoch=views.epoch + 1, ring=target,
            bindings=self._bindings(), moves=(), dead=self.dead),
            reason=reason)
        views.clear_plan()
        self._release()

    def _sync_view(self) -> None:
        """Publish the plane's current metadata on the view (same epoch)."""
        views = self.views
        views.replicas = sorted(set(self.coordinators))
        views.sync(PlacementView.make(
            epoch=views.epoch, ring=self.ring,
            bindings=self._bindings(),
            moves=views.current.moves, dead=self.dead))

    def _bindings(self) -> Dict[str, Any]:
        services = self.deployment.services
        return {name: tuple(services[name].group.members)
                for name in self.ring.nodes if name in services}

    def _fire_hook(self, phase: str) -> None:
        hook = self.phase_hook
        if hook is not None:
            hook(phase)

    @staticmethod
    def _moves_blob(migration: KeyMigration) -> List[Dict[str, Any]]:
        return [{"source": move.source, "dest": move.dest,
                 "keys": list(move.keys), "moved": move.moved}
                for move in migration.moves]

    async def _shard_keys(self, name: str) -> List[str]:
        """The keys a shard currently holds (RPC, or salvage if dead)."""
        if name not in self.dead:
            result = await self.deployment.call(self.coordinator, name,
                                                "keys", {})
            if result.ok:
                return list(result.args or [])
            self.dead.add(name)
        return sorted({key for _, _, key
                       in stable_cells(self.deployment, name)})

    async def _wipe(self, name: str) -> None:
        """Clear a rejoining shard's leftover state (volatile + stable).

        When the shard's servers cannot be reached (e.g. still down),
        their stable cells are scrubbed directly — a failed RPC must not
        be read as "nothing to wipe", or a later recovery would reload
        the pre-crash cells and resurrect keys the shard no longer owns.
        """
        result = await self.deployment.call(self.coordinator, name,
                                            "keys", {})
        if result.ok:
            leftover = list(result.args or [])
            if leftover:
                await self.deployment.call(self.coordinator, name,
                                           "drop_keys",
                                           {"keys": leftover})
            return
        for store, cell, _ in stable_cells(self.deployment, name):
            store.delete(cell)

    def _park(self, keys: Any) -> None:
        """Close the gate: ``keys`` is a set of key strings or a
        predicate over them (the latter covers whole hash ranges, so
        keys that do not exist yet park too)."""
        if callable(keys):
            self._park_pred = keys
        else:
            keyset = set(keys)
            self._park_pred = keyset.__contains__
        self._gate = self.deployment.runtime.event()

    async def _drain_inflight(self) -> None:
        """Wait until no in-flight routed call still targets a parked
        key — calls that passed the gate before it closed must land on
        the source before the catch-up snapshot is taken."""
        while self._park_pred is not None and any(
                self._park_pred(key) for key in self._inflight):
            self._drain_waiter = self.deployment.runtime.event()
            await self._drain_waiter.wait()

    def _notify_drained(self) -> None:
        waiter = self._drain_waiter
        if (waiter is not None and self._park_pred is not None
                and not any(self._park_pred(key)
                            for key in self._inflight)):
            self._drain_waiter = None
            waiter.set()

    def _release(self) -> None:
        gate, self._gate = self._gate, None
        self._park_pred = None
        self._drain_waiter = None
        if gate is not None:
            gate.set()

    def _publish_gauges(self) -> None:
        self.metrics.gauge("placement.ring.epoch").set(self.epoch)
        self.metrics.gauge("placement.ring.shards").set(len(self.ring))


class ElasticKV:
    """Client view of one keyspace whose shard set can change live.

    The elastic counterpart of :class:`~repro.apps.sharding.ShardedKV`:
    same surface, but every operation routes through the placement
    plane's ring *at call time* and participates in call parking, so the
    view stays correct across resizes without rebuilding it.
    """

    def __init__(self, plane: PlacementPlane, client_pid: int):
        self.plane = plane
        self.client_pid = client_pid

    async def put(self, key: Any, value: Any, **extra: Any) -> CallResult:
        return await self.plane.call(self.client_pid, key, "put",
                                     {"key": key, "value": value, **extra})

    async def get(self, key: Any) -> CallResult:
        return await self.plane.call(self.client_pid, key, "get",
                                     {"key": key})

    async def delete(self, key: Any) -> CallResult:
        return await self.plane.call(self.client_pid, key, "delete",
                                     {"key": key})

    async def keys(self) -> List[str]:
        """Union of keys across the ring's current shards (sorted)."""
        seen: set = set()
        for name in self.plane.ring.nodes:
            result = await self.plane.deployment.call(
                self.client_pid, name, "keys", {})
            if result.ok and result.args:
                seen.update(result.args)
        return sorted(seen)


def build_elastic_kv(deployment: Any, n_shards: int, *,
                     spec: Optional[ServiceSpec] = None,
                     servers_per_shard: int = 1,
                     clients: Union[int, Sequence[int]] = 1,
                     replication: Any = None):
    """Deploy ``n_shards`` stable-backed KV services under a placement
    plane; returns ``(plane, kv)``.

    The default spec gives every shard exactly-once, serially-executed
    semantics with bounded termination — bounded termination is what
    turns a call to a dead shard into a TIMEOUT the migration machinery
    can observe, rather than a hang.  Every shard runs a
    :class:`~repro.apps.kvstore.StableKVStore`, whose acknowledged
    writes survive crashes and are therefore salvageable when a shard
    dies mid-migration.

    Every client pid becomes a coordinator candidate and a metadata
    replica: pass ``clients >= 2`` to survive coordinator crashes
    mid-migration (with one candidate there is no successor to elect).

    ``replication`` (a :class:`~repro.replication.spec.ReplicaSpec`)
    makes every shard — current and future — a replica group: the
    ReplicaSpec supplies each shard's server count and composed
    micro-protocols (``spec``/``servers_per_shard`` must then be left at
    their defaults), the deployment's call path splits read/write
    routing per shard, and migrations move whole groups.
    """
    if n_shards < 1:
        raise PlacementError("need at least one shard")
    if replication is not None:
        if spec is not None or servers_per_shard != 1:
            raise PlacementError(
                "replication= supplies each shard's spec and replica "
                "count; don't also pass spec/servers_per_shard")
        spec = replication.service_spec()    # Figure-4 validation, now
        servers_per_shard = replication.replicas
    elif spec is None:
        spec = ServiceSpec(reliable=True, unique=True, execution="serial",
                           bounded=2.0, acceptance=1)
    plane = PlacementPlane(deployment)
    first = None
    for i in range(n_shards):
        name = f"shard-{i}"
        service = deployment.add_service(
            name, spec, StableKVStore, servers=servers_per_shard,
            clients=clients if first is None else first.client_pids)
        if first is None:
            first = service
        plane.adopt(name)
    if replication is not None:
        from repro.replication import ReplicationManager
        manager = ReplicationManager.ensure(deployment)
        for i in range(n_shards):
            manager.replicate(f"shard-{i}", replication)
    plane.defaults = {
        "spec": spec,
        "servers_per_shard": servers_per_shard,
        "client_pids": list(first.client_pids),
        "replication": replication,
    }
    plane._next_index = n_shards
    return plane, ElasticKV(plane, first.client_pids[0])
