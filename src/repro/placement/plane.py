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

**Coordinator failover.**  Migration phases run as a task *owned by the
coordinator node*, so a coordinator crash cancels the run exactly where
a real site failure would abandon it.  The plan and per-move snapshots
are replicated (:class:`~repro.placement.view.ViewManager`), so the
supervising driver elects a successor — the largest live candidate pid,
the same rule replica groups use to elect a primary — and resumes the
migration from its last persisted phase, or rolls it back when nothing
irreversible has happened yet:

* crash during **snapshot/transfer** (plan phase ``warm``): roll back —
  the destinations only hold warm-ingested copies, so they are scrubbed
  and the old view stands (a dead-shard *drain* instead resumes: its
  source cannot serve the keys anyway);
* crash during **catch-up**: resume — the sources were never mutated by
  catch-up, so re-running the full re-list against the persisted warm
  snapshots is idempotent;
* crash during **cutover**: resume *cutover only*, from the persisted
  manifest of final key sets — re-running catch-up here would misread
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
    Iterable,
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
from repro.placement.migration import KeyMigration, ShardMove
from repro.placement.ring import HashRing, plan_moves
from repro.placement.view import PlacementView, ViewManager

__all__ = ["PlacementPlane", "ElasticKV", "build_elastic_kv"]


class PlacementPlane:
    """Owns key placement for a set of shard services of one deployment."""

    def __init__(self, deployment: Any, *, vnodes: int = 64, seed: int = 0,
                 coordinator: Optional[int] = None):
        self.deployment = deployment
        self.ring = HashRing(vnodes=vnodes, seed=seed)
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
        #: True exactly while a phase runner (initial or recovery) is
        #: executing; lets :meth:`recover` distinguish a stranded plan
        #: from one an alive runner is still working through.
        self._runner_active = False
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

    async def add_shard(self, name: Optional[str] = None, *,
                        spec: Optional[ServiceSpec] = None,
                        servers: Union[int, Iterable[int], None] = None,
                        app_factory: Any = None) -> Any:
        """Grow the ring by one shard, migrating its key ranges in.

        Unspecified arguments fall back to the defaults recorded by
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
            prefix = defaults.get("name_prefix", "shard")
            while f"{prefix}-{self._next_index}" in self.ring:
                self._next_index += 1
            name = f"{prefix}-{self._next_index}"
            self._next_index += 1
        if name in self.ring:
            raise PlacementError(f"shard {name!r} is already on the ring")
        deployment = self.deployment
        if name in deployment.services:
            if self.coordinators:
                self._ensure_coordinator(reason=f"add:{name}")
            await self._wipe(name)
            self.dead.discard(name)
            service = deployment.services[name]
        else:
            if self.coordinator is None:
                raise PlacementError(
                    "adopt at least one shard before growing the ring")
            service = deployment.add_service(
                name,
                spec if spec is not None else defaults.get(
                    "spec", ServiceSpec()),
                app_factory if app_factory is not None else defaults.get(
                    "app_factory", StableKVStore),
                servers=servers if servers is not None else defaults.get(
                    "servers_per_shard", 1),
                clients=defaults.get("client_pids",
                                     [self.coordinator]))
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

        await self._migrate(reshape, reason=f"add:{name}")
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

        await self._migrate(reshape, reason=f"remove:{name}")

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

        await self._migrate(reshape, reason=f"drain:{name}",
                            park_early=True)

    # ------------------------------------------------------------------
    # Coordinator election and failover
    # ------------------------------------------------------------------

    def _elect(self) -> Optional[int]:
        """The largest live, unsuspected candidate pid (the replica
        groups' election rule), or None."""
        deployment = self.deployment
        suspected = deployment.control.suspected
        live = [pid for pid in self.coordinators
                if pid in deployment.nodes and deployment.nodes[pid].up
                and pid not in suspected]
        return max(live, default=None)

    def _ensure_coordinator(self, *, reason: str = "") -> None:
        """Re-elect before starting work if the coordinator is down."""
        deployment = self.deployment
        node = deployment.nodes.get(self.coordinator) \
            if self.coordinator is not None else None
        if (node is not None and node.up
                and self.coordinator not in deployment.control.suspected):
            return
        successor = self._elect()
        if successor is None:
            raise PlacementError(
                f"no live coordinator candidate "
                f"(candidates: {self.coordinators})")
        previous, self.coordinator = self.coordinator, successor
        self.metrics.counter("placement.view.takeovers").inc()
        if self._flight is not None:
            self._flight.note("coord-takeover", previous=previous,
                              successor=successor, phase=None,
                              reason=reason or "pre-migration")

    def on_member(self, pid: int, alive: bool) -> None:
        """Control-loop ``placement`` slot: the coordinator is
        suspected.  If a persisted plan is stranded — the migration's
        supervising caller died with the coordinator — a recovery task
        picks it up; a live supervisor observes the cancellation itself
        and needs no help."""
        if alive or pid != self.coordinator:
            return
        self.deployment.runtime.spawn(
            self._recover_if_stranded(),
            name="placement-recover", daemon=True)

    async def _recover_if_stranded(self) -> None:
        runtime = self.deployment.runtime
        # Let in-flight cancellations unwind: the runner's own teardown
        # (and a live supervisor's failover) runs first.
        while self._runner_active:
            await runtime.sleep(0.0005)
        try:
            await self.recover()
        except PlacementError:
            if self._flight is not None:
                self._flight.note("recover-failed",
                                  coordinator=self.coordinator)

    async def recover(self) -> bool:
        """Resume (or roll back) a stranded migration from the
        replicated plan.  Returns True when there was one to recover.

        Safe to call at any time: a migration whose supervisor is alive
        holds the migration lock until it completes, and an orphaned
        runner (supervisor died, coordinator didn't) is waited out — by
        the time the plan is inspected, its presence really means the
        migration has no one driving it.
        """
        runtime = self.deployment.runtime
        async with self._mig_lock:
            while self._runner_active:
                await runtime.sleep(0.0005)
            if self.views.load_plan() is None:
                return False
            started = runtime.now()
            outcome: Dict[str, Any] = {}
            task = self._failover("recover", outcome)
            if task is None:
                return False
            await self._supervise(task, "recover", outcome)
            self.metrics.counter("placement.migration.runs").inc()
            self.metrics.histogram(
                "placement.migration.duration").observe(
                    runtime.now() - started)
            self._publish_gauges()
            return True

    def _failover(self, reason: str,
                  outcome: Dict[str, Any]) -> Optional[Any]:
        """Elect a successor and hand it the persisted plan.  Returns
        the spawned recovery runner, or None when there is nothing to
        recover."""
        views = self.views
        previous = self.coordinator
        successor = self._elect()
        plan = views.load_plan()
        phase = plan.get("phase") if plan is not None else None
        if successor is None:
            # No live candidate can even issue the rollback RPCs:
            # release the parked calls against the old ring and surface
            # the stranding.  The plan stays persisted — a later
            # :meth:`recover` can still finish the job.
            self._release()
            raise PlacementError(
                f"coordinator {previous} is down mid-migration "
                f"({reason!r}, phase {phase!r}) and no successor "
                f"candidate is live")
        if successor != previous:
            self.coordinator = successor
            self.metrics.counter("placement.view.takeovers").inc()
            if self._flight is not None:
                self._flight.note("coord-takeover", previous=previous,
                                  successor=successor, phase=phase,
                                  reason=reason)
        if plan is None:
            # The crash landed before the proposal was persisted (or
            # after the commit cleared it): the old view stands.
            self._release()
            return None
        node = self.deployment.nodes[successor]
        return node.spawn(self._recover_phases(plan, reason, outcome),
                          name=f"placement-recover-{reason}")

    # ------------------------------------------------------------------
    # The migration driver
    # ------------------------------------------------------------------

    async def _migrate(self, reshape: Any, *, reason: str,
                       park_early: bool = False) -> Optional[KeyMigration]:
        runtime = self.deployment.runtime
        async with self._mig_lock:
            # The target ring is derived from the *current* ring only
            # once the lock is held: a reshape that queued behind another
            # migration must not clobber its predecessor's outcome.
            target = reshape()
            if target is None:
                return None
            self._ensure_coordinator(reason=reason)
            started = runtime.now()
            obs = self.deployment.obs
            span = None
            if obs is not None:
                span = obs.start_span(
                    "placement.migrate", node=self.coordinator,
                    attrs={"reason": reason, "epoch": self.epoch})
                obs.push_ctx(span.ctx)
            outcome: Dict[str, Any] = {}
            migration = None
            try:
                migration = await self._drive(target, park_early, reason,
                                              outcome)
            finally:
                if obs is not None:
                    obs.pop_ctx()
                    obs.end_span(span, keys_moved=(
                        migration.moved_total if migration else 0))
            self.metrics.counter("placement.migration.runs").inc()
            self.metrics.histogram("placement.migration.duration").observe(
                runtime.now() - started)
            self._publish_gauges()
            return migration

    async def _drive(self, target: HashRing, park_early: bool,
                     reason: str,
                     outcome: Dict[str, Any]) -> Optional[KeyMigration]:
        """Run the phases as a coordinator-owned task and supervise it:
        a coordinator crash cancels the runner, and the supervisor fails
        the migration over to an elected successor."""
        node = self.deployment.nodes[self.coordinator]
        task = node.spawn(
            self._run_phases(target, park_early, reason, outcome),
            name=f"placement-migrate-{reason}")
        return await self._supervise(task, reason, outcome)

    async def _supervise(self, task: Any, reason: str,
                         outcome: Dict[str, Any]) -> Optional[KeyMigration]:
        runtime = self.deployment.runtime
        deployment = self.deployment
        while True:
            try:
                await runtime.join(task)
                return outcome.get("migration")
            except TaskCancelled:
                coord = deployment.nodes.get(self.coordinator)
                if coord is not None and coord.up:
                    # The *supervisor* was cancelled (its node crashed),
                    # not the runner: let the cancellation unwind.  An
                    # orphaned runner finishes on its own; an orphaned
                    # plan is picked up by on_member.
                    raise
                task = self._failover(reason, outcome)
                if task is None:
                    return outcome.get("migration")

    async def _run_phases(self, target: HashRing, park_early: bool,
                          reason: str, outcome: Dict[str, Any]) -> None:
        views = self.views
        self._runner_active = True
        try:
            keys_by_shard = {}
            for name in self.ring.nodes:
                keys_by_shard[name] = await self._shard_keys(name)
            moves = [ShardMove(source, dest, keys) for (source, dest), keys
                     in plan_moves(target, keys_by_shard).items()]
            migration = KeyMigration(
                self.deployment, self.coordinator, moves, epoch=self.epoch,
                dead=self.dead,
                stable_prefix=StableKVStore.STABLE_PREFIX,
                target=target, sources=self.ring.nodes,
                views=views, phase_hook=self._fire_hook)
            outcome["migration"] = migration
            views.propose(self._plan_blob(target, migration, park_early,
                                          reason, phase="warm"),
                          reason=reason)
            # Park by ownership change, not by the enumerated plan: a key
            # created during the migration still parks if its range moves.
            old = self.ring

            def moving(key: str) -> bool:
                return old.route(key) != target.route(key)

            try:
                if park_early:
                    self._park(moving)
                    await self._drain_inflight()
                await migration.warm_transfer()
                if not park_early:
                    self._park(moving)
                    await self._drain_inflight()
                views.update_plan(phase="catchup")
                self._fire_hook("catchup")
                await migration.catch_up()
                views.update_plan(phase="cutover",
                                  moves=self._moves_blob(migration),
                                  dead=sorted(self.dead))
                self._fire_hook("cutover")
                await migration.cutover()
            except TaskCancelled:
                # Coordinator crash: leave the gate closed and the plan
                # persisted — the supervisor (or a recovery task) fails
                # over to a successor.
                raise
            except BaseException:
                # A migration error (e.g. a destination rejecting its
                # ingest) aborts the reshape: the old view stands.
                views.rollback(reason=f"{reason}:error")
                self._release()
                raise
            self._commit(target, migration, reason)
        finally:
            self._runner_active = False

    async def _recover_phases(self, plan: Dict[str, Any], reason: str,
                              outcome: Dict[str, Any]) -> None:
        """Successor-side resumption: rebuild the migration from the
        replicated plan and continue from its last persisted phase (or
        roll it back)."""
        views = self.views
        spec = plan["target"]
        target = HashRing(spec["shards"], vnodes=spec["vnodes"],
                          seed=spec["seed"])
        park_early = bool(plan.get("park_early"))
        phase = plan.get("phase", "warm")
        self.dead.update(plan.get("dead", ()))
        moves = []
        for blob in plan["moves"]:
            move = ShardMove(blob["source"], blob["dest"],
                             list(blob["keys"]))
            move.moved = int(blob.get("moved", 0))
            moves.append(move)
        migration = KeyMigration(
            self.deployment, self.coordinator, moves,
            epoch=int(plan["epoch"]), dead=self.dead,
            stable_prefix=StableKVStore.STABLE_PREFIX,
            target=target, sources=list(plan["sources"]),
            views=views, phase_hook=self._fire_hook)
        outcome["migration"] = migration
        old = self.ring

        def moving(key: str) -> bool:
            return old.route(key) != target.route(key)

        self._runner_active = True
        try:
            try:
                if phase == "warm" and not park_early:
                    # Nothing irreversible has happened: the sources
                    # were never mutated and the destinations hold only
                    # warm-ingested copies.  Roll back.
                    await migration.rollback()
                    views.rollback(reason=f"{reason}:coordinator-crash")
                    self._release()
                    outcome["migration"] = None
                    return
                if phase == "warm":
                    # A dead-shard drain resumes instead: its source
                    # cannot serve the moving keys anyway.  Warm work is
                    # idempotent (snapshot re-reads, ingest overwrites).
                    if self._gate is None:
                        self._park(moving)
                    await self._drain_inflight()
                    await migration.warm_transfer()
                    views.update_plan(phase="catchup")
                    self._fire_hook("catchup")
                    await migration.catch_up()
                    views.update_plan(phase="cutover",
                                      moves=self._moves_blob(migration),
                                      dead=sorted(self.dead))
                    self._fire_hook("cutover")
                    await migration.cutover()
                elif phase == "catchup":
                    # Catch-up never mutates the sources, so a full
                    # re-run against the persisted warm snapshots is
                    # idempotent.  The gate survived the crash (it lives
                    # on the plane), so the quiet window still holds.
                    migration.load_snapshots()
                    if self._gate is None:
                        self._park(moving)
                    await self._drain_inflight()
                    await migration.catch_up()
                    views.update_plan(phase="cutover",
                                      moves=self._moves_blob(migration),
                                      dead=sorted(self.dead))
                    self._fire_hook("cutover")
                    await migration.cutover()
                else:
                    # Cutover: catch-up completed, so the persisted
                    # manifest holds the final key sets.  Only the drops
                    # may be partial; re-dropping is idempotent.
                    # Re-running catch-up here would misread keys the
                    # first cutover already dropped from a source as
                    # deletions — and drop them from the destination.
                    if self._gate is None:
                        self._park(moving)
                    await migration.cutover()
            except TaskCancelled:
                raise                   # next successor takes over
            except BaseException:
                views.rollback(reason=f"{reason}:error")
                self._release()
                raise
            self._commit(target, migration, reason)
        finally:
            self._runner_active = False

    def _commit(self, target: HashRing, migration: KeyMigration,
                reason: str) -> None:
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

    def _plan_blob(self, target: HashRing, migration: KeyMigration,
                   park_early: bool, reason: str,
                   phase: str) -> Dict[str, Any]:
        return {
            "epoch": self.epoch,
            "target_epoch": self.epoch + 1,
            "phase": phase,
            "reason": reason,
            "park_early": park_early,
            "target": {"shards": list(target.nodes),
                       "vnodes": target.vnodes, "seed": target.seed},
            "sources": list(migration.sources),
            "moves": self._moves_blob(migration),
            "dead": sorted(self.dead),
        }

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
        prefix = StableKVStore.STABLE_PREFIX
        service = self.deployment.services.get(name)
        if service is None:
            return []
        keys: Set[str] = set()
        for pid in service.server_pids:
            node = self.deployment.nodes.get(pid)
            if node is not None:
                keys.update(cell[len(prefix):] for cell
                            in node.stable.keys_with_prefix(prefix))
        return sorted(keys)

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
        prefix = StableKVStore.STABLE_PREFIX
        service = self.deployment.services.get(name)
        if service is None:
            return
        for pid in service.server_pids:
            node = self.deployment.nodes.get(pid)
            if node is None:
                continue
            for cell in list(node.stable.keys_with_prefix(prefix)):
                node.stable.delete(cell)

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<PlacementPlane shards={self.ring.nodes} "
                f"epoch={self.epoch}>")


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

    def shard_of(self, key: Any) -> str:
        return self.plane.ring.route(str(key))

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
                     vnodes: int = 64,
                     seed: int = 0,
                     name_prefix: str = "shard",
                     app_factory: Any = StableKVStore,
                     replication: Any = None):
    """Deploy ``n_shards`` stable-backed KV services under a placement
    plane; returns ``(plane, kv)``.

    The default spec gives every shard exactly-once, serially-executed
    semantics with bounded termination — bounded termination is what
    turns a call to a dead shard into a TIMEOUT the migration machinery
    can observe, rather than a hang.  The default application is
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
    plane = PlacementPlane(deployment, vnodes=vnodes, seed=seed)
    first = None
    for i in range(n_shards):
        name = f"{name_prefix}-{i}"
        service = deployment.add_service(
            name, spec, app_factory, servers=servers_per_shard,
            clients=clients if first is None else first.client_pids)
        if first is None:
            first = service
        plane.adopt(name)
    if replication is not None:
        from repro.replication import ReplicationManager
        manager = ReplicationManager.ensure(deployment)
        for i in range(n_shards):
            manager.replicate(f"{name_prefix}-{i}", replication)
    plane.defaults = {
        "spec": spec,
        "app_factory": app_factory,
        "servers_per_shard": servers_per_shard,
        "client_pids": list(first.client_pids),
        "name_prefix": name_prefix,
        "replication": replication,
    }
    plane._next_index = n_shards
    return plane, ElasticKV(plane, first.client_pids[0])
