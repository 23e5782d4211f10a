"""The live key-migration micro-protocol (snapshot / transfer / catch-up
/ cutover).

When the ring changes shape, the affected key ranges must travel from
their old owner to their new one *while the system keeps serving*.  One
:class:`KeyMigration` executes the moves of one resize in four phases,
all through the ordinary group-RPC call path (``snapshot`` / ``ingest``
/ ``drop_keys`` are plain operations of the shard application, so they
inherit whatever semantics the shard's micro-protocol stack provides):

1. **snapshot** — read the source shard's state and restrict it to the
   moving keys; the snapshot is persisted to every metadata replica's
   stable store so a coordinator crash mid-migration cannot strand a
   half-transferred range invisibly;
2. **transfer** — bulk-``ingest`` the snapshot into the destination.
   Client writes still flow to the source during this warm phase;
3. **catch-up** — with the moving *ranges* parked by the placement
   plane, re-list every source shard **in full** and ship every key
   whose owner changes under the target ring: updates and deletions
   that raced the warm transfer, but also keys *created* after the
   plan was drawn, which the frozen move list cannot know about;
4. **cutover** — ``drop_keys`` on the source (the recomputed key set,
   not the planned one), so no key is ever owned by two shards once
   the parked calls are released against the new ring.

If the source shard is dead (or dies mid-phase, detected by a failed
call), the protocol falls back to **salvage**: reading the source
servers' stable store directly — the simulation's stand-in for mounting
a failed site's disk.  Shards built on :class:`~repro.apps.kvstore.
StableKVStore` persist every acknowledged write, so salvage recovers
exactly the acknowledged state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.apps.kvstore import StableKVStore
from repro.core.messages import CallResult

__all__ = ["ShardMove", "KeyMigration", "stable_cells"]

#: Stable-store cell prefix under which migration snapshots are parked on
#: the metadata replicas.
SNAPSHOT_PREFIX = "placement.migration."


def stable_cells(deployment: Any,
                 shard: str) -> Iterator[Tuple[Any, str, str]]:
    """Every cell of a shard's stable KV mirror as ``(store, cell,
    key)``, read straight off its servers' disks, down or not — the
    simulation's stand-in for mounting a failed site's storage."""
    service = deployment.services.get(shard)
    if service is None:
        return
    prefix = StableKVStore.STABLE_PREFIX
    for pid in service.server_pids:
        node = deployment.nodes.get(pid)
        if node is not None:
            for cell in node.stable.keys_with_prefix(prefix):
                yield node.stable, cell, cell[len(prefix):]


@dataclass
class ShardMove:
    """One directed key transfer: ``keys`` travel ``source -> dest``."""

    source: str
    dest: str
    keys: List[str]
    #: Warm-phase snapshot (moving keys only), diffed at catch-up.
    snapshot: Dict[str, Any] = field(default_factory=dict)
    #: Distinct keys actually shipped (warm + catch-up united).
    moved: int = 0

    @property
    def key_set(self) -> Set[str]:
        return set(self.keys)


class KeyMigration:
    """Executes every :class:`ShardMove` of one ring resize."""

    def __init__(self, deployment: Any, coordinator: int,
                 moves: List[ShardMove], *, epoch: int, views: Any,
                 target: Any,
                 dead: Optional[Set[str]] = None,
                 sources: Optional[List[str]] = None,
                 phase_hook: Any = None):
        self.deployment = deployment
        self.coordinator = coordinator
        self.moves = moves
        self.epoch = epoch
        #: Shard services known (or discovered) to be unreachable; shared
        #: with the plane so a mid-migration death is remembered.
        self.dead: Set[str] = dead if dead is not None else set()
        self.metrics = deployment.metrics
        #: Target :class:`~repro.placement.ring.HashRing`: catch-up
        #: re-lists every source in full and migrates *any* key whose
        #: owner changes under it — including keys created after the
        #: plan was drawn.
        self.target = target
        #: Every shard that may hold departing keys; defaults to the
        #: planned sources.
        self.sources: List[str] = (list(sources) if sources is not None
                                   else sorted({m.source for m in moves}))
        #: The observatory's flight recorder, or None: each phase leaves
        #: one causal breadcrumb so a post-mortem dump shows where a
        #: migration was when something else went wrong.
        self._flight = getattr(deployment, "flight", None)
        #: The deployment's :class:`~repro.placement.view.ViewManager`:
        #: per-move snapshots are persisted to *every* metadata
        #: replica's stable store, so a successor coordinator can resume
        #: catch-up with the original warm snapshots.
        self.views = views
        #: Optional callable fired at phase boundaries (``"snapshot"``,
        #: ``"transfer"``) inside the runner's own context; the plane
        #: fires ``"catchup"``/``"cutover"`` itself, after persisting
        #: the plan's phase marker.
        self.phase_hook = phase_hook

    def _hook(self, phase: str) -> None:
        hook = self.phase_hook
        if hook is not None:
            hook(phase)

    # ------------------------------------------------------------------
    # Phases (driven by the placement plane)
    # ------------------------------------------------------------------

    async def warm_transfer(self) -> None:
        """Phases 1+2 for every move: snapshot, persist, bulk-ingest.

        The source keeps serving; writes racing this phase are repaired
        by :meth:`catch_up`.
        """
        if self._flight is not None:
            self._flight.note("migration", phase="warm_transfer",
                              epoch=self.epoch, moves=len(self.moves))
        self._hook("snapshot")
        transferring = False
        for move in self.moves:
            move.snapshot = await self._read_source(move)
            self.views.put_cell(self._snapshot_cell(move), move.snapshot)
            if move.snapshot:
                if not transferring:
                    transferring = True
                    self._hook("transfer")
                await self._ingest(move.dest, move.snapshot)

    async def catch_up(self) -> None:
        """Phase 3: with the moving ranges parked, ship the differences.

        Each source is re-listed **in full** (not restricted to the
        planned keys) and every key whose owner differs under the target
        ring departs: updates and deletions that raced the warm
        transfer, plus keys created during the warm phase that the
        frozen plan never saw.  Departures to a destination with no
        planned move get a fresh :class:`ShardMove` so cutover retires
        them from the source too.
        """
        if self._flight is not None:
            self._flight.note("migration", phase="catch_up",
                              epoch=self.epoch, sources=len(self.sources))
        by_source: Dict[str, List[ShardMove]] = {}
        for move in self.moves:
            by_source.setdefault(move.source, []).append(move)
        for source in self.sources:
            fresh, salvaged = await self._read_full(source)
            departing: Dict[str, Dict[str, Any]] = {}
            for key, value in fresh.items():
                dest = self.target.route(key)
                if dest != source:
                    departing.setdefault(dest, {})[key] = value
            for move in by_source.get(source, []):
                entries = departing.pop(move.dest, {})
                updates = {key: value for key, value in entries.items()
                           if key not in move.snapshot
                           or move.snapshot[key] != value}
                deletions = [key for key in move.snapshot
                             if key not in fresh]
                if updates:
                    await self._ingest(move.dest, updates)
                if deletions and not salvaged:
                    # A salvaged read can't distinguish "deleted since
                    # the warm snapshot" from "not stably written"; keep
                    # the warm copy rather than guessing a deletion.
                    await self._call(move.dest, "drop_keys",
                                     {"keys": deletions})
                move.keys = sorted(move.key_set | set(entries))
                move.moved = len(set(move.snapshot) | set(entries))
            for dest, entries in sorted(departing.items()):
                if not entries:
                    continue
                move = ShardMove(source, dest, sorted(entries))
                await self._ingest(dest, entries)
                move.moved = len(entries)
                self.moves.append(move)

    async def cutover(self) -> None:
        """Phase 4: retire the moved range from every source."""
        if self._flight is not None:
            self._flight.note("migration", phase="cutover",
                              epoch=self.epoch, moves=len(self.moves))
        for move in self.moves:
            if move.source not in self.dead:
                result = await self._call(move.source, "drop_keys",
                                          {"keys": move.keys})
                if not result.ok:
                    # The source died between catch-up and cutover: its
                    # leftover copies are unreachable through the ring,
                    # and a later rejoin wipes them (PlacementPlane.
                    # add_shard).  Record the death and proceed.
                    self.dead.add(move.source)
            self.views.del_cell(self._snapshot_cell(move))
            self.metrics.counter("placement.migration.keys_moved").inc(
                move.moved)
        if self._flight is not None:
            self._flight.note("migration", phase="done",
                              epoch=self.epoch,
                              moved=self.moved_total)

    # ------------------------------------------------------------------
    # Source reading: RPC when alive, stable-store salvage when not
    # ------------------------------------------------------------------

    async def _read_source(self, move: ShardMove) -> Dict[str, Any]:
        """Warm-phase read of one move's planned keys."""
        data, _ = await self._read_full(move.source)
        return {key: data[key] for key in move.keys if key in data}

    async def _read_full(self, source: str) -> Tuple[Dict[str, Any], bool]:
        """One source's complete current state and whether it came from
        stable-store salvage rather than RPC."""
        if source in self.dead:
            return self._salvage(source), True
        result = await self._call(source, "snapshot", {})
        if not result.ok:
            self.dead.add(source)
            return self._salvage(source), True
        return dict(result.args or {}), False

    def _salvage(self, source: str) -> Dict[str, Any]:
        """Read everything off the dead source's "disk"."""
        self.metrics.counter("placement.migration.salvages").inc()
        return {key: store.get(cell) for store, cell, key
                in stable_cells(self.deployment, source)}

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    async def _call(self, service: str, op: str,
                    args: Dict[str, Any]) -> CallResult:
        return await self.deployment.call(self.coordinator, service, op,
                                          args)

    async def _ingest(self, dest: str, entries: Dict[str, Any]) -> None:
        from repro.errors import MigrationError
        result = await self._call(dest, "ingest", {"entries": entries})
        if not result.ok:
            raise MigrationError(
                f"destination shard {dest!r} rejected {len(entries)} "
                f"migrating entries (status {result.status.value}); "
                f"the source copy is still authoritative")

    def _snapshot_cell(self, move: ShardMove) -> str:
        return (f"{SNAPSHOT_PREFIX}{self.epoch}."
                f"{move.source}->{move.dest}")

    def load_snapshots(self) -> None:
        """Reload every move's persisted warm snapshot (successor-side).

        A move whose snapshot cell is missing (the crash landed before
        it was written) restarts from an empty snapshot, which is safe:
        catch-up treats every surviving source key as an update then.
        """
        for move in self.moves:
            snap = self.views.get_cell(self._snapshot_cell(move))
            move.snapshot = dict(snap) if snap else {}

    async def rollback(self) -> None:
        """Undo the warm phase: scrub the destinations' ingested copies.

        Only valid before catch-up completes — the sources were never
        mutated, so dropping the planned key sets from the destinations
        restores the pre-migration state exactly.  A destination that
        cannot be reached is recorded dead (its volatile copies die with
        it; a rejoin wipes its stable leftovers).
        """
        if self._flight is not None:
            self._flight.note("migration", phase="rollback",
                              epoch=self.epoch, moves=len(self.moves))
        for move in self.moves:
            if move.keys and move.dest not in self.dead:
                result = await self._call(move.dest, "drop_keys",
                                          {"keys": list(move.keys)})
                if not result.ok:
                    self.dead.add(move.dest)
            self.views.del_cell(self._snapshot_cell(move))

    @property
    def moved_total(self) -> int:
        return sum(move.moved for move in self.moves)
