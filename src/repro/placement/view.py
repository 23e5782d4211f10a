"""The replicated placement metadata plane: epoch-versioned views.

The placement plane used to keep its metadata — the hash ring, the
shard->group bindings, the in-flight migration plan — as coordinator-
private mutable state, so a coordinator crash mid-migration stranded
the deployment.  This module makes that metadata a first-class
replicated object:

* :class:`PlacementView` — an **immutable, epoch-versioned** snapshot of
  key placement: the ring generation (shard set + vnodes + seed, enough
  to rebuild the exact :class:`~repro.placement.ring.HashRing`), the
  shard->replica-group bindings, the active move set of the migration in
  progress, and the dead-shard set.  Views form a **join-semilattice**:
  :meth:`PlacementView.join` is idempotent, commutative and associative,
  with a higher epoch dominating outright and equal epochs merging
  componentwise — the shape Reconfigurable Lattice Agreement shows is
  sufficient to reconfigure metadata without full consensus.

* :class:`ViewManager` — one per deployment (``deployment.views``).  It
  holds the current view, **persists every epoch and the in-flight
  migration plan to the stable store of every coordinator candidate**
  (writes are fanned out; reads join whatever replicas still answer,
  including the disks of dead nodes — the simulation's stand-in for
  mounting a failed site's storage).  It holds the ``views`` slot of
  the deployment's :class:`~repro.core.control.ControlLoop`, which is
  where suspicion is tracked and what tears it down.

Stale-epoch call fencing rides on the same object: the placement plane
stamps each call with the epoch it routed under
(``Deployment.call(view_epoch=...)``); a stamped call whose epoch no
longer matches bounces with ``Status.REDIRECT`` instead of mis-routing
mid-migration.

All persistence is synchronous stable-store access — zero virtual time,
zero messages — so enabling views does not perturb seeded workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.messages import CallResult, Status
from repro.errors import ViewError
from repro.placement.ring import HashRing

__all__ = ["PlacementView", "ViewManager",
           "CURRENT_CELL", "PLAN_CELL", "EPOCH_PREFIX"]

#: Stable-store cell holding each replica's copy of the current view.
CURRENT_CELL = "placement.view.current"
#: Stable-store cell holding the in-flight migration plan (absent when
#: no migration is running — its presence *is* the recovery trigger).
PLAN_CELL = "placement.view.plan"
#: Per-epoch history cells (``placement.view.epoch.<n>``).
EPOCH_PREFIX = "placement.view.epoch."

#: Plan phases in execution order; recovery compares plans by
#: ``(epoch, phase rank)`` and resumes from the most advanced copy.
PLAN_PHASES = ("warm", "catchup", "cutover")


def _norm_bindings(bindings: Any) -> Tuple[Tuple[str, Tuple[int, ...]], ...]:
    if isinstance(bindings, dict):
        items: Iterable = bindings.items()
    else:
        items = bindings
    return tuple(sorted((str(name), tuple(sorted(int(p) for p in pids)))
                        for name, pids in items))


@dataclass(frozen=True)
class PlacementView:
    """One immutable generation of placement metadata.

    ``shards``/``vnodes``/``seed`` determine the routing function
    exactly (two views with equal fields rebuild byte-identical rings);
    ``bindings`` maps each shard service to its bound server group;
    ``moves`` is the active ``(source, dest)`` set of the migration in
    progress (empty when placement is quiescent); ``dead`` the shards
    known unreachable.
    """

    epoch: int = 0
    shards: Tuple[str, ...] = ()
    vnodes: int = 64
    seed: int = 0
    bindings: Tuple[Tuple[str, Tuple[int, ...]], ...] = ()
    moves: Tuple[Tuple[str, str], ...] = ()
    dead: Tuple[str, ...] = ()

    # -- construction ----------------------------------------------------

    @classmethod
    def make(cls, *, epoch: int, ring: HashRing,
             bindings: Any = (), moves: Iterable = (),
             dead: Iterable[str] = ()) -> "PlacementView":
        return cls(epoch=epoch,
                   shards=tuple(ring.nodes),
                   vnodes=ring.vnodes,
                   seed=ring.seed,
                   bindings=_norm_bindings(bindings),
                   moves=tuple(sorted((str(s), str(d))
                                      for s, d in moves)),
                   dead=tuple(sorted(set(dead))))

    def with_(self, **changes: Any) -> "PlacementView":
        """A successor view differing in the given fields (normalised)."""
        if "bindings" in changes:
            changes["bindings"] = _norm_bindings(changes["bindings"])
        if "moves" in changes:
            changes["moves"] = tuple(sorted(
                (str(s), str(d)) for s, d in changes["moves"]))
        if "dead" in changes:
            changes["dead"] = tuple(sorted(set(changes["dead"])))
        if "shards" in changes:
            changes["shards"] = tuple(sorted(set(changes["shards"])))
        return replace(self, **changes)

    # -- the lattice -----------------------------------------------------

    def join(self, other: "PlacementView") -> "PlacementView":
        """Least upper bound of two views.

        A strictly higher epoch dominates outright (later generations
        supersede earlier ones — epoch bumps happen only at migration
        commit, under the plane's migration lock, so same-epoch views
        differ at most in the merged components).  Equal epochs merge
        componentwise: shard/dead/move unions, per-shard binding unions,
        max of the ring parameters.  Idempotent, commutative,
        associative — the property tests hold the proof.
        """
        if other.epoch != self.epoch:
            return other if other.epoch > self.epoch else self
        merged: Dict[str, Set[int]] = {}
        for name, pids in self.bindings + other.bindings:
            merged.setdefault(name, set()).update(pids)
        return PlacementView(
            epoch=self.epoch,
            shards=tuple(sorted(set(self.shards) | set(other.shards))),
            vnodes=max(self.vnodes, other.vnodes),
            seed=max(self.seed, other.seed),
            bindings=_norm_bindings(merged),
            moves=tuple(sorted(set(self.moves) | set(other.moves))),
            dead=tuple(sorted(set(self.dead) | set(other.dead))))

    # -- routing ---------------------------------------------------------

    def ring(self) -> HashRing:
        """The exact :class:`HashRing` this view describes (fresh copy)."""
        return HashRing(self.shards, vnodes=self.vnodes, seed=self.seed)

    def route(self, key: Any) -> str:
        return self.ring().route(key)

    def binding(self, shard: str) -> Tuple[int, ...]:
        for name, pids in self.bindings:
            if name == shard:
                return pids
        return ()

    # -- serialisation ---------------------------------------------------

    def to_blob(self) -> Dict[str, Any]:
        return {"epoch": self.epoch,
                "shards": list(self.shards),
                "vnodes": self.vnodes,
                "seed": self.seed,
                "bindings": [[name, list(pids)]
                             for name, pids in self.bindings],
                "moves": [list(pair) for pair in self.moves],
                "dead": list(self.dead)}

    @classmethod
    def from_blob(cls, blob: Dict[str, Any]) -> "PlacementView":
        try:
            return cls(epoch=int(blob["epoch"]),
                       shards=tuple(blob["shards"]),
                       vnodes=int(blob["vnodes"]),
                       seed=int(blob["seed"]),
                       bindings=_norm_bindings(blob.get("bindings", ())),
                       moves=tuple(sorted((str(s), str(d)) for s, d
                                          in blob.get("moves", ()))),
                       dead=tuple(sorted(blob.get("dead", ()))))
        except (KeyError, TypeError, ValueError) as exc:
            raise ViewError(f"malformed PlacementView blob: {exc}") from exc


class ViewManager:
    """The deployment's replicated placement-metadata plane.

    Install once per deployment (:meth:`ensure`); the placement plane
    creates it automatically.  ``replicas`` — the coordinator-candidate
    pids — name the nodes whose stable stores hold the metadata; every
    persist fans out to all of them that are up, every recovery read
    joins all of them that are readable (a dead replica's store is still
    readable: stable storage is the disk, and salvage mounts it).
    """

    def __init__(self, deployment: Any):
        if getattr(deployment, "views", None) is not None:
            raise ViewError("this deployment already has a ViewManager; "
                            "use ViewManager.ensure()")
        self.deployment = deployment
        self.metrics = deployment.metrics
        self.current = PlacementView()
        #: Coordinator-candidate pids whose stable stores replicate the
        #: metadata (set by the plane as shards are adopted).
        self.replicas: List[int] = []
        self._flight = getattr(deployment, "flight", None)
        deployment.views = self
        deployment.control.install("views", self)
        self.metrics.gauge("placement.view.epoch").set(0)

    @classmethod
    def ensure(cls, deployment: Any) -> "ViewManager":
        manager = getattr(deployment, "views", None)
        return manager if manager is not None else cls(deployment)

    def close(self) -> None:
        """Uninstall the manager (run by the control loop)."""
        if getattr(self.deployment, "views", None) is self:
            self.deployment.views = None

    def on_member(self, pid: int, alive: bool) -> None:
        """Control-loop ``views`` slot.  Placement metadata does not
        depend on liveness — suspicion lives on the loop, where the
        coordinator election reads it — so there is nothing to do."""

    # ------------------------------------------------------------------
    # The current view
    # ------------------------------------------------------------------

    @property
    def epoch(self) -> int:
        return self.current.epoch

    def redirect_result(self) -> CallResult:
        """The bounce a stale-epoch call receives instead of dispatch:
        the args carry the current epoch so the caller can re-pin."""
        return CallResult(id=-1, status=Status.REDIRECT,
                          args={"epoch": self.current.epoch})

    def sync(self, view: PlacementView) -> None:
        """Replace the current view *without* an epoch transition (ring
        assembly via ``adopt``, move-set bookkeeping): persisted, no
        tape.

        Local sequential updates replace rather than join — the lattice
        merge is for reconciling divergent *replica copies* at recovery,
        where only unions are safe; the plane's own updates are ordered
        by the migration lock and may retract (clear the move set).
        """
        if view.epoch < self.current.epoch:
            raise ViewError(
                f"cannot sync epoch {view.epoch} over "
                f"{self.current.epoch}: epochs only move forward")
        self.current = view
        self._persist_view(self.current)
        self.metrics.gauge("placement.view.epoch").set(self.current.epoch)

    def commit(self, view: PlacementView, *, reason: str = "") -> None:
        """Make ``view`` the current generation: persist (current +
        per-epoch history cell) and tape."""
        if view.epoch < self.current.epoch:
            raise ViewError(
                f"cannot commit epoch {view.epoch} over "
                f"{self.current.epoch}: epochs only move forward")
        self.current = view
        self._persist_view(self.current, history=True)
        self.metrics.counter("placement.view.commits").inc()
        self.metrics.gauge("placement.view.epoch").set(self.current.epoch)
        if self._flight is not None:
            self._flight.note("view-commit", epoch=self.current.epoch,
                              shards=list(self.current.shards),
                              reason=reason)

    def recover_view(self) -> PlacementView:
        """Join every replica's persisted current view (dead replicas
        included — their stable store is the disk we mount)."""
        joined = self.current
        for blob in self._read_all(CURRENT_CELL):
            joined = joined.join(PlacementView.from_blob(blob))
            self.metrics.counter("placement.view.joins").inc()
        return joined

    # ------------------------------------------------------------------
    # The migration plan (presence == migration in flight)
    # ------------------------------------------------------------------

    def propose(self, plan: Dict[str, Any], *, reason: str = "") -> None:
        """Persist the plan of a migration about to run and publish the
        active move set on the current view."""
        self._put_all(PLAN_CELL, plan)
        self.metrics.counter("placement.view.proposals").inc()
        self.sync(self.current.with_(
            moves=[(m["source"], m["dest"]) for m in plan["moves"]]))
        if self._flight is not None:
            self._flight.note("view-propose", epoch=plan["epoch"],
                              target_epoch=plan["target_epoch"],
                              phase=plan["phase"],
                              moves=len(plan["moves"]), reason=reason)

    def update_plan(self, **fields: Any) -> None:
        """Advance the persisted plan (phase transitions, the cutover
        manifest) on every reachable replica."""
        plan = self.load_plan()
        if plan is None:
            return
        plan.update(fields)
        self._put_all(PLAN_CELL, plan)

    def load_plan(self) -> Optional[Dict[str, Any]]:
        """The most advanced persisted plan across all replicas, or
        None when no migration is in flight."""
        best: Optional[Dict[str, Any]] = None

        def rank(plan: Dict[str, Any]) -> Tuple[int, int]:
            phase = plan.get("phase", "warm")
            return (int(plan.get("epoch", 0)),
                    PLAN_PHASES.index(phase)
                    if phase in PLAN_PHASES else 0)

        for blob in self._read_all(PLAN_CELL):
            if best is None or rank(blob) > rank(best):
                best = blob
        return dict(best) if best is not None else None

    def clear_plan(self) -> None:
        self._del_all(PLAN_CELL)

    def rollback(self, *, reason: str = "") -> None:
        """Abandon the in-flight reshape: the current epoch stands, the
        plan is erased."""
        self.clear_plan()
        self.sync(self.current.with_(moves=()))
        self.metrics.counter("placement.view.rollbacks").inc()
        if self._flight is not None:
            self._flight.note("view-rollback", epoch=self.current.epoch,
                              reason=reason)

    # ------------------------------------------------------------------
    # Replicated cells (snapshots ride the same fanout)
    # ------------------------------------------------------------------

    def put_cell(self, cell: str, value: Any) -> None:
        """Fan a metadata cell out to every live replica's stable store."""
        self._put_all(cell, value)

    def get_cell(self, cell: str) -> Any:
        """The cell's value from any replica that holds it (live copies
        preferred, dead disks mounted), or None."""
        for value in self._read_all(cell):
            return value
        return None

    def del_cell(self, cell: str) -> None:
        self._del_all(cell)

    def _replica_nodes(self, *, live_only: bool) -> List[Any]:
        nodes = []
        for pid in self.replicas:
            node = self.deployment.nodes.get(pid)
            if node is None:
                continue
            if live_only and not node.up:
                continue
            nodes.append(node)
        return nodes

    def _put_all(self, cell: str, value: Any) -> None:
        wrote = False
        for node in self._replica_nodes(live_only=True):
            node.stable.put(cell, value)
            wrote = True
        if not wrote and self.replicas:
            raise ViewError(
                f"no live metadata replica to persist {cell!r} "
                f"(candidates: {self.replicas})")

    def _del_all(self, cell: str) -> None:
        for node in self._replica_nodes(live_only=False):
            if node.stable.get(cell, None) is not None:
                node.stable.delete(cell)

    def _read_all(self, cell: str) -> List[Any]:
        """Every replica's copy of a cell, live nodes first (the order
        recovery joins them in is deterministic)."""
        live, dead = [], []
        for node in self._replica_nodes(live_only=False):
            value = node.stable.get(cell, None)
            if value is None:
                continue
            (live if node.up else dead).append(value)
        return live + dead

    def _persist_view(self, view: PlacementView,
                      *, history: bool = False) -> None:
        blob = view.to_blob()
        self._put_all(CURRENT_CELL, blob)
        if history:
            self._put_all(f"{EPOCH_PREFIX}{view.epoch}", blob)
