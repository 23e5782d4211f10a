"""Membership-driven reconfiguration: rebinding without an operator.

The deployment plane's :meth:`~repro.core.deployment.Deployment.rebind`
used to be a manual step an experiment script performed after reshaping
a group.  The :class:`RebindDriver` closes the loop: as the ``rebind``
policy of the deployment's :class:`~repro.core.control.ControlLoop` it
sees every membership change (perfect fabric notifications under the
oracle modes, the deduplicated union of per-node heartbeat suspicions
otherwise) and keeps every service's binding consistent with site
liveness:

* **suspicion** shrinks the bound group — calls stop waiting on a dead
  replica the moment it is suspected, instead of timing out against it;
* **recovery** regrows the group toward the service's full server set;
* the driver *prefers shrinking a binding over draining a shard*: when
  the last bound server of a replicated shard is suspected but the
  :class:`~repro.replication.manager.ReplicationManager` still knows
  live replicas outside the binding, the binding is re-pointed at those
  survivors (``placement.rebind.revive``) instead of abandoning the
  shard;
* only a shard with no live replica at all is truly dead; if a
  :class:`~repro.placement.plane.PlacementPlane` routes keys to it, the
  driver schedules a :meth:`~repro.placement.plane.
  PlacementPlane.drain_dead_shard` so the dead shard's key ranges are
  salvaged from stable storage and re-homed onto the survivors.

Rebinds are driven through the ordinary
:meth:`~repro.core.deployment.Deployment.rebind` path, so they are
atomic with respect to the name-resolved call path: in-flight calls
finish against the group they resolved, later calls resolve the new one.
"""

from __future__ import annotations

from typing import Any, Optional, Set

__all__ = ["RebindDriver"]


class RebindDriver:
    """Automatic group rebinding (and dead-shard draining) for one
    deployment."""

    def __init__(self, deployment: Any, *, plane: Optional[Any] = None):
        self.deployment = deployment
        #: The placement plane to notify when a whole shard dies; None
        #: disables draining (bindings still shrink and regrow).
        self.plane = plane
        self.metrics = deployment.metrics
        #: Shards with a drain scheduled or running (no double drains).
        self._draining: Set[str] = set()
        #: The observatory's flight recorder, or None.
        self._flight = getattr(deployment, "flight", None)
        deployment.control.install("rebind", self)

    def on_member(self, pid: int, alive: bool) -> None:
        """Control-loop ``rebind`` slot: runs after ``replication`` and
        ``placement``, so a replica group has already absorbed the
        change by the time its ``live_members()`` are consulted."""
        for service in list(self.deployment.services.values()):
            if pid not in service.server_pids:
                continue
            if alive:
                self._on_recovery(service, pid)
            else:
                self._on_suspicion(service, pid)

    def _on_suspicion(self, service: Any, pid: int) -> None:
        members = set(service.group.members)
        if pid not in members:
            return
        if len(members) > 1:
            self.deployment.rebind(service.name,
                                   sorted(members - {pid}))
            self.metrics.counter("placement.rebind.shrink").inc()
            return
        # Last bound server suspected.  A replica group may still have
        # live replicas *outside* the binding (an operator's rebind left
        # them out): shrinking the binding onto them is strictly cheaper
        # than draining the shard, so it wins.
        repl = getattr(self.deployment, "replication", None)
        if repl is not None and repl.group(service.name) is not None:
            survivors = sorted(set(repl.live_members(service.name))
                               - {pid})
            if survivors:
                self.deployment.rebind(service.name, survivors)
                self.metrics.counter("placement.rebind.revive").inc()
                if self._flight is not None:
                    self._flight.note("drain-averted",
                                      service=service.name,
                                      members=survivors)
                return
        # The service is dead as a whole.  The binding is left in place
        # (there is nothing smaller to bind), but its key ranges can
        # still be rescued.
        if (self.plane is not None and service.name in self.plane.ring
                and service.name not in self._draining):
            self._draining.add(service.name)
            if self._flight is not None:
                self._flight.note("drain-scheduled",
                                  service=service.name, pid=pid)
            self.deployment.runtime.spawn(
                self._drain(service.name),
                name=f"drain-{service.name}", daemon=True)

    def _on_recovery(self, service: Any, pid: int) -> None:
        members = set(service.group.members)
        if pid in members:
            return
        self.deployment.rebind(service.name, sorted(members | {pid}))
        self.metrics.counter("placement.rebind.regrow").inc()

    async def _drain(self, name: str) -> None:
        try:
            await self.plane.drain_dead_shard(name)
        finally:
            self._draining.discard(name)
