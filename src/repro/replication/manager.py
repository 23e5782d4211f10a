"""The deployment's replication directory and membership bridge.

One :class:`ReplicationManager` per deployment maps shard-service names
to their :class:`~repro.replication.group.ReplicaGroup` and, as the
``replication`` policy of the deployment's :class:`~repro.core.control.
ControlLoop`, feeds every group the deduplicated suspicion/recovery
stream — so promotions and resyncs happen whether or not automatic
rebinding is enabled, and always before the rebind policy reads a
group's live set.

Installing the manager is what switches the deployment's call path into
replication-aware routing: :meth:`~repro.core.deployment.Deployment.
call` consults ``deployment.replication`` on every call and defers
target selection to the service's replica group when one is registered.
Services without a registered group are untouched.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import ReproError
from repro.replication.group import ReplicaGroup
from repro.replication.spec import ReplicaSpec

__all__ = ["ReplicationManager"]


class ReplicationManager:
    """Maps service names to replica groups; bridges membership."""

    def __init__(self, deployment: Any):
        if getattr(deployment, "replication", None) is not None:
            raise ReproError(
                "this deployment already has a ReplicationManager; "
                "use ReplicationManager.ensure()")
        self.deployment = deployment
        self.groups: Dict[str, ReplicaGroup] = {}
        deployment.replication = self
        deployment.control.install("replication", self)
        deployment.metrics.gauge("repl.groups").set(0)

    @classmethod
    def ensure(cls, deployment: Any) -> "ReplicationManager":
        """The deployment's manager, created on first use."""
        manager = getattr(deployment, "replication", None)
        return manager if manager is not None else cls(deployment)

    def close(self) -> None:
        """Uninstall the manager (run by the control loop)."""
        if getattr(self.deployment, "replication", None) is self:
            self.deployment.replication = None

    # ------------------------------------------------------------------

    def replicate(self, service: str, rspec: ReplicaSpec) -> ReplicaGroup:
        """Register ``service`` (already deployed with ``rspec.replicas``
        servers) as a replica group."""
        if service in self.groups:
            raise ReproError(
                f"service {service!r} is already a replica group")
        group = ReplicaGroup(self.deployment, service, rspec)
        self.groups[service] = group
        self.deployment.metrics.gauge("repl.groups").set(len(self.groups))
        return group

    def group(self, service: str) -> Optional[ReplicaGroup]:
        return self.groups.get(service)

    def live_members(self, service: str) -> List[int]:
        """The service's currently-unsuspected replicas ([] when the
        service is not replicated)."""
        group = self.groups.get(service)
        return group.live_members() if group is not None else []

    # ------------------------------------------------------------------

    def on_member(self, pid: int, alive: bool) -> None:
        """Control-loop ``replication`` slot: ahead of ``rebind``, so a
        group has shrunk or promoted before its live set is read."""
        for group in self.groups.values():
            if pid not in group.members:
                continue
            if alive:
                group.on_recover(pid)
            else:
                group.on_suspect(pid)
