"""Replicated shard groups: per-shard configurable consistency.

The paper shows how one group-RPC kit yields many RPC services by
composing micro-protocols; this package carries that configurability
into the deployment plane by turning each shard into a genuine replica
group whose consistency/latency trade-off is chosen *per shard*:

* :class:`~repro.replication.spec.ReplicaSpec` — replica count, mode
  (``active`` fan-out vs ``passive`` primary-backup) and the composed
  :class:`~repro.core.config.ServiceSpec` governing the write path,
  validated against the Figure-4 dependency graph plus the mode edges
  at deployment build time;
* :class:`~repro.replication.group.ReplicaGroup` — per-shard routing
  (reads to any in-sync replica, writes through the group or the
  primary), deterministic primary election from the membership stream,
  promotion on suspicion, synchronous backup state transfer, and
  resync of recovered replicas;
* :class:`~repro.replication.manager.ReplicationManager` — the
  deployment-wide directory the call path consults, fed by the same
  membership stream the :class:`~repro.placement.driver.RebindDriver`
  uses.

``docs/replication.md`` has the modes, the consistency matrix, and the
wiring through :func:`repro.apps.sharding.build_sharded_kv` and the
elastic placement plane.
"""

from repro.replication.group import ReplicaGroup
from repro.replication.manager import ReplicationManager
from repro.replication.spec import (
    MODE_EDGES,
    ReplicaSpec,
    active_replicas,
    primary_backup,
    validate_replica_spec,
)

__all__ = [
    "ReplicaSpec",
    "ReplicaGroup",
    "ReplicationManager",
    "active_replicas",
    "primary_backup",
    "MODE_EDGES",
    "validate_replica_spec",
]
