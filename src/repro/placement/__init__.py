"""The elastic placement plane (extension).

Where the deployment plane answers "which group implements this name",
the placement plane answers "which service owns this key" — and keeps
the answer correct while the shard set changes underneath a live
workload.  Three cooperating pieces:

* :class:`~repro.placement.ring.HashRing` — deterministic consistent
  hashing with virtual nodes, so a resize moves O(K/N) keys instead of
  remapping the keyspace;
* :class:`~repro.placement.migration.KeyMigration` — the live
  snapshot/transfer/catch-up/cutover protocol that drains moving key
  ranges shard-to-shard through the ordinary group-RPC machinery, with
  stable-store salvage when a source shard is dead;
* :class:`~repro.placement.driver.RebindDriver` — membership-driven
  reconfiguration: suspicion shrinks a service's bound group, recovery
  regrows it, and a fully dead shard is drained automatically;
* :class:`~repro.placement.view.PlacementView` /
  :class:`~repro.placement.view.ViewManager` — the replicated metadata
  plane: immutable epoch-versioned views of key placement, join-merged
  at recovery and persisted per-epoch on every coordinator candidate,
  so a coordinator crash mid-migration fails over instead of stranding
  the deployment.

:func:`~repro.placement.plane.build_elastic_kv` assembles a working
elastic sharded KV in one call.
"""

from repro.placement.driver import RebindDriver
from repro.placement.migration import KeyMigration, ShardMove
from repro.placement.plane import ElasticKV, PlacementPlane, build_elastic_kv
from repro.placement.ring import HashRing, plan_moves
from repro.placement.view import PlacementView, ViewManager

__all__ = [
    "HashRing",
    "plan_moves",
    "ShardMove",
    "KeyMigration",
    "PlacementPlane",
    "ElasticKV",
    "build_elastic_kv",
    "RebindDriver",
    "PlacementView",
    "ViewManager",
]
