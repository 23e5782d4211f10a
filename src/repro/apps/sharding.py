"""Sharding a keyspace over independently-configured services.

The deployment plane hosts many named services on one fabric; this
module spans a single logical keyspace over N of them.  Two routers:

* :class:`RingRouter` (what :func:`build_sharded_kv` builds) places
  keys on a consistent-hash ring (:class:`~repro.placement.ring.
  HashRing`, virtual nodes, seeded placement), so growing or shrinking
  the shard set moves only O(K/N) keys — the property the placement
  plane's live migration relies on;
* :class:`ShardRouter` is the legacy CRC-32 modulo-N function, kept as
  the baseline the rebalancing benchmark compares against (a resize
  under modulo-N remaps nearly the whole keyspace); hand one to
  :class:`ShardedKV` to route by it.

Both are deterministic across processes and runs (CRC-32, not Python's
salted ``hash``), which is what lets any number of independent clients
share one keyspace layout.  When built with a metrics registry they
count every lookup (``placement.router.lookups``) and the per-shard
routing distribution (``placement.router.keys_routed.<service>``), so
benchmarks can assert where keys actually went.

:class:`ShardedKV` is the client-side helper routing ``put``/``get``/
``delete`` through a :class:`~repro.core.deployment.Deployment`'s
name-resolved call path.  Because each shard is an ordinary named
service, shards can differ in *semantics*, not just placement.  For
shard sets that change while serving, use the placement plane
(:func:`repro.placement.build_elastic_kv`) instead.

:func:`build_sharded_kv` wires the whole thing: N KV services (uniform
spec or per-shard specs), shared client nodes, and a ready router.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.apps.kvstore import KVStore
from repro.core.config import ServiceSpec
from repro.core.messages import CallResult
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.placement.ring import HashRing

__all__ = ["ShardRouter", "RingRouter", "ShardedKV", "build_sharded_kv"]


class ShardRouter:
    """Deterministic key -> service-name routing (hash modulo shards).

    The shard list's order is part of the routing function: two routers
    built from the same sequence agree on every key.  This is the static
    baseline — adding or removing a shard remaps almost every key, which
    is why elastic deployments use :class:`RingRouter`.
    """

    def __init__(self, services: Sequence[str], *,
                 metrics: Optional[MetricsRegistry] = None):
        self.services: List[str] = list(services)
        if not self.services:
            raise ReproError("a shard router needs at least one service")
        self._lookups = None
        self._routed: Dict[str, Any] = {}
        #: Per-key load tracker (the observatory's), or None — the
        #: usual attach-once obs contract.
        self._load = None
        if metrics is not None:
            self._lookups = metrics.counter("placement.router.lookups")
            self._routed = {
                name: metrics.counter(
                    f"placement.router.keys_routed.{name}")
                for name in self.services}

    def attach_load(self, tracker: Any) -> None:
        """Feed every routed lookup to a
        :class:`~repro.obs.loadstats.KeyLoadTracker` (hot-key
        accounting).  Attach once, at build time."""
        self._load = tracker

    def __len__(self) -> int:
        return len(self.services)

    def shard_index(self, key: Any) -> int:
        return zlib.crc32(str(key).encode("utf-8")) % len(self.services)

    def _route(self, key: Any) -> str:
        """Routing function alone, no metric counting."""
        return self.services[self.shard_index(key)]

    def route(self, key: Any) -> str:
        """The service name responsible for ``key``."""
        name = self._route(key)
        if self._lookups is not None:
            self._lookups.inc()
            counter = self._routed.get(name)
            if counter is not None:
                counter.inc()
        if self._load is not None:
            self._load.note(name, str(key))
        return name

    def partition(self, keys: Iterable[Any]) -> Dict[str, List[Any]]:
        """Group ``keys`` by owning service (bulk-operation helper).

        Bypasses the lookup metrics: bulk planning must not inflate the
        per-call routing counters benchmarks assert on.
        """
        out: Dict[str, List[Any]] = {name: [] for name in self.services}
        for key in keys:
            out[self._route(key)].append(key)
        return out


class RingRouter(ShardRouter):
    """Consistent-hash routing: the drop-in that survives resizes.

    Same surface as :class:`ShardRouter` (``route``/``shard_index``/
    ``partition``/lookup metrics), but placement comes from a seeded
    :class:`~repro.placement.ring.HashRing`, so adding or removing a
    shard disturbs only the ranges adjacent to it.  ``shard_index``
    remains the position in ``services`` for callers that index by
    shard number.
    """

    def __init__(self, services: Sequence[str], *, seed: int = 0,
                 metrics: Optional[MetricsRegistry] = None):
        super().__init__(services, metrics=metrics)
        self.ring = HashRing(self.services, seed=seed)
        #: name -> position in ``services``; O(1) shard_index instead of
        #: an O(N) list scan per routed call.
        self._index = {name: i for i, name in enumerate(self.services)}

    def shard_index(self, key: Any) -> int:
        return self._index[self.ring.route(str(key))]

    def _route(self, key: Any) -> str:
        return self.ring.route(str(key))


class ShardedKV:
    """A client-side view of one keyspace spanning N KV services.

    Awaitable from a client task on node ``client_pid``; that node must
    participate (as client) in every shard service, which is what
    :func:`build_sharded_kv` arranges.  Single-key operations touch
    exactly one shard; :meth:`keys` fans out to all of them.
    """

    def __init__(self, deployment: Any, client_pid: int,
                 router: Union[ShardRouter, Sequence[str]]):
        self.deployment = deployment
        self.client_pid = client_pid
        self.router = router if isinstance(router, ShardRouter) \
            else RingRouter(router)

    def shard_of(self, key: Any) -> str:
        return self.router.route(key)

    async def _call(self, key: Any, op: str,
                    args: Dict[str, Any]) -> CallResult:
        return await self.deployment.call(
            self.client_pid, self.router.route(key), op, args)

    async def put(self, key: Any, value: Any,
                  **extra: Any) -> CallResult:
        return await self._call(key, "put",
                                {"key": key, "value": value, **extra})

    async def get(self, key: Any) -> CallResult:
        return await self._call(key, "get", {"key": key})

    async def delete(self, key: Any) -> CallResult:
        return await self._call(key, "delete", {"key": key})

    async def keys(self) -> List[str]:
        """Union of keys across all shards (sorted)."""
        seen: set = set()
        for name in self.router.services:
            result = await self.deployment.call(self.client_pid, name,
                                                "keys", {})
            if result.ok and result.args:
                seen.update(result.args)
        return sorted(seen)


def build_sharded_kv(deployment: Any, n_shards: int, *,
                     spec: Optional[ServiceSpec] = None,
                     specs: Optional[Sequence[ServiceSpec]] = None,
                     servers_per_shard: int = 1,
                     clients: Union[int, Sequence[int]] = 1,
                     app_factory: Any = KVStore,
                     replication: Any = None) -> ShardedKV:
    """Deploy ``n_shards`` KV services and return a routed client.

    Pass a single ``spec`` for uniform shards or per-shard ``specs``
    (length ``n_shards``) to configure each shard's semantics
    independently.  Server pids are auto-allocated per shard; ``clients``
    (a count or explicit pids) are shared by every shard, so any of those
    nodes can drive the whole keyspace.  Keys are placed by consistent
    hashing (a :class:`RingRouter` with its default seed).  Returns a
    :class:`ShardedKV` bound to the first client; build more views over
    the same router for the other client pids.

    ``replication`` turns every shard into a replica group: pass one
    :class:`~repro.replication.spec.ReplicaSpec` for uniform shards or a
    sequence of them (length ``n_shards``) for per-shard consistency.
    The replica count and composed micro-protocols then come from the
    ReplicaSpec (``spec``/``specs``/``servers_per_shard`` must be left
    at their defaults), every composition is validated against the
    Figure-4 dependency graph up front, and the deployment's call path
    splits read/write routing per shard — reads to any in-sync replica,
    writes through the group (active) or the primary (passive).
    """
    if n_shards < 1:
        raise ReproError("need at least one shard")
    if specs is not None and len(specs) != n_shards:
        raise ReproError(f"got {len(specs)} specs for {n_shards} shards")
    rspecs = None
    if replication is not None:
        from repro.replication import ReplicaSpec
        if isinstance(replication, ReplicaSpec):
            rspecs = [replication] * n_shards
        else:
            rspecs = list(replication)
        if len(rspecs) != n_shards:
            raise ReproError(f"got {len(rspecs)} ReplicaSpecs for "
                             f"{n_shards} shards")
        if spec is not None or specs is not None or servers_per_shard != 1:
            raise ReproError(
                "replication= supplies each shard's spec and replica "
                "count; don't also pass spec/specs/servers_per_shard")
        # Validate every composition before deploying anything: an
        # illegal shard must fail the whole build, not shard k of n.
        specs = [rspec.service_spec() for rspec in rspecs]
    if specs is None:
        specs = [spec if spec is not None else ServiceSpec()] * n_shards

    first = None
    names: List[str] = []
    for i in range(n_shards):
        name = f"shard-{i}"
        svc = deployment.add_service(
            name, specs[i], app_factory,
            servers=(servers_per_shard if rspecs is None
                     else rspecs[i].replicas),
            clients=clients if first is None else first.client_pids)
        if first is None:
            first = svc
        names.append(name)
    if rspecs is not None:
        from repro.replication import ReplicationManager
        manager = ReplicationManager.ensure(deployment)
        for name, rspec in zip(names, rspecs):
            manager.replicate(name, rspec)
    routed = RingRouter(names, metrics=deployment.metrics)
    observatory = getattr(deployment, "observatory", None)
    if observatory is not None:
        routed.attach_load(observatory.load)
    return ShardedKV(deployment, first.client, routed)
