"""The deployment plane: many named services, one simulated fabric.

The paper's point is that one framework hosts *many* RPC variants; a
:class:`Deployment` is where they coexist at runtime.  It owns everything
that is shared — the runtime, the network fabric, the nodes, the
observability layer, the membership substrate — while each call to
:meth:`Deployment.add_service` wires one *named service* and returns its
:class:`Service`: a :class:`~repro.core.config.ServiceSpec`, the
:class:`~repro.net.message.Group` of its servers, its reply cache, and
one gRPC composite per participating node (servers additionally carry
the application dispatcher).  A node may participate in any number of
services, each with a *different* micro-protocol stack; each composite
claims its service's key in the node's arrival table
(:meth:`~repro.net.node.Node.attach`), and every transmission carries
that key.

Layout conventions are inherited from the single-service days: server
process ids live below :data:`CLIENT_BASE_PID` (so the Total Order
leader rule keeps working), client ids at or above it.  Passing an ``int``
for ``servers``/``clients`` auto-allocates the lowest free pids in the
respective range.

Clients address services *by name*: ``await deployment.call(pid, "svc",
op, args)`` resolves the name to the service's current ``group`` at call
time, so a :meth:`rebind` after a reconfiguration redirects subsequent
calls atomically.  Per-service traffic is labelled in the shared
:class:`~repro.obs.metrics.MetricsRegistry` (``service.<name>.calls``,
``.status.<S>``, ``.latency``, ``.executions``) and on every RPC span
(``service`` attribute).

:func:`ServiceCluster` builds a one-service deployment and returns that
service.
"""

from __future__ import annotations

import inspect
from typing import (
    Any,
    Callable,
    Coroutine,
    Dict,
    Iterable,
    List,
    Optional,
    Union,
)

from repro.apps.dispatcher import ServerApp, ServerDispatcher
from repro.core.config import ServiceSpec, validate
from repro.core.control import ControlLoop
from repro.core.grpc import GroupRPC
from repro.core.messages import CallResult, NetMsg
from repro.errors import (
    BindingError,
    ConfigurationError,
    ReproError,
    TaskCancelled,
)
from repro.core.replycache import ReplyCache
from repro.membership import HeartbeatMembership, OracleMembership
from repro.obs import MetricsRegistry, Recorder, format_flame, to_jsonl
from repro.obs.observatory import Observatory, ObservatoryConfig
from repro.net import (
    Group,
    LinkSpec,
    NetworkFabric,
    Node,
    UnreliableTransport,
    WireConfig,
)
from repro.runtime import SimRuntime
from repro.sim import RandomSource
from repro.xkernel import compose_stack

__all__ = ["Deployment", "Service", "ServiceCluster", "CLIENT_BASE_PID"]

#: Client process ids start here; server pids must stay below it so the
#: two ranges can never collide (checked, not assumed).
CLIENT_BASE_PID = 101


def _instantiate_app(factory: Callable[..., ServerApp],
                     pid: int) -> ServerApp:
    """Build one server app, passing the pid if the factory accepts one.

    Lets callers pass a zero-argument class (``KVStore``) or a
    pid-consuming factory (``lambda pid: ComputeApp(pid * 10.0)``).
    """
    try:
        signature = inspect.signature(factory)
        takes_pid = any(
            p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD,
                       p.VAR_POSITIONAL)
            for p in signature.parameters.values())
    except (TypeError, ValueError):  # builtins without signatures
        takes_pid = True
    return factory(pid) if takes_pid else factory()


class Service:
    """One named service of a deployment: spec + group + composites.

    Returned by :meth:`Deployment.add_service` (and
    :func:`ServiceCluster`); the only per-service object.  ``grpcs`` maps
    every participating pid (servers and clients) to that node's
    composite for *this* service; ``dispatchers``/``apps`` cover the
    server side only.
    """

    def __init__(self, deployment: "Deployment", name: str,
                 spec: ServiceSpec, group: Group,
                 server_pids: List[int], client_pids: List[int]):
        self.deployment = deployment
        self.name = name
        self.spec = spec
        #: Current target group: :meth:`Deployment.call` reads it on every
        #: call and :meth:`Deployment.rebind` replaces it.
        self.group = group
        self.server_pids = server_pids
        self.client_pids = client_pids
        self.grpcs: Dict[int, GroupRPC] = {}
        self.dispatchers: Dict[int, ServerDispatcher] = {}
        self.apps: Dict[int, ServerApp] = {}
        #: LRU of ``(client, call_id) -> CallResult``: retried calls after
        #: a rebind are answered here without re-execution.
        self.reply_cache = ReplyCache()
        # (calls Counter, latency Histogram, status-value -> Counter),
        # resolved on the first call.  ``metrics.reset`` zeroes every
        # instrument in place, so the cached objects stay the registry's.
        self._call_instruments: Optional[tuple] = None

    # -- accessors -------------------------------------------------------

    @property
    def client(self) -> int:
        """The first client's pid (single-client shorthand)."""
        return self.client_pids[0]

    def grpc(self, pid: int) -> GroupRPC:
        return self.grpcs[pid]

    def app(self, pid: int) -> ServerApp:
        return self.apps[pid]

    # -- calling ---------------------------------------------------------

    async def call(self, client_pid: int, op: str, args: Any) -> CallResult:
        return await self.deployment.call(client_pid, self.name, op, args)

    def spawn_client(self, pid: int, coro: Coroutine, *,
                     name: str = "") -> Any:
        """:meth:`Deployment.spawn_client`: run ``coro`` as a task owned
        by node ``pid``."""
        return self.deployment.spawn_client(pid, coro, name=name)

    def call_and_run(self, op: str, args: Any, *,
                     client_pid: Optional[int] = None,
                     extra_time: float = 0.0) -> CallResult:
        """Blockingly run one call to this service from outside the kernel.

        Spawns the call on the client node (the first client by default),
        drives the simulation until it finishes, optionally runs
        ``extra_time`` more virtual seconds (to let retransmissions and
        acks drain), and returns the result.
        """
        dep = self.deployment
        pid = client_pid if client_pid is not None else self.client
        results: List[CallResult] = []

        async def issue() -> None:
            results.append(await self.call(pid, op, args))

        task = dep.spawn_client(pid, issue())

        async def supervise() -> None:
            try:
                await dep.runtime.join(task)
            except TaskCancelled:
                pass

        dep.runtime.run(supervise(), shutdown=False)
        if extra_time > 0:
            dep.runtime.run_for(extra_time)
        if not results:
            raise TaskCancelled("client crashed before the call returned")
        return results[0]


def ServiceCluster(spec: ServiceSpec,
                   app_factory: Callable[..., ServerApp], *,
                   n_servers: int = 3, n_clients: int = 1,
                   **options: Any) -> Service:
    """A one-service deployment; returns its service, named ``"servers"``.

    Servers get pids ``1..n_servers`` (so the Total Order leader is the
    highest-numbered server), clients get pids from
    :data:`CLIENT_BASE_PID` up.  ``options`` go to :class:`Deployment`
    unchanged; the deployment is the result's ``.deployment``.
    """
    return Deployment(**options).add_service(
        "servers", spec, app_factory, servers=range(1, n_servers + 1),
        clients=range(CLIENT_BASE_PID, CLIENT_BASE_PID + n_clients))


class Deployment:
    """A simulated fabric hosting any number of named gRPC services."""

    def __init__(self, *, seed: int = 0,
                 default_link: LinkSpec = LinkSpec(),
                 membership: Optional[str] = None,
                 membership_delay: float = 0.0,
                 heartbeat_interval: float = 0.05,
                 suspect_after: int = 3,
                 keep_trace: bool = True,
                 obs: Union[bool, Recorder] = False,
                 observatory: Union[bool, ObservatoryConfig] = False,
                 runtime: Optional[SimRuntime] = None,
                 wire: Optional[WireConfig] = None):
        """``membership`` is ``None``, ``"oracle"`` or ``"heartbeat"``,
        shared by every service: site liveness is service-independent, so
        one detector per node feeds every composite the node hosts.

        ``obs`` turns on the observability layer: ``True`` creates a
        :class:`~repro.obs.Recorder` sharing the deployment's
        metrics registry; pass a pre-built recorder to control it
        yourself.  ``deployment.metrics`` always exists.

        ``wire`` configures the fabric's
        :class:`~repro.net.wire.WirePipeline` (link-level coalescing,
        per-link backpressure, the control fast lane); the default keeps
        every stage pass-through, i.e. the exact per-message path.

        ``observatory`` turns on the measurement plane
        (:class:`~repro.obs.observatory.Observatory`): the kernel
        profiler, per-key load accounting, SLO windows and the flight
        recorder.  ``True`` uses the default
        :class:`~repro.obs.observatory.ObservatoryConfig`; pass a
        config to tune it.  Disabled (the default) costs nothing: every
        hook stays ``None``.
        """
        self.runtime = runtime or SimRuntime()
        if obs is True:
            recorder: Optional[Recorder] = Recorder()
        elif isinstance(obs, Recorder):
            recorder = obs
        else:
            recorder = None
        #: Deployment-wide instrument table (``net.*``, ``handler.*``,
        #: ``kernel.*``, ``service.<name>.*`` ...).
        self.metrics = (recorder.metrics if recorder is not None
                        else MetricsRegistry())
        # Must precede node construction: composites and buses capture
        # runtime.obs once, at attach time.
        self.runtime.attach_obs(recorder)
        #: The installed recorder (None when disabled).
        self.obs = self.runtime.obs
        self.fabric = NetworkFabric(
            self.runtime, rand=RandomSource(seed),
            default_link=default_link, metrics=self.metrics, wire=wire)
        self.fabric.trace.keep_events = keep_trace

        #: Name -> :class:`Service`; the client call path resolves the
        #: name here on every call, so rebinds take effect atomically.
        self.services: Dict[str, Service] = {}
        self.nodes: Dict[int, Node] = {}

        if membership not in (None, "oracle", "heartbeat"):
            raise ReproError(f"unknown membership mode {membership!r}")
        self._membership_mode = membership
        self._membership: Any = None
        if membership == "oracle":
            self._membership = OracleMembership(self.fabric,
                                                delay=membership_delay)
        elif membership == "heartbeat":
            self._membership = HeartbeatMembership(
                interval=heartbeat_interval, suspect_after=suspect_after)

        #: The replication directory (:class:`~repro.replication.manager.
        #: ReplicationManager`), installed by its constructor when the
        #: first replica group is registered; None keeps the call path's
        #: replication check to a single is-None test.
        self.replication: Any = None

        #: The live-adaptation engine (:class:`~repro.adapt.engine.
        #: AdaptationManager`), installed by its constructor on first
        #: use (:meth:`adapt`); None keeps the call path's adaptation
        #: check to a single is-None test.
        self.adaptation: Any = None

        #: The replicated placement-metadata plane (:class:`~repro.
        #: placement.view.ViewManager`), installed by its constructor
        #: when a placement plane is built; None keeps the call path's
        #: epoch check to a single is-None test.
        self.views: Any = None

        #: The one membership-driven control loop (:class:`~repro.core.
        #: control.ControlLoop`): every plane that reacts to suspicion or
        #: recovery is a policy in one of its slots, dispatched in a
        #: fixed order and torn down by :meth:`shutdown`.
        self.control = ControlLoop(self)

        #: The measurement plane and its two call-path hooks (all None
        #: when disabled, keeping the hot paths on a single is-None
        #: test).  Built last: it takes the control loop's ``observe``
        #: slot and hooks the fabric's pipeline, both of which must
        #: exist — and before any ``add_service``, so every event bus
        #: captures the profiler.
        self.observatory: Optional[Observatory] = None
        self.flight: Any = None
        self._slo: Any = None
        if observatory:
            config = (observatory
                      if isinstance(observatory, ObservatoryConfig)
                      else None)
            self.observatory = Observatory(self, config)
            self.flight = self.observatory.flight
            self._slo = self.observatory.slo

    # ------------------------------------------------------------------
    # Service construction
    # ------------------------------------------------------------------

    def add_service(self, name: str, spec: ServiceSpec,
                    app_factory: Callable[..., ServerApp], *,
                    servers: Union[int, Iterable[int]] = 3,
                    clients: Union[int, Iterable[int]] = 1) -> Service:
        """Wire one named service into the deployment.

        ``servers``/``clients`` are either explicit pid iterables (pids
        may be shared with other services — that node then hosts several
        composites) or counts, in which case the lowest free pids in the
        server (< :data:`CLIENT_BASE_PID`) or client (>=) range are
        allocated.  Calls name the service by ``name``; duplicate names
        are rejected, and so is a pid listed twice.  Every check runs
        before anything is wired, so a rejected call leaves the
        deployment as it was.
        """
        server_pids = self._resolve_pids(servers, base=1,
                                         limit=CLIENT_BASE_PID)
        client_pids = self._resolve_pids(clients, base=CLIENT_BASE_PID,
                                         limit=None)
        if not server_pids:
            raise ReproError("need at least one server")
        for pid in server_pids:
            if pid >= CLIENT_BASE_PID:
                raise ConfigurationError(
                    f"server pid {pid} collides with the client pid range "
                    f"(client pids start at CLIENT_BASE_PID="
                    f"{CLIENT_BASE_PID}); keep server groups smaller than "
                    f"{CLIENT_BASE_PID} processes or raise CLIENT_BASE_PID")
        repeated = sorted({pid for pids in (server_pids, client_pids)
                           for pid in pids if pids.count(pid) > 1})
        if repeated:
            raise ConfigurationError(
                f"pids {repeated} listed more than once for service "
                f"{name!r}")
        overlap = set(server_pids) & set(client_pids)
        if overlap:
            raise ConfigurationError(
                f"pids {sorted(overlap)} listed as both server and client "
                f"of service {name!r}")
        if name in self.services:
            raise BindingError(f"service {name!r} already deployed")
        validate(spec)

        svc = Service(self, name, spec, Group(name, server_pids),
                      server_pids, client_pids)
        for pid in server_pids:
            self._build_composite(svc, pid,
                                  _instantiate_app(app_factory, pid))
        for pid in client_pids:
            self._build_composite(svc, pid, None)
        self.services[name] = svc
        self._connect_membership(svc)
        return svc

    def service(self, name: str) -> Service:
        svc = self.services.get(name)
        if svc is None:
            raise BindingError(f"no service {name!r} in this deployment; "
                               f"known: {sorted(self.services)}")
        return svc

    def _resolve_pids(self, spec: Union[int, Iterable[int]], *,
                      base: int, limit: Optional[int]) -> List[int]:
        """Explicit pid list, or auto-allocate ``spec`` free pids."""
        if not isinstance(spec, int):
            return list(spec)
        pids: List[int] = []
        candidate = base
        while len(pids) < spec:
            if limit is not None and candidate >= limit:
                raise ConfigurationError(
                    f"cannot allocate {spec} server pids below "
                    f"CLIENT_BASE_PID={CLIENT_BASE_PID}")
            if candidate not in self.nodes:
                pids.append(candidate)
            candidate += 1
        return pids

    def _ensure_node(self, pid: int) -> Node:
        """The node for ``pid``, with its transport, built once."""
        node = self.nodes.get(pid)
        if node is not None:
            return node
        node = Node(pid, self.runtime, self.fabric)
        UnreliableTransport(node)
        node.start()
        self.nodes[pid] = node
        return node

    def _build_composite(self, svc: Service, pid: int,
                         app: Optional[ServerApp]) -> None:
        node = self._ensure_node(pid)
        grpc = GroupRPC(node, name=f"gRPC:{svc.name}@{pid}",
                        service=svc.name)
        grpc.add(*svc.spec.build())
        node.attach(NetMsg, grpc, svc.name)
        if app is not None:
            dispatcher = ServerDispatcher(
                node, app, service=svc.name, metrics=self.metrics,
                # keep_trace=False marks a long/perf run: don't retain
                # per-request history anywhere, the execution log included.
                keep_log=self.fabric.trace.keep_events)
            compose_stack(dispatcher, grpc)
            svc.dispatchers[pid] = dispatcher
            svc.apps[pid] = app
        svc.grpcs[pid] = grpc

    def _connect_membership(self, svc: Service) -> None:
        """Give the new service's composites membership knowledge.

        Heartbeat detectors are per node and shared across services;
        detectors created by earlier services start monitoring any nodes
        this service introduced (:meth:`HeartbeatDetector.add_peers`).
        """
        if self._membership_mode == "oracle":
            for grpc in svc.grpcs.values():
                self._membership.connect(grpc)
        elif self._membership_mode == "heartbeat":
            everyone = sorted(self.nodes)
            for detector in self._membership.detectors.values():
                detector.add_peers(everyone)
            for pid, grpc in svc.grpcs.items():
                self._membership.attach(grpc, everyone)
            self._membership.start_all()

    # ------------------------------------------------------------------
    # The name-resolved call path
    # ------------------------------------------------------------------

    async def call(self, client_pid: int, service: str, op: str,
                   args: Any, *,
                   retry_of: Optional[int] = None,
                   view_epoch: Optional[int] = None) -> CallResult:
        """Issue one call to ``service`` from ``client_pid``.

        The service name is resolved to its current ``group`` *at call
        time* — the stub "does binding", as the paper assumes — and the
        call goes out through the caller's composite for that service.
        Per-service metrics (``service.<name>.calls`` / ``.status.<S>`` /
        ``.latency``) are folded into the shared registry.

        ``retry_of`` names the call id of an earlier attempt: if that
        attempt completed, its reply is returned straight from the
        service's :class:`~repro.core.replycache.ReplyCache` without
        re-execution — the safe way to retry after a rebind has pointed
        the name at servers that never saw the original call.  The
        cache is deployment-side, so the filter also spans replica
        promotions: a retry against a newly promoted primary is
        answered without re-executing.

        When the service is a registered replica group
        (``deployment.replication``), target selection defers to the
        group: reads narrow to one in-sync replica, passive writes to
        the elected primary (parking across promotions), and a passive
        write's state change is transferred to the backups before the
        result is returned.

        ``view_epoch`` is the placement-view epoch the caller routed
        under (stamped by the placement plane).  A stale epoch bounces
        with ``Status.REDIRECT`` *before* any message is built — the
        caller re-routes against the current view instead of dispatching
        to a shard that may no longer own the key.
        """
        if view_epoch is not None:
            views = self.views
            if views is not None and view_epoch != views.epoch:
                self.metrics.counter(
                    "placement.view.stale_bounces").inc()
                return views.redirect_result()
        svc = self.service(service)
        instruments = svc._call_instruments
        if instruments is None:
            prefix = f"service.{service}"
            instruments = svc._call_instruments = (
                self.metrics.counter(f"{prefix}.calls"),
                self.metrics.histogram(f"{prefix}.latency"), {})
        calls_counter, latency_hist, status_counters = instruments
        cache = svc.reply_cache
        if retry_of is not None:
            cached = cache.get(client_pid, retry_of)
            if cached is not None:
                self.metrics.counter(
                    f"service.{service}.reply_cache.hits").inc()
                return cached
            self.metrics.counter(
                f"service.{service}.reply_cache.misses").inc()
        grpc = svc.grpcs.get(client_pid)
        if grpc is None:
            raise BindingError(
                f"node {client_pid} has no composite for service "
                f"{service!r} (its participants: "
                f"{sorted(svc.grpcs)})")
        # Adaptation-aware admission: while the service is mid-switch,
        # new calls park here until the new composition is live; the
        # admit/release bracket is also how the engine knows when the
        # old composition has drained.
        adapt = self.adaptation
        if adapt is not None:
            await adapt.admit(service)
        try:
            group = svc.group
            rgroup = None if self.replication is None \
                else self.replication.groups.get(service)
            start = self.runtime.kernel._now
            if rgroup is not None:
                group = await rgroup.admit(op, group)
            result = await grpc.call(op, args, group)
            if rgroup is not None:
                result = await rgroup.complete(grpc, op, args, result,
                                               group)
        finally:
            if adapt is not None:
                adapt.release(service)
        latency = self.runtime.kernel._now - start
        calls_counter.value += 1
        status_counter = status_counters.get(result.status.value)
        if status_counter is None:
            status_counter = status_counters[result.status.value] = \
                self.metrics.counter(
                    f"service.{service}.status.{result.status.value}")
        status_counter.value += 1
        latency_hist.observe(latency)
        if self._slo is not None:
            self._slo.observe(service, latency)
        if result.ok:
            epoch = self.views.epoch if self.views is not None else None
            cache.put(client_pid, result.id, result, epoch=epoch)
            if retry_of is not None:
                # Future retries naming the original attempt hit too.
                cache.put(client_pid, retry_of, result, epoch=epoch)
        return result

    def watch_membership(self,
                         watcher: Callable[[int, bool], None]) -> None:
        """Subscribe to deployment-level membership changes.

        ``watcher(pid, alive)`` fires once per state change of a site,
        whatever the membership mode: the fabric's perfect crash/recover
        notifications under ``None``/``"oracle"``, or the deduplicated
        union of per-node heartbeat suspicions under ``"heartbeat"``
        (the first node to suspect a peer triggers the callback; repeat
        suspicions from other observers do not).  Inside the program
        the only subscriber is the control loop
        (:class:`~repro.core.control.ControlLoop`); new reactions belong
        in one of its slots, not on a second subscription.
        """
        if self._membership_mode == "heartbeat":
            self._membership.watch(watcher)
        else:
            self.fabric.watch_membership(watcher)

    def unwatch_membership(self,
                           watcher: Callable[[int, bool], None]) -> None:
        """Detach a :meth:`watch_membership` subscriber.

        A no-op when the watcher was never attached.
        """
        if self._membership_mode == "heartbeat":
            self._membership.unwatch(watcher)
        else:
            self.fabric.unwatch_membership(watcher)

    def auto_rebind(self, *, plane: Any = None):
        """Drive :meth:`rebind` from the membership service.

        Returns the installed :class:`~repro.placement.driver.
        RebindDriver`: suspicion shrinks a service's bound group,
        recovery regrows it, and — when ``plane`` is given — a shard
        whose last server died is drained onto the surviving shards.
        """
        from repro.placement.driver import RebindDriver
        return RebindDriver(self, plane=plane)

    # ------------------------------------------------------------------
    # Live adaptation
    # ------------------------------------------------------------------

    async def adapt(self, service: str, target: Any, *,
                    reason: str = "",
                    drain_timeout: Optional[float] = None) -> Any:
        """Reconfigure a *running* service's micro-protocol composition.

        ``target`` is the new :class:`~repro.core.config.ServiceSpec`
        (or a full :class:`~repro.adapt.plan.AdaptationPlan`).  The
        switch is guarded: the target is validated against the Figure-4
        graph (plus the replication-mode edges when the service is a
        replica group), new calls park, in-flight calls drain, every
        member's composite is re-linked atomically in virtual time, and
        the parked calls resume under the new composition — no
        acknowledged call is ever lost.  Returns the
        :class:`~repro.adapt.engine.AdaptationReport`.
        """
        from repro.adapt.engine import AdaptationManager
        return await AdaptationManager.ensure(self).adapt(
            service, target, reason=reason, drain_timeout=drain_timeout)

    def rebind(self, service: str,
               target: Union[Group, Iterable[int]]) -> Group:
        """Atomically repoint ``service`` at a new server group.

        Subsequent :meth:`call`\\ s resolve to ``target`` (an existing
        reconfiguration having shrunk/regrown the group).  Every member
        of the new group must already run a composite for the service.
        """
        svc = self.service(service)
        group = target if isinstance(target, Group) \
            else Group(service, target)
        missing = [pid for pid in group
                   if pid not in svc.grpcs or pid not in svc.server_pids]
        if missing:
            raise BindingError(
                f"cannot rebind {service!r} to {sorted(group.members)}: "
                f"pids {missing} run no server composite for it")
        svc.group = group
        if self.flight is not None:
            self.flight.note("rebind", service=service,
                             members=sorted(group.members))
        return group

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def publish_runtime_stats(self) -> None:
        """Snapshot the runtime's scheduler counters into ``kernel.*``
        gauges (and, when enabled, the observatory's instruments), so
        they ride along in metric exports."""
        for name, value in self.runtime.stats().items():
            self.metrics.gauge(f"kernel.{name}").set(value)
        if self.observatory is not None:
            self.observatory.publish()

    def render_report(self) -> str:
        """The observatory's one-page deployment health report."""
        if self.observatory is None:
            raise ReproError(
                "the observatory is not enabled (construct the "
                "deployment with observatory=True)")
        return self.observatory.render_report()

    def export_trace(self, stream) -> int:
        """Write the recorded trace + metrics as JSONL; returns the line
        count.  Requires the obs layer (``obs=True``)."""
        if self.obs is None:
            raise ReproError("observability layer is not enabled "
                             "(construct the deployment with obs=True)")
        self.publish_runtime_stats()
        return to_jsonl(self.obs, stream)

    def format_flame(self, trace: Optional[int] = None) -> str:
        """Human-readable span tree(s); requires the obs layer."""
        if self.obs is None:
            raise ReproError("observability layer is not enabled "
                             "(construct the deployment with obs=True)")
        return format_flame(self.obs, trace)

    # ------------------------------------------------------------------
    # Driving the simulation
    # ------------------------------------------------------------------

    def spawn_client(self, pid: int, coro: Coroutine, *,
                     name: str = "") -> Any:
        """Run client code as a task owned by node ``pid``.

        The task dies if that node crashes — required for the orphan
        experiments to be meaningful.
        """
        return self.nodes[pid].spawn(coro, name=name or f"client-{pid}")

    def run_scenario(self, coro: Coroutine, *,
                     extra_time: float = 0.0) -> Any:
        """Run an arbitrary scenario coroutine to completion.

        The scenario runs as a plain kernel task (not owned by any node),
        so it survives node crashes; spawn node-owned work from within it
        via :meth:`spawn_client`.
        """
        result = self.runtime.run(coro, shutdown=False)
        if extra_time > 0:
            self.runtime.run_for(extra_time)
        return result

    def settle(self, duration: float) -> None:
        """Advance virtual time (heartbeats, retransmits, timeouts)."""
        self.runtime.run_for(duration)

    def shutdown(self) -> None:
        """Tear the whole deployment down, cancelling in-flight work.

        Only needed when an experiment intentionally ends with calls
        still in progress (overload studies); normal runs drain
        naturally.  Closing the control loop detaches every policy from
        the membership stream and releases the observatory's
        process-global marshaller hook.
        """
        self.control.close()
        self.runtime.kernel.shutdown()

    # ------------------------------------------------------------------
    # Fault injection shorthands
    # ------------------------------------------------------------------

    def crash(self, pid: int) -> None:
        self.nodes[pid].crash()

    def recover(self, pid: int) -> None:
        self.nodes[pid].recover()

    def partition(self, side_a, side_b) -> None:
        self.fabric.partition(side_a, side_b)

    def heal(self) -> None:
        self.fabric.heal()

    def make_slow(self, pid: int, delay: float) -> None:
        """Give every link toward ``pid`` a large delay (performance
        failure)."""
        self.fabric.set_links_to(pid, LinkSpec(delay=delay, jitter=0.0))
