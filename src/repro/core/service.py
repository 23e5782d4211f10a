"""One-call construction of a complete single-service deployment.

:class:`ServiceCluster` is the historical entry point used by the
examples, the integration tests and the benchmark harness: one
:class:`~repro.core.config.ServiceSpec`, one server group, one
application.  It is now a thin wrapper over a one-service
:class:`~repro.core.deployment.Deployment` — the multi-service
deployment plane — exposing the same flat surface as before: per-pid
``grpcs``/``apps``/``dispatchers`` dicts, ``cluster.group``,
``cluster.call`` &c.  New code that needs several differently-configured
services on one fabric should use :class:`Deployment` directly.

Layout: servers get process ids ``1..n_servers`` (so the Total Order
leader is the highest-numbered server), clients get ids from
:data:`CLIENT_BASE_PID` up.  Every node runs the same composite
configuration, as in the paper's model; servers additionally carry the
application dispatcher on top.
"""

from __future__ import annotations

from typing import Any, Callable, Coroutine, Optional, Union

from repro.apps.dispatcher import ServerApp
from repro.core.config import ServiceSpec
from repro.core.deployment import CLIENT_BASE_PID, Deployment
from repro.core.messages import CallResult
from repro.net import LinkSpec, WireConfig
from repro.obs import Recorder
from repro.runtime import SimRuntime

__all__ = ["ServiceCluster", "CLIENT_BASE_PID"]

#: The wrapped service's name (also its group's name, as before).
_SERVICE_NAME = "servers"


class ServiceCluster:
    """A ready-to-run simulated deployment of one gRPC configuration."""

    def __init__(self, spec: ServiceSpec,
                 app_factory: Callable[[int], ServerApp], *,
                 n_servers: int = 3, n_clients: int = 1,
                 seed: int = 0,
                 default_link: LinkSpec = LinkSpec(),
                 membership: Optional[str] = None,
                 membership_delay: float = 0.0,
                 heartbeat_interval: float = 0.05,
                 keep_trace: bool = True,
                 obs: Union[bool, Recorder] = False,
                 runtime: Optional[SimRuntime] = None,
                 wire: Optional[WireConfig] = None):
        """``membership`` is ``None``, ``"oracle"`` or ``"heartbeat"``.

        ``obs`` turns on the observability layer: ``True`` creates a
        :class:`~repro.obs.Recorder` sharing the cluster's metrics
        registry; pass a pre-built recorder to control it yourself.
        The metrics
        registry itself (``cluster.metrics``) always exists — the fabric
        counts messages through it regardless.
        """
        self.spec = spec
        self.deployment = Deployment(
            seed=seed, default_link=default_link, membership=membership,
            membership_delay=membership_delay,
            heartbeat_interval=heartbeat_interval, keep_trace=keep_trace,
            obs=obs, runtime=runtime, wire=wire)
        self._service = self.deployment.add_service(
            _SERVICE_NAME, spec, app_factory,
            servers=range(1, n_servers + 1),
            clients=range(CLIENT_BASE_PID, CLIENT_BASE_PID + n_clients))

        # The historical flat surface, aliased onto the deployment's
        # shared substrate and the single service's wiring.
        self.runtime = self.deployment.runtime
        self.metrics = self.deployment.metrics
        self.obs = self.deployment.obs
        self.fabric = self.deployment.fabric
        self.nodes = self.deployment.nodes
        self.demuxes = self.deployment.demuxes
        self.server_pids = self._service.server_pids
        self.client_pids = self._service.client_pids
        self.grpcs = self._service.grpcs
        self.dispatchers = self._service.dispatchers
        self.apps = self._service.apps
        self._membership = self.deployment._membership

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------

    @property
    def group(self):
        """The service's current server group (tracks rebinds)."""
        return self._service.group

    @property
    def trace(self):
        return self.fabric.trace

    def node(self, pid: int):
        return self.nodes[pid]

    def grpc(self, pid: int):
        return self.grpcs[pid]

    def app(self, pid: int) -> ServerApp:
        return self.apps[pid]

    def dispatcher(self, pid: int):
        return self.dispatchers[pid]

    @property
    def client(self) -> int:
        """The first client's pid (single-client shorthand)."""
        return self.client_pids[0]

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def publish_runtime_stats(self) -> None:
        """Snapshot the runtime's scheduler counters into ``kernel.*``
        gauges, so they ride along in metric exports."""
        self.deployment.publish_runtime_stats()

    def export_trace(self, stream) -> int:
        """Write the recorded trace + metrics as JSONL; returns the line
        count.  Requires the obs layer (``obs=True``)."""
        return self.deployment.export_trace(stream)

    def format_flame(self, trace: Optional[int] = None) -> str:
        """Human-readable span tree(s); requires the obs layer."""
        return self.deployment.format_flame(trace)

    # ------------------------------------------------------------------
    # Driving the simulation
    # ------------------------------------------------------------------

    def spawn_client(self, pid: int, coro: Coroutine, *,
                     name: str = "") -> Any:
        """Run client code as a task owned by client node ``pid``.

        The task dies if that client crashes — required for the orphan
        experiments to be meaningful.
        """
        return self.deployment.spawn_client(pid, coro, name=name)

    async def call(self, client_pid: int, op: str, args: Any) -> CallResult:
        """Issue one call from ``client_pid`` (await from a client task)."""
        return await self.deployment.call(client_pid, _SERVICE_NAME, op,
                                          args)

    def call_and_run(self, op: str, args: Any, *,
                     client_pid: Optional[int] = None,
                     extra_time: float = 0.0) -> CallResult:
        """Blockingly run one call to completion from outside the kernel.

        Spawns the call on the client node, drives the simulation until it
        finishes, optionally runs ``extra_time`` more virtual seconds (to
        let retransmissions and acks drain), and returns the result.
        """
        return self.deployment.call_and_run(
            _SERVICE_NAME, op, args,
            client_pid=client_pid if client_pid is not None
            else self.client,
            extra_time=extra_time)

    def run_scenario(self, coro: Coroutine, *,
                     extra_time: float = 0.0) -> Any:
        """Run an arbitrary scenario coroutine to completion.

        The scenario runs as a plain kernel task (not owned by any node),
        so it survives node crashes; spawn node-owned work from within it
        via :meth:`spawn_client`.
        """
        return self.deployment.run_scenario(coro, extra_time=extra_time)

    def settle(self, duration: float) -> None:
        """Advance virtual time (heartbeats, retransmits, timeouts)."""
        self.deployment.settle(duration)

    def shutdown(self) -> None:
        """Tear the whole deployment down, cancelling in-flight work."""
        self.deployment.shutdown()

    # ------------------------------------------------------------------
    # Fault injection shorthands
    # ------------------------------------------------------------------

    def crash(self, pid: int) -> None:
        self.deployment.crash(pid)

    def recover(self, pid: int) -> None:
        self.deployment.recover(pid)

    def partition(self, side_a, side_b) -> None:
        self.deployment.partition(side_a, side_b)

    def heal(self) -> None:
        self.deployment.heal()

    def make_slow(self, pid: int, delay: float) -> None:
        """Give every link toward ``pid`` a large delay (performance
        failure)."""
        self.deployment.make_slow(pid, delay)
