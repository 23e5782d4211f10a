"""The deployment observatory: one measurement plane over everything.

The paper's configurability argument is only actionable if an operator
can *see* what each composition costs at runtime; this module is where
the individual instruments — the kernel profiler's sampled steps and
handler-site call counts (:mod:`repro.obs.profiler`), per-key load
accounting (:mod:`repro.obs.loadstats`), windowed SLO tracking
(:mod:`repro.obs.slo`) and the flight recorder
(:mod:`repro.obs.flight`) — are assembled and wired into a running
:class:`~repro.core.deployment.Deployment`:

* the profiler is attached to the runtime (kernel step hook), captured
  by every event bus built afterwards, and installed as the stub
  marshaller's module hook;
* the load tracker is what :meth:`ShardRouter.attach_load` and the
  placement plane's routed call path feed;
* the SLO tracker observes every name-resolved call's latency, and its
  breach callback triggers a flight-recorder dump — the tape of
  suspicion flips, rebinds, migration phases and backpressure stalls
  leading up to the breach;
* membership changes are taped from the ``observe`` slot of the
  deployment's :class:`~repro.core.control.ControlLoop` — the first
  slot, so every reaction lands on the tape after its cause.

Construct a deployment with ``observatory=True`` (or an
:class:`ObservatoryConfig`); everything else holds ``None`` hooks and
stays on the zero-overhead disabled path.  ``python -m repro report``
renders :meth:`Observatory.render_report`, the one-page health view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.flight import FlightRecorder
from repro.obs.loadstats import KeyLoadTracker
from repro.obs.profiler import KernelProfiler
from repro.obs.slo import SloBreach, SloTracker

__all__ = ["Observatory", "ObservatoryConfig"]


def _marshal_module():
    """The stub marshaller, imported lazily: :mod:`repro.stubs` pulls in
    the whole composite-protocol layer, which itself imports
    :mod:`repro.obs` — a cycle at module-import time, gone by the time
    an observatory is actually constructed.  ``importlib`` rather than
    ``from repro.stubs import marshal``: the package re-exports the
    :func:`~repro.stubs.marshal.marshal` *function* under that name."""
    import importlib
    return importlib.import_module("repro.stubs.marshal")


@dataclass(frozen=True)
class ObservatoryConfig:
    """The SLO breach rule; every instrument keeps its default size,
    and every breach dumps the flight recorder."""

    #: Percentile -> latency bound in virtual seconds ({} = watermarks
    #: only, no breach detection).
    slo_thresholds: Dict[int, float] = field(default_factory=dict)
    #: Observations a window needs before breaches are judged.
    slo_min_samples: int = 16


class Observatory:
    """The assembled measurement plane of one deployment."""

    def __init__(self, deployment: Any,
                 config: Optional[ObservatoryConfig] = None):
        cfg = self.config = config or ObservatoryConfig()
        self.deployment = deployment
        metrics = deployment.metrics
        runtime = deployment.runtime
        self.profiler = KernelProfiler()
        self.load = KeyLoadTracker(metrics)
        self.slo = SloTracker(metrics, thresholds=cfg.slo_thresholds,
                              min_samples=cfg.slo_min_samples,
                              clock=runtime.now)
        self.flight = FlightRecorder(metrics, clock=runtime.now)
        self.slo.on_breach = self._dump_on_breach
        # Hook installation.  Order matters only for the profiler: it
        # must be attached before composites (and their event buses) are
        # built, which Deployment guarantees by constructing the
        # observatory inside its own __init__.
        runtime.attach_profiler(self.profiler)
        _marshal_module().install_profiler(self.profiler)
        deployment.control.install("observe", self)
        deployment.fabric.pipeline.flight = self.flight

    # ------------------------------------------------------------------
    # Wiring callbacks
    # ------------------------------------------------------------------

    def _dump_on_breach(self, breach: SloBreach) -> None:
        self.flight.note("slo-breach", service=breach.service,
                         percentile=breach.percentile,
                         value=round(breach.value, 6),
                         threshold=breach.threshold)
        self.flight.dump(
            f"slo-breach:{breach.service}:p{breach.percentile}")

    def on_member(self, pid: int, alive: bool) -> None:
        self.flight.note("recover" if alive else "suspect", pid=pid)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release the process-global marshaller hook.

        The other hooks die with the deployment; the marshaller's is a
        module global (the stub layer has no runtime reference) and must
        be detached explicitly when several deployments share a process
        (tests do).
        """
        marshal = _marshal_module()
        if marshal._PROFILER is self.profiler:
            marshal.install_profiler(None)

    def publish(self) -> None:
        """Snapshot every instrument into the shared metrics registry."""
        self.profiler.publish(self.deployment.metrics)
        self.load.publish()
        self.slo.publish()
        self.flight.publish()

    # ------------------------------------------------------------------
    # The one-page health report
    # ------------------------------------------------------------------

    def render_report(self) -> str:
        """Deployment health: profile, hot keys, SLO state, the tape."""
        deployment = self.deployment
        width = 68
        lines: List[str] = []

        def section(title: str, body: List[str]) -> None:
            lines.append("")
            lines.append(f"── {title} " + "─" * max(0, width - len(title) - 4))
            lines.extend(f"  {line}" for line in body)

        services = ", ".join(sorted(deployment.services)) or "none"
        lines.append("deployment health report")
        lines.append(f"  virtual time: {deployment.runtime.now():.3f}s   "
                     f"nodes: {len(deployment.nodes)}   "
                     f"services: {services}")
        section("kernel profile", self.profiler.report_lines())
        section("per-shard hot keys", self.load.report_lines())
        section("SLO windows", self.slo.report_lines())
        chain = [entry for entry in self.flight.entries()
                 if entry[2] in ("view-propose", "coord-takeover",
                                 "view-commit", "view-rollback",
                                 "recover-failed")]
        if chain:
            body = []
            for seq, time, kind, fields in chain:
                rendered = " ".join(f"{key}={fields[key]!r}"
                                    for key in sorted(fields))
                body.append(f"[{seq:>5}] t={time:9.4f}s {kind:<14} "
                            f"{rendered}".rstrip())
            section("placement takeover chain", body)
        tape = self.flight.format_dump()
        body = tape.split("\n") if tape else ["(empty)"]
        retained = len(self.flight)
        section(f"flight recorder ({retained}/{self.flight.capacity} "
                f"events, {self.flight.total_noted} noted, "
                f"{len(self.flight.dumps)} dumps)", body)
        return "\n".join(lines)
