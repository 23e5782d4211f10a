"""The kernel profiler: where do the cycles go, and which handlers run?

The unit of attribution in a simulated deployment is not the Python
frame: one kernel step interleaves many tasks, and the paper's question
("what does configurability cost?") is asked per micro-protocol.
:class:`KernelProfiler` therefore measures at the seams the framework
already has:

* **kernel steps** — a sampling hook in :meth:`repro.sim.kernel.Kernel.
  _step`: every step captures ``perf_counter``, and the wall-clock delta
  between consecutive samples is attributed to the earlier sample's
  task *kind* (:func:`task_kind`; start-to-start attribution, the
  classic sampling-profiler scheme).  A task's site is
  resolved once and cached in ``task.tags``, so the table is as large as
  the deployment's shape, not its call count.  This is the only
  wall-clock measurement in the system — everything else is virtual
  time — because "which task burns real CPU" is exactly what the speed
  program needs to know;
* **handler sites** — the event bus's enter hook counts one call per
  ``(owner, handler)`` site, on entry, so a handler parked at an
  ``await`` or cancelled by a crash is counted once all the same.  A
  handler's virtual time is the span recorder's ``handler.<micro>``
  histograms' business (:mod:`repro.obs.recorder`), not this table's;
* **the stub marshaller** — :func:`repro.stubs.marshal.install_profiler`
  routes per-call byte counts and wall-clock into :meth:`on_marshal` /
  :meth:`on_unmarshal`, since argument marshalling is the one real-CPU
  cost every call pays twice.

Zero overhead when disabled: the kernel hook is ``kernel.profile_hook``
(``None`` by default — one ``is None`` test per step), the bus captures
``runtime.profiler`` once at construction, and the marshaller checks a
module global once per call.  ``tests/test_obs_overhead.py`` guards all
three.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["KernelProfiler", "HandlerSite", "StepSite", "task_kind"]

#: A handler site: (owning micro-protocol, qualified handler name).
SiteKey = Tuple[str, str]

#: ``task.tags`` key under which the step sampler keeps a task's site.
_SITE_TAG = "obs.step_site"


def task_kind(name: str) -> str:
    """The step sampler's site key: a task's name minus its trailing
    sequence number.

    Tasks spawned per message or per timer end in a counter
    (``node-101-msg-5532``, ``node-101-msg-5532.3`` for the third message
    of a batched envelope, ``timeout-1223``) and all do one kind of work,
    so they share one site (``node-101-msg``, ``timeout``).  Only that
    last field is dropped: long-lived tasks keep their identity
    (``heartbeat@5-send`` vs ``heartbeat@5-mon``, ``main``).
    """
    kind, dash, seq = name.rpartition("-")
    return kind if dash and seq.replace(".", "").isdigit() else name


class StepSite:
    """Wall-clock accounting for one task kind in the step sampler."""

    __slots__ = ("name", "samples", "wall")

    def __init__(self, name: str):
        self.name = name
        self.samples = 0
        self.wall = 0.0


class HandlerSite:
    """The call count of one (owner, handler) site."""

    __slots__ = ("owner", "handler", "calls")

    def __init__(self, owner: str, handler: str):
        self.owner = owner
        self.handler = handler
        self.calls = 0

    @property
    def label(self) -> str:
        return f"{self.owner or 'framework'}:{self.handler}"


class KernelProfiler:
    """Sampling profiler over kernel steps, handler sites and the
    marshaller.  One instance per deployment, owned by the observatory.
    """

    def __init__(self) -> None:
        # -- step sampler (wall clock) --
        self.steps_seen = 0
        #: The site of the latest sample and when it was taken.
        self._pending: Optional[StepSite] = None
        self._pending_since = 0.0
        self._step_sites: Dict[str, StepSite] = {}
        # -- handler sites (call counts) --
        self._handler_sites: Dict[SiteKey, HandlerSite] = {}
        # -- marshaller --
        self.marshal_calls = 0
        self.marshal_bytes = 0
        self.marshal_wall = 0.0
        self.unmarshal_calls = 0
        self.unmarshal_bytes = 0
        self.unmarshal_wall = 0.0

    # ------------------------------------------------------------------
    # Kernel step hook (wall clock, sampled)
    # ------------------------------------------------------------------

    def on_step(self, task: Any) -> None:
        """Installed as ``kernel.profile_hook``; called once per step."""
        self.steps_seen += 1
        now = perf_counter()
        site = self._pending
        if site is not None:
            site.samples += 1
            site.wall += now - self._pending_since
        # A task's site is resolved on its first step and kept
        # in its tags; every later step is one dict lookup.
        site = task.tags.get(_SITE_TAG)
        if site is None:
            kind = task_kind(task.name)
            site = self._step_sites.get(kind)
            if site is None:
                site = self._step_sites[kind] = StepSite(kind)
            task.tags[_SITE_TAG] = site
        self._pending = site
        self._pending_since = now

    def step_sites(self) -> List[StepSite]:
        """Sampled task kinds, most wall-clock first."""
        return sorted((s for s in self._step_sites.values() if s.samples),
                      key=lambda s: (-s.wall, s.name))

    # ------------------------------------------------------------------
    # Handler-site hooks (call counts, exact)
    # ------------------------------------------------------------------

    def handler_enter(self, task_key: int, owner: str,
                      handler: str) -> None:
        """The bus is about to run ``handler``: count one call."""
        site = self._handler_sites.get((owner, handler))
        if site is None:
            site = self._handler_sites[owner, handler] = HandlerSite(
                owner, handler)
        site.calls += 1

    def handler_exit(self, task_key: int, duration: float) -> None:
        """The bus's exit hook; a call is counted on entry, so the exit
        records nothing.  Kept so the bus's enter/exit pair stays one
        protocol for every profiler it may be handed."""

    def handler_sites(self) -> List[HandlerSite]:
        """Handler sites, most calls first."""
        return sorted(self._handler_sites.values(),
                      key=lambda s: (-s.calls, s.label))

    # ------------------------------------------------------------------
    # Marshaller hooks (wall clock, exact)
    # ------------------------------------------------------------------

    def on_marshal(self, nbytes: int, seconds: float) -> None:
        self.marshal_calls += 1
        self.marshal_bytes += nbytes
        self.marshal_wall += seconds

    def on_unmarshal(self, nbytes: int, seconds: float) -> None:
        self.unmarshal_calls += 1
        self.unmarshal_bytes += nbytes
        self.unmarshal_wall += seconds

    # ------------------------------------------------------------------
    # Publishing and reporting
    # ------------------------------------------------------------------

    def publish(self, metrics: Any) -> None:
        """Snapshot the profile into ``obs.profile.*`` gauges."""
        gauge = metrics.gauge
        gauge("obs.profile.steps").set(self.steps_seen)
        gauge("obs.profile.step_sites").set(len(self.step_sites()))
        gauge("obs.profile.handler_sites").set(len(self._handler_sites))
        gauge("obs.profile.marshal.calls").set(self.marshal_calls)
        gauge("obs.profile.marshal.bytes").set(self.marshal_bytes)
        gauge("obs.profile.marshal.wall").set(self.marshal_wall)
        gauge("obs.profile.unmarshal.calls").set(self.unmarshal_calls)
        gauge("obs.profile.unmarshal.bytes").set(self.unmarshal_bytes)
        gauge("obs.profile.unmarshal.wall").set(self.unmarshal_wall)

    def report_lines(self) -> List[str]:
        """The profiler section of the deployment health report: every
        handler site, and the eight task kinds with most wall clock."""
        lines = [f"kernel steps seen: {self.steps_seen} (sampling 1/1)"]
        sites = self.handler_sites()
        if sites:
            lines.append(f"handler sites by calls ({len(sites)}):")
            width = max(len(site.label) for site in sites)
            for site in sites:
                lines.append(f"  {site.label:<{width}} calls={site.calls}")
        else:
            lines.append("no handler sites recorded")
        steps = self.step_sites()
        if steps:
            lines.append("top tasks by sampled wall clock:")
            for site in steps[:8]:
                lines.append(
                    f"  {site.name:<46} samples={site.samples:<6} "
                    f"wall={site.wall * 1000:8.2f}ms")
        if self.marshal_calls or self.unmarshal_calls:
            lines.append(
                f"marshalling: {self.marshal_calls} encodes "
                f"({self.marshal_bytes} B, "
                f"{self.marshal_wall * 1000:.2f}ms), "
                f"{self.unmarshal_calls} decodes "
                f"({self.unmarshal_bytes} B, "
                f"{self.unmarshal_wall * 1000:.2f}ms)")
        return lines
