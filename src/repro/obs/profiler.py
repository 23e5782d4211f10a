"""The kernel profiler: where do the cycles (and the virtual time) go?

The ROADMAP's hot-path speed program needs a baseline before anything
can be optimised, and "run cProfile by hand" does not compose with the
simulation: one kernel step interleaves many tasks, and the interesting
unit of attribution is the *handler site* (micro-protocol owner +
handler), not the Python frame.  :class:`KernelProfiler` therefore
profiles at the seams the framework already has:

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
* **handler sites** — enter/exit hooks on the event bus's dispatch
  path walk a *calling-context tree*: a per-task frame stack steps from
  the enclosing handler's node to its ``(owner, handler)`` child, so
  nested ``trigger`` chains attribute child time to the child and each
  node *is* one collapsed-stack line (``a;b;c <self>``, the format
  flamegraph tooling consumes).  Virtual-time self and cumulative
  totals accumulate per site and per node, and only for a handler
  during which the clock moved;
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
    """Virtual-time accounting for one (owner, handler) site."""

    __slots__ = ("owner", "handler", "calls", "cum", "self_time")

    def __init__(self, owner: str, handler: str):
        self.owner = owner
        self.handler = handler
        self.calls = 0
        #: Virtual time from enter to exit, children included.
        self.cum = 0.0
        #: Virtual time minus the time spent in nested handler sites.
        self.self_time = 0.0

    @property
    def label(self) -> str:
        return _label(self.owner, self.handler)


def _label(owner: str, handler: str) -> str:
    return f"{owner or 'framework'}:{handler}"


class _ContextNode:
    """One calling-context-tree node: a handler site as reached through
    one chain of enclosing sites (one collapsed-stack line)."""

    __slots__ = ("key", "children", "site", "self_time")

    def __init__(self, key: SiteKey):
        self.key = key
        self.children: Dict[SiteKey, "_ContextNode"] = {}
        #: The node's :class:`HandlerSite`; ``None`` until the first
        #: exit, so a context entered but never left is not reported.
        self.site: Optional[HandlerSite] = None
        self.self_time = 0.0


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
        # -- handler sites (virtual time) --
        self._handler_sites: Dict[SiteKey, HandlerSite] = {}
        self._root = _ContextNode(("", ""))
        #: Per-task stacks of [context node, child virtual time] frames.
        self._stacks: Dict[int, List[List[Any]]] = {}
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
    # Handler-site hooks (virtual time, exact)
    # ------------------------------------------------------------------

    def handler_enter(self, task_key: int, owner: str,
                      handler: str) -> None:
        stack = self._stacks.get(task_key)
        if stack is None:
            stack = self._stacks[task_key] = []
            children = self._root.children
        else:
            children = stack[-1][0].children
        key = (owner, handler)
        node = children.get(key)
        if node is None:
            node = children[key] = _ContextNode(key)
        stack.append([node, 0.0])

    def handler_exit(self, task_key: int, duration: float) -> None:
        stack = self._stacks.get(task_key)
        if not stack:
            return
        node, child = stack.pop()
        site = node.site
        if site is None:
            site = self._handler_sites.get(node.key)
            if site is None:
                site = self._handler_sites[node.key] = HandlerSite(
                    *node.key)
            node.site = site
        site.calls += 1
        # Virtual time stands still across most handlers, and adding 0.0
        # changes no total: only a handler that waited does float work.
        if duration != 0.0:
            self_time = duration - child
            if self_time < 0.0:
                self_time = 0.0
            site.cum += duration
            site.self_time += self_time
            node.self_time += self_time
            if stack:
                stack[-1][1] += duration
        if not stack:
            del self._stacks[task_key]

    def handler_sites(self) -> List[HandlerSite]:
        """Handler sites, most cumulative virtual time first."""
        return sorted(self._handler_sites.values(),
                      key=lambda s: (-s.cum, s.owner, s.handler))

    def collapsed(self) -> str:
        """Collapsed-stack export (``a;b;c <microseconds>`` per line),
        the flamegraph input format.  Self virtual time, scaled to
        integer microseconds; sorted for determinism."""
        paths: List[Tuple[Tuple[str, ...], float]] = []

        def walk(node: _ContextNode, prefix: Tuple[str, ...]) -> None:
            for child in node.children.values():
                path = prefix + (_label(*child.key),)
                if child.site is not None:
                    paths.append((path, child.self_time))
                walk(child, path)

        walk(self._root, ())
        return "\n".join(f"{';'.join(path)} {round(self_time * 1e6)}"
                         for path, self_time in sorted(paths))

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
        gauge("obs.profile.handler_virtual").set(
            sum(s.self_time for s in self._handler_sites.values()))
        gauge("obs.profile.marshal.calls").set(self.marshal_calls)
        gauge("obs.profile.marshal.bytes").set(self.marshal_bytes)
        gauge("obs.profile.marshal.wall").set(self.marshal_wall)
        gauge("obs.profile.unmarshal.calls").set(self.unmarshal_calls)
        gauge("obs.profile.unmarshal.bytes").set(self.unmarshal_bytes)
        gauge("obs.profile.unmarshal.wall").set(self.unmarshal_wall)

    def report_lines(self, *, top: int = 8) -> List[str]:
        """The profiler section of the deployment health report."""
        lines = [f"kernel steps seen: {self.steps_seen} (sampling 1/1)"]
        sites = self.handler_sites()
        if sites:
            lines.append(f"top handler sites by virtual time "
                         f"(of {len(sites)}):")
            for site in sites[:top]:
                lines.append(
                    f"  {site.label:<46} calls={site.calls:<6} "
                    f"self={site.self_time * 1000:8.2f}ms "
                    f"cum={site.cum * 1000:8.2f}ms")
        else:
            lines.append("no handler sites recorded")
        steps = self.step_sites()
        if steps:
            lines.append("top tasks by sampled wall clock:")
            for site in steps[:top]:
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
