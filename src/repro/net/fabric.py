"""The simulated unreliable network.

Implements the failure model the paper assumes: "an asynchronous
distributed system, where the underlying communication system can
experience both omission and performance failures".  Concretely:

* **omission failures** — each link drops a message with probability
  ``loss`` and may duplicate with probability ``duplicate``;
* **performance failures** — base latency plus uniform jitter, with
  occasional delay spikes (probability ``spike_prob``, extra delay
  ``spike_delay``), and reordering as a natural consequence of independent
  per-message delays;
* **partitions** — directional blocks installed between process sets;
* **crash failures** — delivery to a down node is dropped (handled with
  the :class:`~repro.net.node.Node` lifecycle).

All randomness is drawn from named streams of a
:class:`~repro.sim.rand.RandomSource`, one stream per directed link, so
experiments are exactly reproducible and adding nodes does not perturb
existing links' draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from random import Random
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import ReproError
from repro.net.message import Envelope, Group, ProcessId
from repro.net.node import Node
from repro.net.trace import NetTrace
from repro.net.wire import WireBatch, WireConfig, WirePipeline
from repro.obs.metrics import MetricsRegistry
from repro.runtime.sim_runtime import SimRuntime
from repro.sim.rand import RandomSource

__all__ = ["LinkSpec", "NetworkFabric"]


@dataclass(frozen=True)
class LinkSpec:
    """Failure/latency parameters for one directed link.

    ``delay`` is the base one-way latency; each message adds uniform
    jitter in ``[0, jitter]``.  ``loss`` and ``duplicate`` are per-message
    probabilities.  ``spike_prob``/``spike_delay`` model performance
    failures (a late message rather than a lost one).
    """

    delay: float = 0.010
    jitter: float = 0.005
    loss: float = 0.0
    duplicate: float = 0.0
    spike_prob: float = 0.0
    spike_delay: float = 0.5

    def __post_init__(self) -> None:
        if self.delay < 0 or self.jitter < 0 or self.spike_delay < 0:
            raise ValueError("delays must be non-negative")
        for p in (self.loss, self.duplicate, self.spike_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability out of range: {p}")


#: A message filter: returns False to drop the envelope (fault injection).
MessageFilter = Callable[[Envelope], bool]


class NetworkFabric:
    """Connects :class:`~repro.net.node.Node` objects with lossy links."""

    def __init__(self, runtime: SimRuntime, *,
                 rand: Optional[RandomSource] = None,
                 default_link: LinkSpec = LinkSpec(),
                 trace: Optional[NetTrace] = None,
                 metrics: Optional["MetricsRegistry"] = None,
                 wire: Optional[WireConfig] = None):
        self.runtime = runtime
        self.rand = rand or RandomSource(0)
        self.default_link = default_link
        self.trace = trace or NetTrace(metrics=metrics)
        #: The one outbound path: every sender reaches :meth:`send`
        #: through this pipeline (coalescing, backpressure, fast lane).
        self.pipeline = WirePipeline(self, wire)
        self.nodes: Dict[ProcessId, Node] = {}
        self._links: Dict[Tuple[ProcessId, ProcessId], LinkSpec] = {}
        self._blocked: Set[Tuple[ProcessId, ProcessId]] = set()
        self._filters: List[MessageFilter] = []
        # Per-link hot cache: (src, dst) -> (LinkSpec, rng stream).  The
        # stream name f-string and registry lookups are paid once per
        # link instead of once per send; invalidated by set_link.
        self._hot_links: Dict[Tuple[ProcessId, ProcessId], tuple] = {}
        self._envelopes_counter = self.trace.metrics.counter(
            "net.envelopes")
        #: Observers told when a node crashes/recovers; the oracle
        #: membership detector subscribes here.
        self._membership_watchers: List[Callable[[ProcessId, bool], None]] = []

    # ------------------------------------------------------------------
    # Topology management
    # ------------------------------------------------------------------

    def add_node(self, node: Node) -> None:
        if node.pid in self.nodes:
            raise ReproError(f"duplicate process id {node.pid}")
        self.nodes[node.pid] = node

    def node(self, pid: ProcessId) -> Node:
        return self.nodes[pid]

    def set_link(self, src: ProcessId, dst: ProcessId,
                 spec: LinkSpec) -> None:
        """Override the parameters of the ``src -> dst`` link."""
        self._links[(src, dst)] = spec
        self._hot_links.pop((src, dst), None)

    def set_links_to(self, dst: ProcessId, spec: LinkSpec) -> None:
        """Override every link toward ``dst`` (model a slow/lossy site)."""
        for pid in self.nodes:
            if pid != dst:
                self._links[(pid, dst)] = spec
                self._hot_links.pop((pid, dst), None)

    def link(self, src: ProcessId, dst: ProcessId) -> LinkSpec:
        return self._links.get((src, dst), self.default_link)

    def partition(self, side_a: Iterable[ProcessId],
                  side_b: Iterable[ProcessId]) -> None:
        """Block traffic in both directions between the two sets."""
        for a in side_a:
            for b in side_b:
                self._blocked.add((a, b))
                self._blocked.add((b, a))

    def heal(self, side_a: Optional[Iterable[ProcessId]] = None,
             side_b: Optional[Iterable[ProcessId]] = None) -> None:
        """Remove partitions — all of them when called with no arguments."""
        if side_a is None or side_b is None:
            self._blocked.clear()
            return
        for a in side_a:
            for b in side_b:
                self._blocked.discard((a, b))
                self._blocked.discard((b, a))

    def add_filter(self, fltr: MessageFilter) -> Callable[[], None]:
        """Install a scripted drop filter; returns a remover callback."""
        self._filters.append(fltr)
        return lambda: self._filters.remove(fltr)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send(self, src: ProcessId, dst: ProcessId, payload: object, *,
             resolve: Optional[Callable[[], None]] = None) -> None:
        """Queue ``payload`` for delivery over the ``src -> dst`` link.

        This is the single internal primitive the wire pipeline owns:
        protocol stacks go through ``fabric.pipeline`` (which stages,
        coalesces and budgets) and the pipeline lands here.  Never
        blocks; the envelope is subjected to the link's loss, duplication
        and delay models and delivered (or not) later.  The link's
        stream is drawn in a fixed order: loss, then duplication, then
        per copy its jitter and spike.

        A :class:`~repro.net.wire.WireBatch` payload travels (and is
        lost, duplicated or delayed) as one envelope, but every ``net.*``
        trace record accounts per *inner* message — dropping a batch of
        five is five losses.  Scripted fault filters are likewise probed
        once per inner message, so :mod:`repro.faults` applies uniformly
        whether or not batching is on; surviving messages continue in a
        rebuilt batch.  ``resolve`` is called exactly once when the
        envelope's fate is decided (the pipeline's budget return).  One
        :class:`~repro.net.message.Envelope` is built per transmitted
        copy.
        """
        now = self.runtime.now()
        batched = payload.__class__ is WireBatch
        inner = payload.messages if batched else (payload,)
        self._envelopes_counter.value += 1
        trace_record = self.trace.record
        for msg in inner:
            trace_record(now, "send", src, dst, msg)
        if self._filters:
            envelope = Envelope(src, dst, payload, now)
            survivors = []
            for msg in inner:
                probe = envelope if not batched else \
                    Envelope(src, dst, msg, now, envelope.seq)
                if all(fltr(probe) for fltr in list(self._filters)):
                    survivors.append(msg)
                else:
                    trace_record(now, "drop-filter", src, dst, msg)
            if not survivors:
                if resolve is not None:
                    resolve()
                return
            if len(survivors) != len(inner):
                inner = survivors
                payload = survivors[0] if len(survivors) == 1 \
                    else WireBatch(survivors)
        key = (src, dst)
        if key in self._blocked:
            return self._drop("drop-partition", now, src, dst, inner,
                              resolve)
        hot = self._hot_links.get(key)
        if hot is None:
            hot = (self._links.get(key, self.default_link),
                   self.rand.stream(f"link-{src}-{dst}"))
            self._hot_links[key] = hot
        spec, rng = hot
        if spec.loss and rng.random() < spec.loss:
            return self._drop("drop-loss", now, src, dst, inner, resolve)
        envelope = Envelope(src, dst, payload, now, -1, 0, resolve)
        if spec.duplicate and rng.random() < spec.duplicate:
            for msg in inner:
                trace_record(now, "duplicate", src, dst, msg)
            self._launch(spec, rng, envelope)
            envelope = Envelope(src, dst, payload, now, -1, 1, resolve)
        self._launch(spec, rng, envelope)

    def _launch(self, spec: LinkSpec, rng: Random,
                envelope: Envelope) -> None:
        """Draw one copy's delay and arm its delivery.

        ``jitter * random()`` is, bit for bit, what ``uniform(0.0,
        jitter)`` computes (``0.0 + (jitter - 0.0) * random()``)."""
        delay = spec.delay + spec.jitter * rng.random()
        if spec.spike_prob and rng.random() < spec.spike_prob:
            delay += spec.spike_delay
        self.runtime.call_later(delay, partial(self._deliver, envelope))

    def multicast(self, src: ProcessId, group: Group | Iterable[ProcessId],
                  payload: object) -> None:
        """Send ``payload`` to every group member over independent links.

        The paper permits group RPC "using either multicast or
        point-to-point communication"; the fabric models multicast as
        point-to-point fan-out with independent per-link failures, which is
        the weaker (and therefore safe) assumption.
        """
        for member in group:
            self.send(src, member, payload)

    def _deliver(self, envelope: Envelope) -> None:
        src, dst, payload = envelope.src, envelope.dst, envelope.payload
        node = self.nodes.get(dst)
        now = self.runtime.now()
        inner = payload.messages if payload.__class__ is WireBatch \
            else (payload,)
        if node is None or not node.up:
            return self._drop("drop-dead", now, src, dst, inner,
                              envelope.on_resolved)
        trace_record = self.trace.record
        for msg in inner:
            trace_record(now, "deliver", src, dst, msg)
        resolve = envelope.on_resolved
        if resolve is not None:
            resolve()
        node.deliver(envelope)

    def _drop(self, kind: str, now: float, src: ProcessId, dst: ProcessId,
              inner: Iterable[object],
              resolve: Optional[Callable[[], None]]) -> None:
        """Record one ``kind`` drop per message, then settle the send's
        fate (the pipeline's budget return)."""
        for msg in inner:
            self.trace.record(now, kind, src, dst, msg)
        if resolve is not None:
            resolve()

    # ------------------------------------------------------------------
    # Membership plumbing
    # ------------------------------------------------------------------

    def watch_membership(self, watcher: Callable[[ProcessId, bool], None]
                         ) -> None:
        """Subscribe to crash/recover notifications (oracle detector)."""
        self._membership_watchers.append(watcher)

    def unwatch_membership(self,
                           watcher: Callable[[ProcessId, bool], None]
                           ) -> None:
        """Detach a :meth:`watch_membership` subscriber (no-op when it
        was never attached)."""
        try:
            self._membership_watchers.remove(watcher)
        except ValueError:
            pass

    def notify_membership(self, pid: ProcessId, alive: bool) -> None:
        for watcher in list(self._membership_watchers):
            watcher(pid, alive)

    def alive_pids(self) -> Set[ProcessId]:
        return {pid for pid, node in self.nodes.items() if node.up}
