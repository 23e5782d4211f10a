"""The unified wire pipeline: one outbound send path for every sender.

Historically the reproduction grew three parallel ways of putting a
message on the simulated network — ``UnreliableTransport.push`` for the
protocol stacks, raw ``NetworkFabric.send`` for hand-built experiments,
and the deployment plane's service-stamped calls — which made link-level
optimisations impossible to do in one place.  This module collapses them
into a single :class:`WirePipeline` owned by the fabric.  Every sender
(gRPC composites, p2p stubs, heartbeat detectors, placement migration,
deployment calls) reaches the network through it, via the transport at
the bottom of each node's stack.

The pipeline is composed of small, configurable stages::

    sender
      │  annotate / account (net.* per-message counters)
      │  control fast lane ──────────────────────────┐
      │  per-link coalescing buffer                  │
      │    (flush at end of the scheduling round,    │
      │     or early at a size cap)                  │
      │  bounded per-link send queue (backpressure)  │
      ▼                                              ▼
    fabric.send  ← the single internal primitive the pipeline owns
      │  loss / duplication / partitions / scripted fault filters
      ▼
    delivery → unbatch → node's arrival table → composites
                          (one claim per payload type and service key)

* **Coalescing** — with ``batch=True``, messages sharing a ``(src,
  dst)`` link within one scheduling round travel in a single
  :class:`WireBatch` envelope, so co-hosted composites pay one envelope
  per link per round instead of one per message.  The flush point is a
  zero-delay timer: it fires exactly when the current instant's ready
  queue drains (the end of the scheduling round).  A buffer is also
  flushed early when it reaches ``max_batch_msgs`` messages or
  ``max_batch_bytes`` estimated bytes (:func:`repro.net.message.
  wire_size`).
* **Backpressure** — with ``queue_depth > 0``, each link has an
  in-flight budget: senders ``await`` when the budget is exhausted
  instead of growing unbounded fabric timer queues.  A message occupies
  budget from the moment it is accepted until the fabric resolves its
  envelope (delivered, or dropped by loss/partition/filter/crash).
* **Fast lane** — small control messages (payload types carrying a
  truthy ``wire_control`` class attribute, e.g. membership
  ``Heartbeat``\\ s) always bypass both the coalescing buffer and the
  budget, so failure detectors are not head-of-line blocked behind bulk
  RPC traffic.
* **Metrics** — the pipeline lands ``net.batch.*``, ``net.queue.*`` and
  ``net.fastlane.*`` instruments in the deployment's shared registry,
  plus per-link flush histograms (``net.batch.flush.<src>-<dst>``).
  With an observatory attached, each backpressure stall is also noted
  on its flight tape; fast-lane sends are only counted, so a
  detector's beats never crowd the control-plane events off the tape.

With the default :class:`WireConfig` every stage is pass-through and the
pipeline reproduces the old per-message path exactly — same RNG draws,
same trace events, same timing — which is what keeps the seeded
benchmarks and the fault-injection tests byte-identical.

The one entry point is :meth:`WirePipeline.submit`, a plain call: what
no stage holds back (every pass-through send, every fast-lane beat)
reaches the fabric inside it, and only a send that a buffer or a budget
takes over comes back as a coroutine to await.  Other senders reach it
through their transport's ``submit``; a gRPC composite's ``net_push``
on a pass-through pipeline does its work itself and calls
``fabric.send``, one frame fewer per push.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass
from typing import Any, Coroutine, Dict, Iterable, List, Optional, Tuple

from repro.net.message import ProcessId, WireBatch, wire_size

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.net.fabric import NetworkFabric

__all__ = ["WireConfig", "WireBatch", "WirePipeline"]


@dataclass(frozen=True)
class WireConfig:
    """Knobs for the pipeline's coalescing and backpressure stages.

    The defaults disable every optimisation, recovering the exact
    pre-pipeline per-message behaviour (one envelope per message, no
    send-side blocking); experiments opt in per deployment.
    """

    #: Coalesce messages sharing a (src, dst) link within one scheduling
    #: round into a single :class:`WireBatch` envelope.
    batch: bool = False
    #: Flush a link's buffer early once it holds this many messages.
    max_batch_msgs: int = 16
    #: ... or this many estimated payload bytes.
    max_batch_bytes: int = 4096
    #: Per-link in-flight budget; senders await above it.  0 = unbounded.
    queue_depth: int = 0

    def __post_init__(self) -> None:
        if self.max_batch_msgs < 1:
            raise ValueError("max_batch_msgs must be >= 1")
        if self.max_batch_bytes < 1:
            raise ValueError("max_batch_bytes must be >= 1")
        if self.queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")


class _Link:
    """Per-directed-link pipeline state: buffer, budget, instruments."""

    __slots__ = ("src", "dst", "buffer", "buffered_bytes", "flush_pending",
                 "credits", "inflight", "depth_gauge", "flush_hist")

    def __init__(self, src: ProcessId, dst: ProcessId,
                 credits: Any, depth_gauge: Any, flush_hist: Any):
        self.src = src
        self.dst = dst
        self.buffer: List[Any] = []
        self.buffered_bytes = 0
        self.flush_pending = False
        self.credits = credits          # runtime semaphore, or None
        self.inflight = 0
        self.depth_gauge = depth_gauge  # gauge, or None
        self.flush_hist = flush_hist    # histogram, or None


class WirePipeline:
    """The single outbound path from every sender to the fabric.

    Owned by (and constructed with) the :class:`~repro.net.fabric.
    NetworkFabric`; the :class:`~repro.net.transport.UnreliableTransport`
    at the bottom of every node's stack routes all pushes through
    :meth:`submit`.  ``fabric.send`` remains the single internal
    primitive the pipeline calls to put one envelope on a link.
    """

    def __init__(self, fabric: "NetworkFabric",
                 config: Optional[WireConfig] = None):
        self.fabric = fabric
        self._nodes = fabric.nodes
        self.runtime = fabric.runtime
        self.config = config or WireConfig()
        self.metrics = fabric.trace.metrics
        # Unpacked for the hot path.
        self.batch = self.config.batch
        self.queue_depth = self.config.queue_depth
        self.max_batch_msgs = self.config.max_batch_msgs
        self.max_batch_bytes = self.config.max_batch_bytes
        #: Plain path: no stage is active, sends go straight down.
        self.passthrough = not self.batch and self.queue_depth == 0
        self._links: Dict[Tuple[ProcessId, ProcessId], _Link] = {}
        #: The observatory's flight recorder, or None.  Attached by
        #: :class:`repro.obs.observatory.Observatory`; records every
        #: backpressure stall.
        self.flight: Any = None
        # Hot-path counters resolved once (Counter objects are stable
        # across registry resets).
        self._ctr_fastlane = self.metrics.counter("net.fastlane.sends")
        self._ctr_waits = self.metrics.counter("net.queue.waits")
        self._ctr_batch_msgs = self.metrics.counter("net.batch.messages")
        self._ctr_flush_cap = self.metrics.counter("net.batch.flush.cap")
        self._ctr_flush_round = self.metrics.counter(
            "net.batch.flush.round")
        self._ctr_batch_envs = self.metrics.counter("net.batch.envelopes")

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def submit(self, src: ProcessId, dest: Any,
               payload: Any) -> Optional[Coroutine[Any, Any, None]]:
        """Send ``payload`` from ``src`` toward ``dest``: a process id
        (an ``int``), or any iterable of them — a :class:`~repro.net.
        message.Group`, a list, a range, a generator — one independent
        link per member.

        What no stage holds back is handed to the fabric right here and
        ``None`` is returned: every send of a pass-through pipeline, and
        each control message on the fast lane.  Otherwise the result is
        the coroutine that stages the message (:meth:`send` or
        :meth:`multicast`), which the caller must await: it may block on
        the link's budget.  A crashed ``src`` sends nothing (its tasks
        are cancelled with it, but a timer action may race the crash).
        """
        if not self._nodes[src].up:
            return None
        one = dest.__class__ is int or isinstance(dest, int)
        control = getattr(payload, "wire_control", False)
        if not self.passthrough and not control:
            return (self.send(src, dest, payload) if one
                    else self.multicast(src, dest, payload))
        send = self._fast_send if control else self.fabric.send
        if one:
            send(src, dest, payload)
        else:
            for member in dest:
                send(src, member, payload)
        return None

    def _fast_send(self, src: ProcessId, dst: ProcessId,
                   payload: Any) -> None:
        """Control fast lane: no coalescing, no budget — a failure
        detector's beats must not queue behind bulk payloads."""
        self._ctr_fastlane.value += 1
        self.fabric.send(src, dst, payload)

    async def send(self, src: ProcessId, dst: ProcessId,
                   payload: Any) -> None:
        """Stage ``payload`` for the ``src -> dst`` link (the path
        :meth:`submit` takes when a stage is active).

        May block (backpressure) when the link's in-flight budget is
        exhausted; otherwise returns once the message is buffered or
        handed to the fabric.
        """
        await self._stage(self._link(src, dst), payload,
                          wire_size(payload) if self.batch else 0)

    async def multicast(self, src: ProcessId, dests: Iterable[ProcessId],
                        payload: Any) -> None:
        """Stage ``payload`` on each member's link (:meth:`send` for a
        group); a batched payload is sized once, not once per link."""
        size = wire_size(payload) if self.batch else 0
        for member in dests:
            await self._stage(self._link(src, member), payload, size)

    async def _stage(self, link: _Link, payload: Any, size: int) -> None:
        """Take budget on ``link``, then buffer ``payload`` (``size``
        estimated bytes) or, unbatched, hand it to the fabric."""
        src, dst = link.src, link.dst
        if link.credits is not None:
            if link.credits.locked():
                self._ctr_waits.inc()
                if self.flight is not None:
                    self.flight.note("backpressure", src=src, dst=dst,
                                     inflight=link.inflight)
            await link.credits.acquire()
            link.inflight += 1
            link.depth_gauge.set(link.inflight)
        if not self.batch:
            self.fabric.send(src, dst, payload,
                             resolve=self._resolver(link, 1))
            return
        link.buffer.append(payload)
        link.buffered_bytes += size
        self._ctr_batch_msgs.inc()
        if (len(link.buffer) >= self.max_batch_msgs
                or link.buffered_bytes >= self.max_batch_bytes):
            self._ctr_flush_cap.inc()
            self._flush(link)
        elif not link.flush_pending:
            link.flush_pending = True
            # Zero-delay timer = end of the current scheduling round
            # (timers fire only once the ready queue drains).
            self.runtime.call_later(0.0,
                                    lambda: self._round_flush(link))

    # ------------------------------------------------------------------
    # Coalescing internals
    # ------------------------------------------------------------------

    def _link(self, src: ProcessId, dst: ProcessId) -> _Link:
        key = (src, dst)
        link = self._links.get(key)
        if link is None:
            credits = depth_gauge = None
            if self.queue_depth > 0:
                credits = self.runtime.semaphore(self.queue_depth)
                depth_gauge = self.metrics.gauge(
                    f"net.queue.depth.{src}-{dst}")
            flush_hist = (self.metrics.histogram(
                f"net.batch.flush.{src}-{dst}") if self.batch else None)
            link = _Link(src, dst, credits, depth_gauge, flush_hist)
            self._links[key] = link
        return link

    def _round_flush(self, link: _Link) -> None:
        link.flush_pending = False
        if link.buffer:
            self._ctr_flush_round.inc()
            self._flush(link)

    def _flush(self, link: _Link) -> None:
        """Put the buffered messages on the wire as one envelope."""
        msgs = link.buffer
        if not msgs:
            return
        link.buffer = []
        link.buffered_bytes = 0
        n = len(msgs)
        node = self.fabric.nodes.get(link.src)
        if node is not None and not node.up:
            # The site crashed with messages still buffered: a down site
            # cannot transmit, so they die here rather than escaping on
            # the post-crash flush timer.
            now = self.runtime.now()
            for msg in msgs:
                self.fabric.trace.record(now, "drop-src-down", link.src,
                                         link.dst, detail=msg)
            self._release(link, n)
            return
        payload = msgs[0] if n == 1 else WireBatch(msgs)
        self._ctr_batch_envs.inc()
        link.flush_hist.observe(n)
        self.fabric.send(link.src, link.dst, payload,
                         resolve=self._resolver(link, n))

    def drop_source(self, pid: ProcessId) -> int:
        """Discard every message ``pid`` still has buffered (it crashed).

        Returns how many messages were dropped.  Called from
        :meth:`repro.net.node.Node.crash`; the in-flight ones already on
        the fabric are not recalled — they were transmitted before the
        crash and resolve on their own.
        """
        dropped = 0
        now = self.runtime.now()
        for link in self._links.values():
            if link.src != pid or not link.buffer:
                continue
            msgs, link.buffer = link.buffer, []
            link.buffered_bytes = 0
            for msg in msgs:
                self.fabric.trace.record(now, "drop-src-down", link.src,
                                         link.dst, detail=msg)
            self._release(link, len(msgs))
            dropped += len(msgs)
        return dropped

    # ------------------------------------------------------------------
    # Budget accounting
    # ------------------------------------------------------------------

    def _resolver(self, link: _Link, n: int):
        """A call-once hook returning ``n`` messages of budget."""
        if link.credits is None:
            return None
        fired = False

        def resolve() -> None:
            nonlocal fired
            if fired:
                return
            fired = True
            self._release(link, n)

        return resolve

    def _release(self, link: _Link, n: int) -> None:
        if link.credits is None:
            return
        link.inflight -= n
        link.depth_gauge.set(link.inflight)
        for _ in range(n):
            link.credits.release()

    # ------------------------------------------------------------------
    # Introspection (tests, benchmarks)
    # ------------------------------------------------------------------

    def buffered(self, src: Optional[ProcessId] = None,
                 dst: Optional[ProcessId] = None) -> int:
        """Messages currently held in coalescing buffers."""
        return sum(len(link.buffer) for link in self._links.values()
                   if (src is None or link.src == src)
                   and (dst is None or link.dst == dst))

    def inflight(self, src: ProcessId, dst: ProcessId) -> int:
        """Messages currently charged against the link's budget."""
        link = self._links.get((src, dst))
        return link.inflight if link is not None else 0
