"""Network event tracing and counters.

Every fabric decision (send, drop, duplicate, deliver, crash, recover) is
recorded here.  Experiments use the counters for their reported metrics
(message costs per call, retransmission counts) and the event log for
invariant checking in tests.

The per-kind counters live in a :class:`~repro.obs.metrics.MetricsRegistry`
under ``net.<kind>`` (one registry per deployment, shared with the rest of
the observability layer); read them as ``metrics.value("net.send")`` &c.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry

__all__ = ["TraceEvent", "NetTrace"]

#: Registry namespace for the fabric's per-kind counters.
NET_PREFIX = "net."


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped fabric event.

    ``kind`` is one of ``send``, ``deliver``, ``drop-loss``,
    ``drop-partition``, ``drop-filter``, ``drop-dead``,
    ``drop-src-down`` (buffered by the wire pipeline when the sending
    site crashed before its coalescing flush), ``duplicate``, ``crash``,
    ``recover``.  Batched envelopes account one record per *inner*
    message for every kind.
    """

    time: float
    kind: str
    src: int
    dst: int
    detail: Any = None


class NetTrace:
    """Accumulates :class:`TraceEvent` records and per-kind counters.

    Recording the full event list can be disabled (counters only) for the
    large benchmark runs via ``keep_events=False``.  Pass the deployment's
    shared registry as ``metrics`` to fold the network counters into it; a
    private registry is created otherwise.
    """

    def __init__(self, keep_events: bool = True,
                 metrics: Optional[MetricsRegistry] = None):
        self.keep_events = keep_events
        self.events: List[TraceEvent] = []
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Optional live observers, e.g. a test asserting on the fly.
        self.observers: List[Callable[[TraceEvent], None]] = []
        # Per-kind counter objects, resolved once: Counter instances are
        # stable across registry resets (reset zeroes them in place), so
        # the hot path skips the name concatenation and registry lookup.
        self._counters: Dict[str, Any] = {}

    def record(self, time: float, kind: str, src: int = -1, dst: int = -1,
               detail: Any = None) -> None:
        counter = self._counters.get(kind)
        if counter is None:
            counter = self.metrics.counter(NET_PREFIX + kind)
            self._counters[kind] = counter
        counter.value += 1
        if not self.keep_events and not self.observers:
            # Counters-only mode (the big benchmark runs): no event
            # object is materialized at all.
            return
        event = TraceEvent(time, kind, src, dst, detail)
        if self.keep_events:
            self.events.append(event)
        for observer in self.observers:
            observer(event)

    # -- event queries ---------------------------------------------------

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def between(self, src: Optional[int] = None, dst: Optional[int] = None
                ) -> List[TraceEvent]:
        """Events filtered by endpoint(s)."""
        return [e for e in self.events
                if (src is None or e.src == src)
                and (dst is None or e.dst == dst)]

    def clear(self) -> None:
        self.events.clear()
        self.metrics.reset(NET_PREFIX)
