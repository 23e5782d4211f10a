"""The flight recorder: the last N control-plane events, always on tape.

Traces and metrics answer "how much"; what post-mortems need is "what
happened *just before* it went wrong", cheaply enough to leave running.
:class:`FlightRecorder` is a bounded ring buffer of causal control-plane
events — suspicion flips, rebinds, migration phase transitions,
backpressure stalls — each a ``(seq, virtual time, kind, fields)``
tuple.  Per-message traffic (heartbeats included) is counted in the
metrics registry, never taped: it would push those events out.  When the ring fills, the oldest entry is
overwritten; capacity bounds memory however long the deployment runs.

Dumps are **deterministic**: :meth:`format_dump` renders only virtual
times, sequence numbers and sorted fields (no wall clock, no object
ids), so two seeded runs of the same scenario produce byte-identical
dumps — which is what makes a dump diffable against a known-good run.
Dumps happen on demand, on an SLO breach (the observatory wires
:class:`~repro.obs.slo.SloTracker.on_breach` here) and on test failure:
``tests/conftest.py`` walks :func:`live_recorders` from a pytest
hookwrapper and attaches each dump to the failing test's report.

Noting an event is a list assignment plus a counter increment; as with
every obs hook, components hold ``None`` instead of a recorder when the
observatory is disabled.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["FlightRecorder", "FlightEntry", "live_recorders"]

#: One recorded event: (seq, virtual time, kind, fields).
FlightEntry = Tuple[int, float, str, Dict[str, Any]]

#: Every live recorder, so the pytest failure hook can find them
#: without plumbing; weak so finished deployments do not accumulate.
_LIVE: "weakref.WeakSet[FlightRecorder]" = weakref.WeakSet()


def live_recorders() -> List["FlightRecorder"]:
    """The flight recorders of every still-referenced deployment."""
    return list(_LIVE)


class FlightRecorder:
    """A bounded ring of control-plane events for one deployment."""

    def __init__(self, metrics: Any, *, capacity: int = 256,
                 clock: Callable[[], float] = lambda: 0.0):
        if capacity < 1:
            raise ValueError("flight-recorder capacity must be >= 1")
        self.capacity = capacity
        self.clock = clock
        self.metrics = metrics
        self._ring: List[Optional[FlightEntry]] = [None] * capacity
        self._seq = 0
        #: (reason, rendered dump) pairs, in dump order.
        self.dumps: List[Tuple[str, str]] = []
        self._notes = metrics.counter("obs.recorder.notes")
        self._dumped = metrics.counter("obs.recorder.dumps")
        self._dropped = metrics.counter("obs.recorder.overwrites")
        _LIVE.add(self)

    # ------------------------------------------------------------------

    def note(self, kind: str, **fields: Any) -> None:
        """Record one control-plane event, overwriting the oldest when
        the ring is full."""
        seq = self._seq
        slot = seq % self.capacity
        if self._ring[slot] is not None:
            self._dropped.inc()
        self._ring[slot] = (seq, self.clock(), kind, fields)
        self._seq = seq + 1
        self._notes.inc()

    def __len__(self) -> int:
        return min(self._seq, self.capacity)

    @property
    def total_noted(self) -> int:
        return self._seq

    def entries(self) -> List[FlightEntry]:
        """The retained events, oldest first."""
        if self._seq <= self.capacity:
            return [e for e in self._ring[:self._seq] if e is not None]
        head = self._seq % self.capacity
        ring = self._ring[head:] + self._ring[:head]
        return [e for e in ring if e is not None]

    # ------------------------------------------------------------------

    def format_dump(self) -> str:
        """Deterministic rendering of the retained tape (virtual times,
        sequence numbers and sorted fields only)."""
        lines = []
        for seq, time, kind, fields in self.entries():
            rendered = " ".join(f"{key}={fields[key]!r}"
                                for key in sorted(fields))
            lines.append(f"[{seq:>5}] t={time:9.4f}s {kind:<18} "
                         f"{rendered}".rstrip())
        return "\n".join(lines)

    def dump(self, reason: str) -> str:
        """Snapshot the tape under ``reason``; returns the rendering."""
        text = self.format_dump()
        self.dumps.append((reason, text))
        self._dumped.inc()
        return text

    def publish(self) -> None:
        self.metrics.gauge("obs.recorder.retained").set(len(self))
        self.metrics.gauge("obs.recorder.seq").set(self._seq)
