"""Counters, gauges and virtual-time histograms.

The metrics half of :mod:`repro.obs`: a single :class:`MetricsRegistry`
per deployment absorbs what used to be scattered ad-hoc counters (most
prominently :class:`repro.net.trace.NetTrace`'s ``collections.Counter``)
so experiments, benchmarks and the trace exporters all read from one
place.  Instruments are created on first use and are deliberately tiny —
a counter increment is one attribute add — because the network fabric
increments them on every message even when tracing is disabled.

Histograms record *virtual-time* observations (handler durations, span
lengths); :meth:`Histogram.summary` reports count/sum/min/max/mean and
the interpolation-free percentiles the benchmarks quote.  Raw-sample
storage is bounded by a deterministic reservoir (seeded per instrument
name, Vitter's Algorithm R): below the cap every observation is kept
exactly — which is what keeps the seeded benchmarks byte-identical —
and beyond it percentiles come from a uniform sample while count, sum,
mean, min and max stay exact.
"""

from __future__ import annotations

import random
import zlib
from typing import Any, Dict, List, Optional

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time value (queue depth, kernel step count, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A distribution of virtual-time observations.

    Keeps every raw value exactly up to ``reservoir`` samples (runs
    small enough for exact percentiles stay exact), then degrades to a
    seeded uniform reservoir (Algorithm R) so memory is bounded however
    long an experiment runs.  ``count``/``total``/``mean`` and min/max
    are tracked exactly regardless; only the percentiles become sampled
    beyond the cap.  The RNG is seeded from the instrument name, so two
    runs of the same workload summarize identically.
    """

    __slots__ = ("name", "_values", "_count", "_sum", "_min", "_max",
                 "_cap", "_rng")

    #: Default raw-sample cap; far above what any shipped benchmark
    #: observes per instrument, so existing summaries are unchanged.
    DEFAULT_RESERVOIR = 65536

    def __init__(self, name: str, *, reservoir: Optional[int] = None):
        self.name = name
        cap = self.DEFAULT_RESERVOIR if reservoir is None else reservoir
        if cap < 1:
            raise ValueError("histogram reservoir must be >= 1")
        self._cap = cap
        self._values: List[float] = []
        self._count = 0
        self._sum = 0.0
        self._min = 0.0
        self._max = 0.0
        # Lazily created: most histograms never reach the cap.
        self._rng: Optional[random.Random] = None

    def observe(self, value: float) -> None:
        count = self._count = self._count + 1
        self._sum += value
        if count == 1:
            self._min = self._max = value
        elif value < self._min:
            self._min = value
        elif value > self._max:
            self._max = value
        if len(self._values) < self._cap:
            self._values.append(value)
            return
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(
                zlib.crc32(self.name.encode("utf-8")) ^ self._cap)
        slot = rng.randrange(count)
        if slot < self._cap:
            self._values[slot] = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def samples(self) -> List[float]:
        """The retained raw values (exact below the reservoir cap)."""
        return list(self._values)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile (``p`` in [0, 100]); 0 when empty."""
        if not self._values:
            return 0.0
        ordered = sorted(self._values)
        rank = max(0, min(len(ordered) - 1,
                          int(round(p / 100.0 * (len(ordered) - 1)))))
        return ordered[rank]

    def summary(self) -> Dict[str, float]:
        if not self._count:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Name -> instrument table shared by one deployment.

    Instruments live in separate namespaces per type; asking for a
    counter named like an existing gauge is an error caught by the
    caller's own naming discipline (names are dotted paths such as
    ``net.send`` or ``handler.Reliable_Communication``).
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument access (create on first use) -------------------------

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge(name)
        return inst

    def histogram(self, name: str) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(name)
        return inst

    # -- read-only views --------------------------------------------------

    def value(self, name: str, default: float = 0) -> float:
        """A counter's value without creating it."""
        inst = self._counters.get(name)
        return inst.value if inst is not None else default

    def counter_names(self, prefix: str = "") -> List[str]:
        return [n for n in self._counters if n.startswith(prefix)]

    def histogram_names(self, prefix: str = "") -> List[str]:
        return [n for n in self._histograms if n.startswith(prefix)]

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Everything, as plain data (what the exporters serialize)."""
        return {
            "counters": {n: c.value for n, c in self._counters.items()},
            "gauges": {n: g.value for n, g in self._gauges.items()},
            "histograms": {n: h.summary()
                           for n, h in self._histograms.items()},
        }

    def reset(self, prefix: str = "") -> None:
        """Zero counters/gauges and drop histograms under ``prefix``."""
        for name, counter in self._counters.items():
            if name.startswith(prefix):
                counter.value = 0
        for name, gauge in self._gauges.items():
            if name.startswith(prefix):
                gauge.value = 0.0
        for name in [n for n in self._histograms if n.startswith(prefix)]:
            del self._histograms[name]
