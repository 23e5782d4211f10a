"""Per-key load accounting: which keys are hot, per shard.

The routers already count *how many* lookups each shard absorbs
(``placement.router.keys_routed.<service>``); what they cannot answer is
*which keys* are responsible — the datum hot-key splitting needs before
it can act (see ROADMAP: load-aware placement).  Tracking every key
exactly is unbounded, so :class:`SpaceSaving` implements the classic
Metwally/Agrawal/El Abbadi space-saving sketch: a fixed budget of ``k``
counters that provably contains every key whose true frequency exceeds
``total / k``, each with an explicit overestimation bound.

:class:`KeyLoadTracker` holds one sketch per shard service and is the
object the observatory hands to :meth:`ShardRouter.attach_load` /
:class:`~repro.placement.plane.PlacementPlane`.  Its per-note cost is a
counter increment plus one sketch update; publishing lands
``placement.load.*`` gauges in the shared registry.  Like every obs
hook, the tracker is attached once at construction time — a deployment
without the observatory keeps routers on a single ``is None`` test.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["SpaceSaving", "KeyLoadTracker"]


class SpaceSaving:
    """Top-K frequency sketch with a fixed counter budget.

    ``hit(key)`` costs O(budget) in the worst case (eviction scans for
    the minimum) but O(1) while the key set fits; ``top(n)`` returns
    ``(key, count, err)`` triples where ``count - err`` lower-bounds the
    key's true frequency.
    """

    __slots__ = ("budget", "total", "_counts", "_errs")

    def __init__(self, budget: int):
        if budget < 1:
            raise ValueError("space-saving budget must be >= 1")
        self.budget = budget
        self.total = 0
        self._counts: Dict[str, int] = {}
        self._errs: Dict[str, int] = {}

    def hit(self, key: str, n: int = 1) -> None:
        self.total += n
        counts = self._counts
        if key in counts:
            counts[key] += n
            return
        if len(counts) < self.budget:
            counts[key] = n
            self._errs[key] = 0
            return
        # Evict the minimum counter (lowest count, then lowest key: one
        # C-level pass); the newcomer inherits its count as the
        # overestimation error (the sketch's defining move).
        victim, floor = min(counts.items(), key=itemgetter(1, 0))
        del counts[victim]
        del self._errs[victim]
        counts[key] = floor + n
        self._errs[key] = floor

    def top(self, n: Optional[int] = None) -> List[Tuple[str, int, int]]:
        """``(key, count, err)`` triples, hottest first (ties by key)."""
        ranked = sorted(self._counts.items(),
                        key=lambda kv: (-kv[1], kv[0]))
        if n is not None:
            ranked = ranked[:n]
        return [(key, count, self._errs[key]) for key, count in ranked]

    def __len__(self) -> int:
        return len(self._counts)


class KeyLoadTracker:
    """One space-saving sketch per shard service.

    ``note(service, key)`` is the hook routers call per routed lookup;
    ``publish`` snapshots ``placement.load.*`` gauges; ``top`` feeds the
    health report and future hot-key splitting.
    """

    def __init__(self, metrics: Any, *, top_k: int = 8):
        self.metrics = metrics
        self.top_k = top_k
        self._sketches: Dict[str, SpaceSaving] = {}
        self._noted = metrics.counter("placement.load.noted")

    def note(self, service: str, key: str) -> None:
        self._noted.inc()
        sketch = self._sketches.get(service)
        if sketch is None:
            sketch = self._sketches[service] = SpaceSaving(self.top_k)
        sketch.hit(key)

    def services(self) -> List[str]:
        return sorted(self._sketches)

    def top(self, service: str,
            n: Optional[int] = None) -> List[Tuple[str, int, int]]:
        sketch = self._sketches.get(service)
        if sketch is None:
            return []
        return sketch.top(n if n is not None else self.top_k)

    def publish(self) -> None:
        """Per-shard gauges: tracked volume and the hottest key's count."""
        for service, sketch in self._sketches.items():
            self.metrics.gauge(
                f"placement.load.volume.{service}").set(sketch.total)
            top = sketch.top(1)
            self.metrics.gauge(
                f"placement.load.hottest.{service}").set(
                top[0][1] if top else 0)

    def report_lines(self) -> List[str]:
        """The hot-key section of the deployment health report."""
        if not self._sketches:
            return ["no routed lookups recorded"]
        lines = []
        for service in self.services():
            sketch = self._sketches[service]
            ranked = ", ".join(
                f"{key}×{count}" + (f"(-{err})" if err else "")
                for key, count, err in sketch.top(self.top_k))
            lines.append(f"{service}: {sketch.total} lookups, "
                         f"top keys: {ranked}")
        return lines
