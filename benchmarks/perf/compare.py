"""Compare two result sets written by ``run.py --out``.

    python3 benchmarks/perf/compare.py A.json B.json

A is the parent (baseline), B the change.  One row per workload x
end-to-end metric: both medians, the metric's bound, and a verdict —

``better`` / ``worse``
    B's median differs from A's by more than the bound, in the good or
    the bad direction;
``same``
    within the bound;
``unresolved``
    either set's own spread (interquartile range over its median)
    exceeds the bound, so the sets cannot tell a difference of that
    size from their own noise.  Re-run with ``--repeat`` raised.

Exact metrics (virtual-time latency, failed share, the crash workload's
unavailability and lost-write count) must be *identical*; a difference
is reported as ``changed`` and counts as ``worse`` — it means behaviour
moved, not speed.  Exit status is non-zero when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List, Tuple

import catalog


def load(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def samples(document: Dict[str, Any], workload: str, trace: int,
            metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in document["runs"]
            if run["workload"] == workload and run["trace"] == trace
            and metric in run["metrics"]]


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (0 for < 2 runs)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (third - first) / median if median else 0.0


def verdict(metric: catalog.Metric, a: List[float],
            b: List[float]) -> Tuple[str, float]:
    """(verdict, relative change of B's median against A's; positive is
    worse)."""
    base, new = statistics.median(a), statistics.median(b)
    change = (new - base) / base if base else 0.0
    if metric.better == "higher":
        change = -change
    if max(spread(a), spread(b)) > metric.bound:
        return "unresolved", change
    if change > metric.bound:
        return "worse", change
    if change < -metric.bound:
        return "better", change
    return "same", change


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[List[str], bool]:
    lines = [f"A: rev {a['host']['rev']}  seed {a['seed']}  "
             f"python {a['host']['python']}  nproc {a['host']['nproc']}  "
             f"{a['host']['cpu']}",
             f"B: rev {b['host']['rev']}  seed {b['seed']}  "
             f"python {b['host']['python']}  nproc {b['host']['nproc']}  "
             f"{b['host']['cpu']}",
             f"{'workload':<22}{'metric':<24}{'A median':>14}"
             f"{'B median':>14}{'bound':>8}{'change':>9}  verdict"]
    any_worse = False
    for workload in catalog.WORKLOADS:
        for metric in catalog.END_TO_END:
            va = samples(a, workload, 0, metric.name)
            vb = samples(b, workload, 0, metric.name)
            if not va or not vb:
                continue
            word, change = verdict(metric, va, vb)
            any_worse = any_worse or word == "worse"
            lines.append(
                f"{workload:<22}{metric.name:<24}"
                f"{statistics.median(va):>14.4f}"
                f"{statistics.median(vb):>14.4f}"
                f"{metric.bound:>8.0%}{change:>+9.1%}  {word}")
        for metric in catalog.EXACT:
            va = samples(a, workload, 0, metric.name)
            vb = samples(b, workload, 0, metric.name)
            if not va or not vb:
                continue
            if set(va) != set(vb):
                any_worse = True
                lines.append(f"{workload:<22}{metric.name:<24}"
                             f"{va[0]:>14.6f}{vb[0]:>14.6f}"
                             f"{'exact':>8}{'':>9}  changed")
    return lines, any_worse


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    a, b = load(argv[0]), load(argv[1])
    if (a["seed"], a["seconds"]) != (b["seed"], b["seconds"]):
        print("the two sets were taken with different seed/seconds; "
              "exact metrics and counts are not comparable",
              file=sys.stderr)
        return 2
    lines, any_worse = compare(a, b)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
