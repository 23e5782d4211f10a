#!/usr/bin/env python3
"""Per-call operation counts of the perf workloads: a meter host noise
cannot move.

Each workload from ``benchmarks/perf/workloads.py`` is built and warmed
up exactly as ``benchmarks/perf/run.py`` does it, untraced.  Over the
timed region only, three counts are then taken and divided by the calls
the region completed:

* **bytecodes** executed (``sys.settrace`` ``opcode`` events);
* **Python calls** (``sys.setprofile`` ``call`` events: a function
  entry or a coroutine resumption);
* **C calls** (``sys.setprofile`` ``c_call`` events).

Beside them it reports the kernel timers the region armed and the
cancelled ones the kernel's lazy purge dropped from its heap, per call
(the ``timers_scheduled``/``timers_purged`` deltas): the heap work a
bytecode count does not show.

The collector is disabled inside the region, so its sweeps (and the
finalizers they run) do not land in it.  The counts depend only on the
code, the Python version, the seed and ``--ops``; run under
``PYTHONHASHSEED=0`` to compare two processes (string hashing orders
sets), which this script arranges for itself.  It imports the
workloads read-only and changes nothing under ``benchmarks/perf``.

    python tools/opcount.py                      # all six, 400 ops each
    python tools/opcount.py --ops 100            # the CI size
    python tools/opcount.py --workload replicated_mixed --top 15
    python tools/opcount.py --workload stub_bulk --by-file
    python tools/opcount.py --ops 200 --json before.json
    python tools/opcount.py --ops 200 --against before.json

``--json OUT`` writes the per-workload counts as one JSON object;
``--against BEFORE`` reads such a file and prints, for each workload it
also holds, the before and after counts and their difference.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import sysconfig
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
PERF = ROOT / "benchmarks" / "perf"
for path in (ROOT / "src", PERF):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import harness  # noqa: E402  (benchmarks/perf, on the path above)
import workloads  # noqa: E402

SEED = 17
STDLIB = Path(sysconfig.get_paths()["stdlib"]).resolve()


class Meter:
    """The three counts over one region, and bytecodes and Python calls
    per code object."""

    def __init__(self) -> None:
        self.by_code: Counter = Counter()
        self.calls_by_code: Counter = Counter()
        self.c_calls = 0

    def _local(self, frame: Any, event: str, arg: Any) -> Any:
        if event == "opcode":
            self.by_code[frame.f_code] += 1
        return self._local

    def _global(self, frame: Any, event: str, arg: Any) -> Any:
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return self._local

    def _profile(self, frame: Any, event: str, arg: Any) -> None:
        if event == "call":
            self.calls_by_code[frame.f_code] += 1
        elif event == "c_call":
            self.c_calls += 1

    def run(self, fn: Any, *args: Any) -> None:
        """Call ``fn(*args)`` with the hooks installed, then restore the
        hooks (and the collector) that were there before."""
        trace, profile = sys.gettrace(), sys.getprofile()
        collecting = gc.isenabled()
        gc.collect()
        gc.disable()
        sys.setprofile(self._profile)
        sys.settrace(self._global)
        try:
            fn(*args)
        finally:
            sys.settrace(trace)
            sys.setprofile(profile)
            if collecting:
                gc.enable()

    @property
    def bytecodes(self) -> int:
        return sum(self.by_code.values())

    @property
    def py_calls(self) -> int:
        return sum(self.calls_by_code.values())


def count(name: str, n_ops: int, seed: int = SEED) -> Tuple[Dict[str, float],
                                                             Meter]:
    """Per-call ``bytecodes``/``py_calls``/``c_calls`` of one workload's
    timed region of ``n_ops`` calls, and the meter that took them."""
    workload = workloads.BY_NAME[name]
    ctx = harness.Ctx(seed)
    state = workload.build(ctx)
    run = harness.Run(state.dep.runtime.now)
    warm_ops = workload.whole_ops(min(workload.warmup_ops, n_ops / 4))
    harness._execute(workload, ctx, state,
                     workload.plan(ctx, state, warm_ops, "warmup"), run)
    plan = workload.plan(ctx, state, n_ops, "timed")
    meter = Meter()
    kernel = state.dep.runtime.kernel
    armed, purged = kernel.timers_scheduled, kernel.timers_purged
    meter.run(harness._execute, workload, ctx, state, plan, run)
    armed = kernel.timers_scheduled - armed
    purged = kernel.timers_purged - purged
    calls = run.completed
    state.dep.shutdown()
    if not calls:
        raise RuntimeError(f"{name}: no call completed")
    return {"bytecodes": meter.bytecodes / calls,
            "py_calls": meter.py_calls / calls,
            "c_calls": meter.c_calls / calls,
            "timers_armed": armed / calls,
            "timers_purged": purged / calls,
            "calls": calls}, meter


def where(filename: str) -> str:
    """A code object's file, relative to the repository or the standard
    library (``<string>`` for generated code stays as it is)."""
    path = Path(filename)
    if not path.is_absolute():
        return filename
    for base, prefix in ((ROOT, ""), (STDLIB, "<stdlib>/")):
        if path.is_relative_to(base):
            return prefix + str(path.relative_to(base))
    return filename


def top(meter: Meter, n: int, calls: int) -> List[str]:
    """The ``n`` functions that executed the most bytecodes, with their
    bytecodes and Python calls per call."""
    lines = []
    for code, ops in meter.by_code.most_common(n):
        name = getattr(code, "co_qualname", code.co_name)
        lines.append(f"{ops / calls:>33.1f}"
                     f"{meter.calls_by_code[code] / calls:>10.1f}"
                     f"  {name} ({where(code.co_filename)}:"
                     f"{code.co_firstlineno})")
    return lines


def by_file(meter: Meter, calls: int) -> List[str]:
    """Bytecodes and Python calls per call summed over each source file,
    most bytecodes first."""
    ops: Counter = Counter()
    entries: Counter = Counter()
    for code, n in meter.by_code.items():
        ops[code.co_filename] += n
    for code, n in meter.calls_by_code.items():
        entries[code.co_filename] += n
    return [f"{ops[name] / calls:>33.1f}{entries[name] / calls:>10.1f}"
            f"  {where(name)}"
            for name in sorted(ops.keys() | entries.keys(),
                               key=lambda name: (-ops[name], name))]


COUNTS = ("bytecodes", "py_calls", "c_calls")
#: Kernel timers per call; a file written before they were counted
#: lacks them, and ``--against`` then compares the counts only.
TIMERS = ("timers_armed", "timers_purged")


def against(before: Dict[str, Dict[str, float]],
            after: Dict[str, Dict[str, float]]) -> List[str]:
    """A before / after / difference row of each count (and of each
    timer count both hold) for every workload in both ``before`` and
    ``after``."""
    lines = [f"{'workload':<22}{'count':<15}{'before':>10}{'after':>10}"
             f"{'delta':>10}{'delta %':>9}"]
    for name, now in after.items():
        then = before.get(name)
        if then is None:
            continue
        for key in COUNTS + TIMERS:
            if key not in then or key not in now:
                continue
            delta = now[key] - then[key]
            share = f"{100 * delta / then[key]:>+8.1f}%" if then[key] \
                else f"{'n/a':>9}"
            digits = 1 if key in COUNTS else 2
            lines.append(f"{name:<22}{key:<15}{then[key]:>10.{digits}f}"
                         f"{now[key]:>10.{digits}f}"
                         f"{delta:>+10.{digits}f}{share}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.BY_NAME),
                        help="repeatable; default: all six")
    parser.add_argument("--ops", type=int, default=400,
                        help="calls in the timed region (default 400)")
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--top", type=int, default=0, metavar="N",
                        help="list the N functions with most bytecodes")
    parser.add_argument("--by-file", action="store_true",
                        help="list bytecodes and Python calls per source "
                             "file")
    parser.add_argument("--json", metavar="OUT",
                        help="write the per-workload counts to OUT")
    parser.add_argument("--against", metavar="BEFORE",
                        help="compare with counts --json wrote earlier")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, __file__,
                                  *sys.argv[1:]])
    names = args.workload or [w.name for w in workloads.WORKLOADS]
    print(f"{'workload':<22}{'bytecodes':>11}{'py calls':>10}"
          f"{'C calls':>10}{'timers':>8}{'purged':>8}"
          f"   per call, {args.ops} ops, seed {args.seed}")
    results: Dict[str, Dict[str, float]] = {}
    for name in names:
        per_call, meter = count(name, args.ops, args.seed)
        results[name] = per_call
        print(f"{name:<22}{per_call['bytecodes']:>11.0f}"
              f"{per_call['py_calls']:>10.1f}{per_call['c_calls']:>10.1f}"
              f"{per_call['timers_armed']:>8.2f}"
              f"{per_call['timers_purged']:>8.2f}")
        if args.top:
            print("\n".join(top(meter, args.top, per_call["calls"])))
        if args.by_file:
            print("\n".join(by_file(meter, per_call["calls"])))
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"ops": args.ops, "seed": args.seed, "workloads": results},
            indent=1, sort_keys=True) + "\n")
    if args.against:
        before = json.loads(Path(args.against).read_text())["workloads"]
        print("\n".join(against(before, results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
