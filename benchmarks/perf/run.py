"""One benchmark for the whole stack.

    python3 benchmarks/perf/run.py                      # the full set
    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/perf/run.py --smoke --out FILE

Each run of a workload happens in a fresh child process
(``PYTHONHASHSEED=0``, one thread, no sockets — the load generator is
the simulator's own client lanes) under a parent-side wall timeout.
``--trace 0`` measures the end-to-end metrics with nothing attached;
``--trace 1`` installs the benchmark-owned :class:`tracer.LayerTracer`,
runs the unit-cost probes and reports the per-layer ledger.  Without
``--workload`` every workload is run both ways.  The last line printed
for a single-workload run is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``); ``--out`` saves the whole set,
stamped with rev and host, for ``compare.py``.

A call count, not a duration, sizes the timed region —
``--seconds x`` the workload's ``calls_per_second`` — so counts and
virtual-time figures repeat exactly under a seed while the region still
lasts about ``--seconds`` on the reference host.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys
from typing import Any, Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path.insert(0, str(REPO / "src"))

import catalog  # noqa: E402  (sibling module; needs no repro import)

#: A child that has not reported by then is killed and the run fails.
CHILD_TIMEOUT_S = 170
#: ``--smoke`` sizes: the whole set, both ways, in well under 20 s.
SMOKE_SECONDS = 0.25
SMOKE_PROBE_SCALE = 0.05
#: The traced pass (and its untraced reference) run at this share of
#: the untraced size, so a traced run costs about as much wall.
TRACED_SHARE = 0.3
#: An untraced run splits its calls over this many identical
#: repetitions (fresh set-up each) and keeps every chunk's least
#: disturbed wall; ``setup_s`` is the median of their set-ups.
REPETITIONS = 8


# ----------------------------------------------------------------------
# Child: one workload, one mode, in this process
# ----------------------------------------------------------------------

def run_child(name: str, seed: int, seconds: float, trace: bool,
              repetitions: int, probe_scale: float) -> Dict[str, Any]:
    import harness
    import workloads

    workload = workloads.BY_NAME[name]
    total_ops = seconds * workload.calls_per_second
    if not trace:
        result = harness.measure_repeated(
            workload, seed, workload.whole_ops(total_ops / repetitions),
            repetitions)
        metrics = harness.end_to_end(result)
        metrics.update(harness.exact_metrics(result))
        same_behaviour = True
    else:
        import probes
        from tracer import LayerTracer

        n_ops = workload.whole_ops(total_ops * TRACED_SHARE)
        reference = harness.measure(workload, seed, n_ops)
        tracer = LayerTracer()
        with tracer.installed():
            result = harness.measure(workload, seed, n_ops, tracer=tracer)
        metrics = harness.per_layer(result, reference,
                                    probes.run_all(probe_scale))
        # Tracing wraps and watches; it must not change what happens.
        same_behaviour = (harness.exact_metrics(result)
                          == harness.exact_metrics(reference)
                          and result["inputs"] == reference["inputs"])
    # Repetitions are identical, so totals are one repetition's times n.
    times = result["repetitions"]
    failed = harness.failed_calls(result) * times
    pending = (result["attempted"] - result["completed"]) * times
    units = {m.name: m.unit for m in catalog.END_TO_END + catalog.PER_LAYER}
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "correct": (failed == 0 and pending == 0 and same_behaviour
                    and result["repeatable"]
                    and result["warmup_failed"] == 0),
        "attempted": result["attempted"] * times,
        "failed": failed,
        "pending_at_deadline": pending,
        "inputs": result["inputs"],
        "repetitions": times,
        "wall_s": result["wall_s"],
        "wall_chunks": len(result["chunk_walls"]),
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }


# ----------------------------------------------------------------------
# Parent: spawn, time out, collect, print
# ----------------------------------------------------------------------

def spawn(name: str, seed: int, seconds: float, trace: int,
          smoke: bool) -> Optional[Dict[str, Any]]:
    """Run one workload in a child; None when it died or timed out."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    command = [sys.executable, str(HERE / "run.py"), "--child",
               "--workload", name, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    try:
        proc = subprocess.run(command, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{name}: no result within {CHILD_TIMEOUT_S}s wall; "
              f"child killed", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{name}: child exited {proc.returncode} without a result",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def host_stamp() -> Dict[str, Any]:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO,
            capture_output=True, text=True, timeout=10).stdout.strip()
    except OSError:
        rev = ""
    cpu = ""
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"rev": rev or "unknown",
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu": cpu or platform.processor() or "unknown"}


def render(run: Dict[str, Any]) -> str:
    names = [m.name for m in
             (catalog.PER_LAYER if run["trace"]
              else catalog.END_TO_END + catalog.EXACT)]
    head = (f"== {run['workload']}  seed={run['seed']}  "
            f"{'traced' if run['trace'] else 'untraced'}  "
            f"calls={run['attempted']}  failed={run['failed']}  "
            f"repetitions={run['repetitions']}  "
            f"wall/rep={run['wall_s']:.2f}s  chunks={run['wall_chunks']}  "
            f"correct={run['correct']}")
    rows = []
    for name in names:
        metric = run["metrics"].get(name)
        if metric is not None:
            rows.append(f"  {name:<46} {metric['value']:>14.4f} "
                        f"{metric['unit']}")
    return "\n".join([head] + rows)


def contract_line(run: Dict[str, Any]) -> str:
    """The driver's last line: exactly the catalogued metrics of the
    mode, with every digit measured."""
    listed = catalog.PER_LAYER if run["trace"] else catalog.END_TO_END
    return json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m.name: run["metrics"][m.name] for m in listed},
    })


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float,
                        default=float(catalog.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help=f"tiny sizes ({SMOKE_SECONDS}s per run)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced runs per workload in a set")
    parser.add_argument("--out", help="write the whole set as JSON")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    repetitions = 2 if args.smoke else REPETITIONS

    if args.child:
        print(json.dumps(run_child(
            args.workload, args.seed, seconds, bool(args.trace), repetitions,
            probe_scale=SMOKE_PROBE_SCALE if args.smoke else 1.0)))
        return 0

    names = [args.workload] if args.workload else list(catalog.WORKLOADS)
    modes = [args.trace] if args.trace is not None else [0, 1]
    stamp = host_stamp()
    print(f"# rev {stamp['rev']}  python {stamp['python']}  "
          f"nproc {stamp['nproc']}  cpu {stamp['cpu']}  "
          f"seed {args.seed}  seconds {seconds}")
    runs: List[Dict[str, Any]] = []
    healthy = True
    for name in names:
        for mode in modes:
            for _ in range(args.repeat if mode == 0 else 1):
                run = spawn(name, args.seed, args.seconds, mode, args.smoke)
                if run is None:
                    healthy = False
                    continue
                healthy = healthy and run["correct"]
                runs.append(run)
                print(render(run), flush=True)
    if args.out:
        document = {"schema": 1, "host": stamp, "seed": args.seed,
                    "seconds": seconds, "runs": runs}
        pathlib.Path(args.out).write_text(
            json.dumps(document, indent=1, sort_keys=True) + "\n")
    if len(runs) == 1 and args.workload and args.trace is not None:
        print(contract_line(runs[0]))
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
