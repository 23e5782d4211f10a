"""X17 — call hot-path throughput: wall-clock ops/sec, open loop.

Every other benchmark in the suite reports *virtual-time* metrics; this
one deliberately reports **wall clock**, because it exists to measure
the hot-path speed program (kernel scheduler, event dispatch,
marshalling, wire pipeline) rather than any protocol property.  The
virtual-time results — latencies, failure counts, message counts — are
asserted identical across refactors; the wall-clock ops/sec is the
number the speed program moves.

Workload: an open-loop driver.  N client lanes each issue calls at a
fixed virtual-time arrival interval *without waiting for completions*
(each call runs in its own task), against a sharded KV deployment.  A
per-lane admission window bounds in-flight calls purely as a memory
guard; arrivals are paced well below service capacity so the window
almost never binds and the workload stays open-loop.  Payloads carry a
nested dict with a string blob, handed to ``Deployment.call`` as the
Python object: this path never marshals (only ``ClientStub`` and
``MarshallingApp`` do), so the stub marshaller costs nothing here —
``benchmarks/perf``'s ``stub_bulk`` workload is its meter.

Modes:

* full (default): 10^6 calls — the published trajectory point;
* ``REPRO_BENCH_TINY=1``: 20k calls — the CI perf-smoke point;
* ``REPRO_X17_PROFILE=1``: 40k calls under the observatory's kernel
  profiler; writes ``x17_hotpath_profile_<phase>.txt`` (collapsed
  stacks + profiler report) instead of a trajectory point.
* ``REPRO_X17_DIST=zipf`` (the CLI's ``--dist=zipf``): keys are drawn
  from a Zipf(s=1.1) distribution per lane instead of cycling
  uniformly, so a handful of hot keys absorb most of the load — the
  shape the hot-key accounting and placement work are built for.  The
  skewed run writes its own trajectory file
  (``BENCH_x17_zipf.json``, with the measured top-key share) and
  leaves the uniform hot-path trajectory untouched.

The trajectory file ``BENCH_x17_hotpath.json`` keeps *two* points: the
committed ``pre-refactor`` baseline (measured on the tree as it stood
before the hot-path refactor, preserved across runs) and the current
measurement (phase from ``REPRO_X17_PHASE``, default ``current``), so
the before/after comparison travels with the repo.
"""

import bisect
import itertools
import json
import os
import random
import time
from collections import Counter

from _common import (RESULTS_DIR, attach, percentiles, run_once,
                     save_bench_json, save_result)

from repro import Deployment, LinkSpec, ServiceSpec
from repro.apps import KVStore, ShardedKV, build_sharded_kv
from repro.bench import banner, render_table

TINY = os.environ.get("REPRO_BENCH_TINY") == "1"
PROFILE = os.environ.get("REPRO_X17_PROFILE") == "1"
PHASE = os.environ.get("REPRO_X17_PHASE", "current")
DIST = os.environ.get("REPRO_X17_DIST", "uniform")
if DIST not in ("uniform", "zipf"):
    raise ValueError(f"REPRO_X17_DIST must be 'uniform' or 'zipf', "
                     f"got {DIST!r}")
ZIPF_S = 1.1                   # classic web-cache skew exponent

LINK = LinkSpec(delay=0.001, jitter=0.0005)
N_SHARDS = 8
N_CLIENTS = 16
TOTAL_OPS = 20_000 if TINY else (40_000 if PROFILE else 1_000_000)
KEYS_PER_LANE = 512            # bounds the stores' resident key count
ARRIVAL_INTERVAL = 0.0005      # virtual seconds between a lane's calls
WINDOW = 256                   # per-lane in-flight cap (memory guard)
BLOB = "x" * 64

JSON_PATH = RESULTS_DIR / "BENCH_x17_hotpath.json"


def _zipf_cdf(n, s):
    """Cumulative Zipf(s) weights over ranks 1..n (deterministic)."""
    return list(itertools.accumulate(
        1.0 / (rank ** s) for rank in range(1, n + 1)))


def run_point():
    dep = Deployment(seed=17, default_link=LINK, keep_trace=False,
                     observatory=PROFILE)
    spec = ServiceSpec(bounded=30.0, acceptance=1)
    kv = build_sharded_kv(
        dep, N_SHARDS, spec=spec, servers_per_shard=1, clients=N_CLIENTS,
        app_factory=lambda: KVStore(keep_log=False))
    workers = dep.services[kv.router.services[0]].client_pids
    per_lane = TOTAL_OPS // N_CLIENTS
    latencies = []
    failures = [0]
    completed = [0]
    rank_counts: Counter = Counter()
    if DIST == "zipf":
        cdf = _zipf_cdf(KEYS_PER_LANE, ZIPF_S)
        total_weight = cdf[-1]

    def pick_key(rng, lane_no, i):
        if DIST == "uniform":
            return f"w{lane_no}-k{i % KEYS_PER_LANE}"
        # Seeded per-lane draws, so the skewed schedule is as
        # reproducible as the uniform one.
        rank = bisect.bisect_left(cdf, rng.random() * total_weight)
        rank_counts[rank] += 1
        return f"w{lane_no}-k{rank}"

    async def one_call(view, window, key, i):
        try:
            begin = dep.runtime.now()
            result = await view.put(key, {"n": i, "blob": BLOB})
            latencies.append(dep.runtime.now() - begin)
            completed[0] += 1
            if not result.ok:
                failures[0] += 1
        finally:
            window.release()

    async def lane(pid, lane_no):
        view = ShardedKV(dep, pid, kv.router)
        window = dep.runtime.semaphore(WINDOW)
        rng = random.Random(1017 + lane_no)
        for i in range(per_lane):
            await window.acquire()
            dep.spawn_client(
                pid, one_call(view, window,
                              pick_key(rng, lane_no, i), i))
            await dep.runtime.sleep(ARRIVAL_INTERVAL)
        for _ in range(WINDOW):      # drain this lane's window
            await window.acquire()

    async def scenario():
        tasks = [dep.spawn_client(pid, lane(pid, lane_no))
                 for lane_no, pid in enumerate(workers)]
        for task in tasks:
            await dep.runtime.join(task)

    virtual_start = dep.runtime.now()
    wall_start = time.perf_counter()
    dep.run_scenario(scenario())
    wall = time.perf_counter() - wall_start
    virtual = dep.runtime.now() - virtual_start
    steps = dep.runtime.stats()["steps_executed"]
    profile_text = None
    if PROFILE:
        profiler = dep.observatory.profiler
        profile_text = "\n".join(
            ["# bench_x17 hot-path profile — phase: " + PHASE, ""]
            + profiler.report_lines(top=12)
            + ["", "# collapsed stacks (self virtual microseconds)",
               profiler.collapsed()])
    dep.settle(1.0)
    dep.shutdown()
    skew = {}
    if DIST == "zipf":
        drawn = sum(rank_counts.values())
        skew = {"distinct_keys": len(rank_counts),
                "top_key_share": rank_counts.most_common(1)[0][1] / drawn,
                "top10_share": sum(c for _, c in
                                   rank_counts.most_common(10)) / drawn}
    return {"ops": completed[0],
            "failures": failures[0],
            "wall_s": wall,
            "ops_per_sec_wall": completed[0] / wall,
            "virtual_s": virtual,
            "ops_per_sec_virtual": completed[0] / max(1e-9, virtual),
            "steps": steps,
            "steps_per_op": steps / max(1, completed[0]),
            "envelopes": int(dep.metrics.value("net.envelopes")),
            "latencies": latencies,
            "skew": skew,
            "profile": profile_text}


def _merged_points(current):
    """The committed pre-refactor baseline survives every re-run."""
    points = []
    if JSON_PATH.exists():
        try:
            doc = json.loads(JSON_PATH.read_text())
        except (ValueError, OSError):
            doc = {}
        points = [p for p in doc.get("points", [])
                  if p.get("phase") == "pre-refactor"
                  and current.get("phase") != "pre-refactor"]
    points.append(current)
    return points


def test_x17_hotpath(benchmark):
    row = run_once(benchmark, run_point)

    assert row["failures"] == 0
    assert row["ops"] == TOTAL_OPS

    if PROFILE:
        save_result(f"x17_hotpath_profile_{PHASE}", row["profile"])
        return

    if DIST == "zipf":
        # The skewed run is its own trajectory: it answers "what does a
        # hot-key workload cost", not "did the hot path get faster", so
        # it never merges with the uniform pre-refactor baseline.
        point = {"phase": PHASE,
                 "mode": "tiny" if TINY else "full",
                 "dist": "zipf",
                 "zipf_s": ZIPF_S,
                 "ops": row["ops"],
                 "ops_per_sec_wall": round(row["ops_per_sec_wall"], 1),
                 "wall_s": round(row["wall_s"], 3),
                 "virtual_s": round(row["virtual_s"], 3),
                 "steps_per_op": round(row["steps_per_op"], 2),
                 "envelopes": row["envelopes"],
                 "distinct_keys": row["skew"]["distinct_keys"],
                 "top_key_share": round(row["skew"]["top_key_share"], 4),
                 "top10_share": round(row["skew"]["top10_share"], 4),
                 **percentiles(row["latencies"])}
        save_result("x17_zipf", "\n".join([
            banner("X17 — hot path under Zipfian keys (--dist=zipf)",
                   f"open loop, {TOTAL_OPS} calls over {N_CLIENTS} "
                   f"lanes x {N_SHARDS} shards, Zipf s={ZIPF_S} over "
                   f"{KEYS_PER_LANE} keys/lane"),
            render_table(
                ["dist", "ops", "ops/s wall", "top key", "top 10",
                 "p95 ms"],
                [["zipf", point["ops"],
                  f"{point['ops_per_sec_wall']:.0f}",
                  f"{point['top_key_share'] * 100:.1f}%",
                  f"{point['top10_share'] * 100:.1f}%",
                  point["p95_ms"]]])]))
        attach(benchmark, {"ops_per_sec_wall": point["ops_per_sec_wall"],
                           "top_key_share": point["top_key_share"]})
        save_bench_json("x17_zipf", {"points": [point]}, tiny=TINY)
        return

    point = {"phase": PHASE,
             "mode": "tiny" if TINY else "full",
             "ops": row["ops"],
             "ops_per_sec_wall": round(row["ops_per_sec_wall"], 1),
             "wall_s": round(row["wall_s"], 3),
             "virtual_s": round(row["virtual_s"], 3),
             "steps_per_op": round(row["steps_per_op"], 2),
             "envelopes": row["envelopes"],
             **percentiles(row["latencies"])}
    points = _merged_points(point)

    baseline = next((p for p in points if p["phase"] == "pre-refactor"
                     and p.get("mode") == point["mode"]
                     and p is not point), None)
    speedup = (point["ops_per_sec_wall"] / baseline["ops_per_sec_wall"]
               if baseline else None)

    table = render_table(
        ["phase", "mode", "ops", "ops/s wall", "steps/op", "p95 ms"],
        [[p["phase"], p.get("mode", "full"), p["ops"],
          f"{p['ops_per_sec_wall']:.0f}", p.get("steps_per_op", "-"),
          p.get("p95_ms", "-")] for p in points]
        + ([["speedup", "", "", f"{speedup:.2f}x", "", ""]]
           if speedup else []))
    save_result("x17_hotpath", "\n".join([
        banner("X17 — call hot-path wall-clock throughput",
               f"open loop, {TOTAL_OPS} calls over {N_CLIENTS} lanes x "
               f"{N_SHARDS} shards, arrival interval "
               f"{ARRIVAL_INTERVAL * 1000:.2f}ms/lane, link "
               f"{LINK.delay * 1000:.1f}ms"),
        table]))
    attach(benchmark, {"ops_per_sec_wall": point["ops_per_sec_wall"],
                       "steps_per_op": point["steps_per_op"],
                       **({"speedup": round(speedup, 2)}
                          if speedup else {})})
    save_bench_json("x17_hotpath", {"points": points}, tiny=TINY)
