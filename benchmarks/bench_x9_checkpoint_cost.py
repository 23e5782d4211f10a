"""X9 — Atomic Execution's checkpoint cost vs server state size.

The paper flags this exact issue: "this implementation is inefficient
when the state of the user protocol is large.  This can be optimized by
just storing the changes ('deltas') from one checkpoint to the next."

This ablation measures whole-state checkpointing (the paper's baseline
design) as server state grows — CPU time per call grows with the state
size — and then measures the implemented delta extension
(``atomic_delta=True``) on the same sweep, quantifying how much of that
cost the paper's proposed optimization recovers.
"""

import time

from _common import attach, run_once, save_result

from repro import LinkSpec, ServiceCluster
from repro.apps import KVStore
from repro.bench import banner, render_table
from repro.core.config import at_most_once

LINK = LinkSpec(delay=0.005, jitter=0.0)
CALLS = 20
STATE_SIZES = (10, 100, 1000, 5000)


def run_point(n_keys, delta=False):
    spec = at_most_once(acceptance=1, bounded=0.0, atomic_delta=delta,
                        atomic_compact_every=1000)
    cluster = ServiceCluster(spec, lambda pid: KVStore(keep_log=False),
                             n_servers=1, seed=0,
                             default_link=LINK, keep_trace=False)
    # Pre-populate the server state directly (setup, not measured).
    app = cluster.app(1)
    for i in range(n_keys):
        app.data[f"pre-{i}"] = "x" * 32

    async def client():
        for i in range(CALLS):
            result = await cluster.call(cluster.client, "put",
                                        {"key": f"k{i}", "value": i})
            assert result.ok

    task = cluster.spawn_client(cluster.client, client())
    before_writes = cluster.deployment.nodes[1].stable.checkpoint_writes
    wall0 = time.perf_counter()

    async def waiter():
        await cluster.deployment.runtime.join(task)

    cluster.deployment.run_scenario(waiter(), extra_time=0.3)
    wall = time.perf_counter() - wall0
    stable = cluster.deployment.nodes[1].stable
    writes = stable.checkpoint_writes - before_writes
    return {"state_keys": n_keys, "delta": delta,
            "checkpoint_writes_per_call": writes / CALLS,
            "cpu_us_per_call": wall / CALLS * 1e6}


def test_x9_checkpoint_cost(benchmark):
    def experiment():
        whole = [run_point(n, delta=False) for n in STATE_SIZES]
        deltas = [run_point(n, delta=True) for n in STATE_SIZES]
        return whole, deltas

    whole, deltas = run_once(benchmark, experiment)

    table = render_table(
        ["server state (keys)", "whole-state cpu us/call",
         "delta cpu us/call", "delta speedup"],
        [[w["state_keys"], f"{w['cpu_us_per_call']:.0f}",
          f"{d['cpu_us_per_call']:.0f}",
          f"{w['cpu_us_per_call'] / d['cpu_us_per_call']:.1f}x"]
         for w, d in zip(whole, deltas)])
    save_result("x9_checkpoint_cost", "\n".join([
        banner("X9 — checkpoint cost: whole-state vs deltas",
               "at-most-once service; the paper's noted inefficiency "
               "and its proposed fix"),
        table, "",
        'paper: "inefficient when the state of the user protocol is '
        'large ... can be optimized by just storing the changes '
        '(deltas)"']))
    attach(benchmark, {f"{w['state_keys']}keys":
                       round(w["cpu_us_per_call"]) for w in whole})

    # One checkpoint per execution (plus the one-off bootstrap).
    assert all(1.0 <= r["checkpoint_writes_per_call"] <= 1.0 + 2 / CALLS
               for r in whole)
    # Whole-state CPU cost grows with state size — the paper's concern.
    assert whole[-1]["cpu_us_per_call"] > 3 * whole[0]["cpu_us_per_call"]
    # The delta optimization substantially flattens the largest case.
    assert deltas[-1]["cpu_us_per_call"] \
        < whole[-1]["cpu_us_per_call"] / 2
