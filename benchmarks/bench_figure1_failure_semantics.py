"""E1 — Figure 1: failure semantics as combinations of properties.

The paper's Figure 1 is a static table mapping {at least once, exactly
once, at most once} to the unique/atomic execution properties.  This
benchmark regenerates it *empirically*: each semantics is configured,
driven through a lossy duplicating network with non-idempotent increments
(and, for atomicity, a crash mid-transfer on a bank with stable state),
and the observed guarantees are tabulated next to the configured
properties.

Expected shape (paper): at-least-once may over-execute; exactly-once
executes exactly once; at-most-once additionally keeps partial effects
from surviving a crash.
"""

from collections import Counter

from _common import attach, run_once, save_result

from repro import LinkSpec, ServiceCluster, Status
from repro.analysis import History, check, promises
from repro.apps import BankApp, CounterApp
from repro.bench import banner, render_table
from repro.core.config import at_least_once, at_most_once, exactly_once

LOSSY = LinkSpec(delay=0.01, jitter=0.005, loss=0.15, duplicate=0.1)
N_CALLS = 12
SEEDS = (0, 1, 2)


def measure_execution_counts(spec):
    """Max executions of any single call across seeds and servers, the
    share of calls acked, and every violation of the spec's promises."""
    spec = spec.with_(acceptance=3, bounded=30.0)
    max_exec = 0
    ok = 0
    total = 0
    violations = []
    for seed in SEEDS:
        cluster = ServiceCluster(spec, CounterApp, n_servers=3, seed=seed,
                                 default_link=LOSSY)
        history = History()
        for tag in range(N_CALLS):
            args = {"amount": 1, "tag": tag}
            result = history.end(
                history.invoke(cluster.client, args),
                cluster.call_and_run("inc", args, extra_time=0.3))
            total += 1
            ok += result.status is Status.OK
        history.read(cluster.dispatchers)
        for order in history.executed.values():
            max_exec = max(max_exec, *Counter(order).values(), 0)
        result = check(history, promises(spec))
        if not result:
            violations += result.violations
    return max_exec, ok / total, violations


def measure_atomicity(spec):
    """Crash a bank server mid-transfer; is money conserved after
    recovery?"""
    cluster = ServiceCluster(
        spec.with_(acceptance=1, bounded=1.0),
        lambda pid: BankApp({"alice": 100, "bob": 100},
                            transfer_delay=0.05),
        n_servers=1, default_link=LinkSpec(delay=0.01, jitter=0.0))
    cluster.deployment.runtime.call_later(
        0.035, lambda: cluster.deployment.crash(1))
    cluster.call_and_run("transfer",
                         {"src": "alice", "dst": "bob", "amount": 30})
    cluster.deployment.recover(1)
    cluster.deployment.settle(0.3)
    stable = cluster.deployment.nodes[1].stable
    total = stable.get("acct:alice") + stable.get("acct:bob")
    return total == 200


def test_figure1_failure_semantics(benchmark):
    def experiment():
        rows = []
        for name, spec in (("at least once", at_least_once()),
                           ("exactly once", exactly_once()),
                           ("at most once", at_most_once())):
            max_exec, ok_ratio, violations = \
                measure_execution_counts(spec)
            conserved = measure_atomicity(spec)
            rows.append({
                "semantics": name,
                "unique_cfg": "YES" if spec.unique else "NO",
                "atomic_cfg": "YES" if spec.atomic else "NO",
                "max_exec": max_exec,
                "ok_ratio": ok_ratio,
                "violations": violations,
                "conserved": conserved,
            })
        return rows

    rows = run_once(benchmark, experiment)

    table = render_table(
        ["semantics", "unique execution", "atomic execution",
         "max executions/call (observed)", "crash-safe invariant"],
        [[r["semantics"], r["unique_cfg"], r["atomic_cfg"],
          r["max_exec"], "YES" if r["conserved"] else "NO"]
         for r in rows])
    save_result("figure1_failure_semantics", "\n".join([
        banner("Figure 1 — failure semantics as property combinations",
               f"lossy link {LOSSY.loss:.0%} loss / "
               f"{LOSSY.duplicate:.0%} dup, {N_CALLS} calls x "
               f"{len(SEEDS)} seeds"),
        table]))
    attach(benchmark, {r["semantics"]: r["max_exec"] for r in rows})

    by_name = {r["semantics"]: r for r in rows}
    # at-least-once: permitted (and under this fault load, observed)
    # to over-execute.
    assert by_name["at least once"]["max_exec"] >= 1
    # exactly-once and at-most-once: never more than one execution.
    assert by_name["exactly once"]["max_exec"] == 1
    assert by_name["at most once"]["max_exec"] == 1
    # only at-most-once preserves the stable-state invariant over a crash.
    assert not by_name["at least once"]["conserved"]
    assert not by_name["exactly once"]["conserved"]
    assert by_name["at most once"]["conserved"]
    # normal termination always means >= 1 execution (all rows OK'd).
    assert all(r["ok_ratio"] == 1.0 for r in rows)
    # and each configuration kept every promise its spec makes.
    assert all(not r["violations"] for r in rows), rows
