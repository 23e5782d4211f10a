"""Figure 1 as executable checks: failure semantics under injected faults.

Each traditional semantics is a combination of the unique-execution and
atomic-execution properties; these tests drive the configured services
through message loss, duplication, reply replay and server crashes and
verify exactly the guarantees Figure 1 promises — no more, no less.
"""

import pytest

from repro import (
    LinkSpec,
    ServiceCluster,
    ServiceSpec,
    Status,
    at_least_once,
    at_most_once,
    exactly_once,
)
from repro.apps import BankApp, CounterApp
from repro.faults import calls_to, drop_first, replies_from


def lossy_link():
    return LinkSpec(delay=0.01, jitter=0.005, loss=0.15, duplicate=0.1)


def make_counter_cluster(spec, seed=0, link=None, **kwargs):
    return ServiceCluster(spec, CounterApp, n_servers=3, seed=seed,
                          default_link=link or lossy_link(), **kwargs)


def drive_increments(cluster, n_calls=10):
    results = []
    for i in range(n_calls):
        results.append(cluster.call_and_run(
            "inc", {"amount": 1, "tag": i}, extra_time=0.3))
    return results


# ----------------------------------------------------------------------
# Row 1: at least once  (unique=NO, atomic=NO)
# ----------------------------------------------------------------------

def test_at_least_once_normal_termination_executes_one_or_more():
    spec = at_least_once(acceptance=3, bounded=30.0)
    cluster = make_counter_cluster(spec, seed=7)
    results = drive_increments(cluster)
    assert all(r.ok for r in results)
    for pid in cluster.server_pids:
        dispatcher = cluster.dispatchers[pid]
        for tag in range(10):
            assert dispatcher.executions(tag) >= 1


def test_at_least_once_actually_over_executes_under_loss():
    # The semantics *permit* over-execution; verify the faults we inject
    # really do provoke it, so the exactly-once comparison below is
    # meaningful and not vacuous.
    spec = at_least_once(acceptance=3, bounded=30.0)
    total_over = 0
    for seed in range(5):
        cluster = make_counter_cluster(spec, seed=seed)
        drive_increments(cluster)
        for pid in cluster.server_pids:
            for tag in range(10):
                total_over += max(
                    0, cluster.dispatchers[pid].executions(tag) - 1)
    assert total_over > 0


# ----------------------------------------------------------------------
# Row 2: exactly once  (unique=YES, atomic=NO)
# ----------------------------------------------------------------------

def test_exactly_once_executes_exactly_once_despite_loss_and_dup():
    spec = exactly_once(acceptance=3, bounded=30.0)
    for seed in range(5):
        cluster = make_counter_cluster(spec, seed=seed)
        results = drive_increments(cluster)
        assert all(r.ok for r in results)
        for pid in cluster.server_pids:
            for tag in range(10):
                assert cluster.dispatchers[pid].executions(tag) == 1, \
                    f"seed={seed} server={pid} tag={tag}"
        for pid in cluster.server_pids:
            assert cluster.app(pid).value == 10


def test_exactly_once_replays_stored_reply_when_reply_lost():
    # Drop the first 2 REPLYs from server 1; the retransmitted call must
    # be answered from the Unique Execution reply store, not re-executed.
    spec = exactly_once(acceptance=1, bounded=30.0)
    cluster = ServiceCluster(spec, CounterApp, n_servers=1,
                             default_link=LinkSpec(delay=0.01, jitter=0.0))
    fault = drop_first(cluster.deployment.fabric, 2, replies_from(1))
    result = cluster.call_and_run("inc", {"amount": 1, "tag": "t"},
                                  extra_time=0.5)
    assert result.ok
    assert fault.dropped == 2
    assert cluster.dispatchers[1].executions("t") == 1
    assert cluster.app(1).value == 1


def test_exactly_once_call_loss_only_delays():
    spec = exactly_once(acceptance=1, bounded=30.0)
    cluster = ServiceCluster(spec, CounterApp, n_servers=1,
                             default_link=LinkSpec(delay=0.01, jitter=0.0))
    fault = drop_first(cluster.deployment.fabric, 3, calls_to(1))
    result = cluster.call_and_run("inc", {"amount": 1, "tag": "t"},
                                  extra_time=0.5)
    assert result.ok
    assert fault.dropped == 3
    assert cluster.dispatchers[1].executions("t") == 1


def test_exactly_once_abnormal_termination_at_most_one_execution():
    # Partition the single server away; the call times out (abnormal
    # termination).  Guarantee: "it has not been executed more than once".
    spec = exactly_once(acceptance=1, bounded=0.5)
    cluster = ServiceCluster(spec, CounterApp, n_servers=1,
                             default_link=LinkSpec(delay=0.01, jitter=0.0))
    cluster.deployment.partition([cluster.client], [1])
    result = cluster.call_and_run("inc", {"amount": 1, "tag": "t"},
                                  extra_time=0.5)
    assert result.status is Status.TIMEOUT
    assert cluster.dispatchers[1].executions("t") <= 1


def test_unique_execution_reply_store_drains_after_ack():
    spec = exactly_once(acceptance=1, bounded=30.0)
    cluster = ServiceCluster(spec, CounterApp, n_servers=1,
                             default_link=LinkSpec(delay=0.01, jitter=0.0))
    cluster.call_and_run("inc", {"amount": 1}, extra_time=1.0)
    unique = cluster.grpc(1).micro("Unique_Execution")
    assert unique.old_results == {}  # retired by the client's ACK


# ----------------------------------------------------------------------
# Row 3: at most once  (unique=YES, atomic=YES)
# ----------------------------------------------------------------------

def bank_factory(pid):
    return BankApp({"alice": 100, "bob": 100}, transfer_delay=0.05)


def test_non_atomic_crash_mid_transfer_loses_money():
    # Control experiment: exactly-once (no atomicity) + crash mid-transfer
    # leaves the debit persisted without the credit.
    spec = exactly_once(acceptance=1, bounded=1.0)
    cluster = ServiceCluster(spec, bank_factory, n_servers=1,
                             default_link=LinkSpec(delay=0.01, jitter=0.0))
    # Crash while the transfer sits in its non-atomic window.
    cluster.deployment.runtime.call_later(
        0.035, lambda: cluster.deployment.crash(1))
    result = cluster.call_and_run(
        "transfer", {"src": "alice", "dst": "bob", "amount": 30})
    assert result.status is Status.TIMEOUT
    cluster.deployment.recover(1)
    cluster.deployment.settle(0.2)
    stable = cluster.deployment.nodes[1].stable
    assert stable.get("acct:alice") == 70     # debit persisted
    assert stable.get("acct:bob") == 100      # credit lost
    total = stable.get("acct:alice") + stable.get("acct:bob")
    assert total == 170                       # invariant broken


def test_at_most_once_crash_mid_transfer_rolls_back():
    # Same crash, with Atomic Execution: recovery restores the checkpoint,
    # so the half-done transfer is erased — execution was atomic.
    spec = at_most_once(acceptance=1, bounded=1.0)
    cluster = ServiceCluster(spec, bank_factory, n_servers=1,
                             default_link=LinkSpec(delay=0.01, jitter=0.0))
    cluster.deployment.runtime.call_later(
        0.035, lambda: cluster.deployment.crash(1))
    result = cluster.call_and_run(
        "transfer", {"src": "alice", "dst": "bob", "amount": 30})
    assert result.status is Status.TIMEOUT
    cluster.deployment.recover(1)
    cluster.deployment.settle(0.2)
    stable = cluster.deployment.nodes[1].stable
    assert stable.get("acct:alice") == 100
    assert stable.get("acct:bob") == 100


def test_at_most_once_completed_transfers_survive_crash():
    spec = at_most_once(acceptance=1, bounded=5.0)
    cluster = ServiceCluster(spec, bank_factory, n_servers=1,
                             default_link=LinkSpec(delay=0.01, jitter=0.0))
    result = cluster.call_and_run(
        "transfer", {"src": "alice", "dst": "bob", "amount": 30},
        extra_time=0.5)
    assert result.ok
    cluster.deployment.crash(1)
    cluster.deployment.recover(1)
    cluster.deployment.settle(0.2)
    # The post-execution checkpoint includes the completed transfer.
    result = cluster.call_and_run("balance", {"account": "bob"},
                                  extra_time=0.5)
    assert result.ok
    assert result.args == 130


def test_at_most_once_money_conserved_across_crash_storm():
    spec = at_most_once(acceptance=1, bounded=0.4)
    cluster = ServiceCluster(spec, bank_factory, n_servers=1,
                             default_link=LinkSpec(delay=0.005,
                                                   jitter=0.002))
    rng_times = [0.03, 0.02, 0.045, 0.01, 0.06]
    for i, crash_after in enumerate(rng_times):
        start = cluster.deployment.runtime.now()
        cluster.deployment.runtime.call_later(
            crash_after, lambda: cluster.deployment.crash(1))
        cluster.call_and_run(
            "transfer", {"src": "alice", "dst": "bob", "amount": 10})
        cluster.deployment.recover(1)
        cluster.deployment.settle(0.3)
    total = cluster.call_and_run("total", {}, extra_time=0.3)
    assert total.ok
    assert total.args == 200  # money conserved whatever completed


# ----------------------------------------------------------------------
# The matrix itself
# ----------------------------------------------------------------------

def test_figure1_matrix_names():
    assert at_least_once().failure_semantics == "at least once"
    assert exactly_once().failure_semantics == "exactly once"
    assert at_most_once().failure_semantics == "at most once"
    odd = ServiceSpec(unique=False, execution="serial")
    assert odd.failure_semantics == "at least once"
