"""The work queue: semantics anomalies made concrete, per micro-protocol.

Each test removes (or keeps) one property and shows the exact queue
anomaly the taxonomy predicts: duplicate jobs without unique execution,
lost jobs on re-executed dequeues, reordered jobs without FIFO.
"""

import pytest

from repro import LinkSpec, ServiceCluster, ServiceSpec
from repro.apps import WorkQueue

FAST = LinkSpec(delay=0.005, jitter=0.0)
LOSSY = LinkSpec(delay=0.01, jitter=0.005, loss=0.2)


def drain(cluster, n):
    """Dequeue up to n jobs via the RPC path; returns them in order."""
    jobs = []
    for _ in range(n):
        result = cluster.call_and_run("dequeue", {}, extra_time=0.2)
        assert result.ok
        if result.args is not None:
            jobs.append(result.args)
    return jobs


def test_queue_basics_through_rpc():
    spec = ServiceSpec(unique=True, bounded=5.0)
    cluster = ServiceCluster(spec, WorkQueue, n_servers=1,
                             default_link=FAST)
    for i in range(3):
        assert cluster.call_and_run("enqueue", {"job": f"j{i}"},
                                    extra_time=0.1).ok
    assert cluster.call_and_run("size", {}).args == 3
    assert cluster.call_and_run("peek", {}).args == "j0"
    assert drain(cluster, 3) == ["j0", "j1", "j2"]
    assert cluster.call_and_run("dequeue", {}).args is None
    assert cluster.call_and_run("drained", {}).args == \
        ["j0", "j1", "j2"]


def test_exactly_once_prevents_duplicate_jobs_under_loss():
    spec = ServiceSpec(unique=True, bounded=30.0, retrans_timeout=0.04)
    cluster = ServiceCluster(spec, WorkQueue, n_servers=1, seed=6,
                             default_link=LOSSY)
    for i in range(8):
        assert cluster.call_and_run("enqueue", {"job": f"j{i}"},
                                    extra_time=0.2).ok
    assert cluster.app(1).jobs == [f"j{i}" for i in range(8)]


def test_at_least_once_duplicates_jobs_under_loss():
    # The control: remove Unique Execution and the same fault load
    # yields duplicate jobs in the queue — the anomaly, on demand.
    spec = ServiceSpec(unique=False, bounded=30.0, retrans_timeout=0.04)
    duplicates = 0
    for seed in range(4):
        cluster = ServiceCluster(spec, WorkQueue, n_servers=1, seed=seed,
                                 default_link=LOSSY)
        for i in range(8):
            assert cluster.call_and_run("enqueue", {"job": f"j{i}"},
                                        extra_time=0.2).ok
        jobs = cluster.app(1).jobs
        duplicates += len(jobs) - len(set(jobs))
    assert duplicates > 0


def test_reexecuted_dequeue_loses_jobs_without_unique_execution():
    # A dequeue that re-executes pops a SECOND job whose value the
    # client never sees: data loss, not just duplication.
    from repro.faults import drop_first, replies_from

    spec = ServiceSpec(unique=False, bounded=30.0, retrans_timeout=0.05)
    cluster = ServiceCluster(spec, WorkQueue, n_servers=1,
                             default_link=FAST)
    for i in range(3):
        cluster.call_and_run("enqueue", {"job": f"j{i}"}, extra_time=0.1)
    # Lose one reply.
    drop_first(cluster.deployment.fabric, 1, replies_from(1))
    got = cluster.call_and_run("dequeue", {}, extra_time=0.5)
    assert got.ok
    # Two jobs left the queue for one successful client dequeue.
    assert len(cluster.app(1).dequeued) == 2
    # With unique=True the same scenario pops exactly one (covered by
    # test_exactly_once_replays_stored_reply_when_reply_lost).


def test_fifo_keeps_submission_order_across_replicas():
    spec = ServiceSpec(unique=True, ordering="fifo", acceptance=2,
                       bounded=0.0)
    cluster = ServiceCluster(spec, WorkQueue, n_servers=2, seed=9,
                             default_link=LinkSpec(delay=0.01,
                                                   jitter=0.08))
    client = cluster.client

    async def scenario():
        tasks = []
        for i in range(6):
            async def one(job=f"j{i}"):
                await cluster.call(client, "enqueue", {"job": job})
            tasks.append(cluster.spawn_client(client, one()))
        for task in tasks:
            await cluster.deployment.runtime.join(task)

    cluster.deployment.run_scenario(scenario(), extra_time=2.0)
    for pid in cluster.server_pids:
        assert cluster.app(pid).jobs == [f"j{i}" for i in range(6)]


def test_without_fifo_replicas_can_reorder_submissions():
    reordered = 0
    for seed in range(5):
        spec = ServiceSpec(unique=True, ordering="none", acceptance=2,
                           bounded=0.0)
        cluster = ServiceCluster(spec, WorkQueue, n_servers=2, seed=seed,
                                 default_link=LinkSpec(delay=0.01,
                                                       jitter=0.08))
        client = cluster.client

        async def scenario():
            tasks = []
            for i in range(6):
                async def one(job=f"j{i}"):
                    await cluster.call(client, "enqueue", {"job": job})
                tasks.append(cluster.spawn_client(client, one()))
            for task in tasks:
                await cluster.deployment.runtime.join(task)

        cluster.deployment.run_scenario(scenario(), extra_time=2.0)
        expected = [f"j{i}" for i in range(6)]
        if any(cluster.app(pid).jobs != expected
               for pid in cluster.server_pids):
            reordered += 1
    assert reordered > 0
