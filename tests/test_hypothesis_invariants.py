"""Property-based tests (hypothesis) on core invariants.

Simulation-heavy properties use few, small examples; pure-data
properties (dispatch order, spec validation) run at full strength.
"""

import statistics

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import LinkSpec, ServiceCluster, ServiceSpec
from repro.apps import KVStore
from repro.core.config import validate
from repro.core.events import EventBus
from repro.core.microprotocols import average
from repro.errors import ConfigurationError
from repro.runtime import SimRuntime
from repro.sim import Kernel, Semaphore, sleep, spawn

SIM_SETTINGS = settings(max_examples=10, deadline=None,
                        suppress_health_check=[HealthCheck.too_slow,
                                               HealthCheck.data_too_large])


# ----------------------------------------------------------------------
# Kernel determinism and clock monotonicity
# ----------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1,
                max_size=12))
def test_kernel_schedule_is_deterministic(delays):
    def run_once():
        kernel = Kernel()
        trace = []

        async def worker(tag, delay):
            await sleep(delay)
            trace.append((tag, kernel.now))

        async def main():
            tasks = [await spawn(worker(i, d))
                     for i, d in enumerate(delays)]
            for t in tasks:
                await t.join()

        kernel.run(main())
        return trace

    first = run_once()
    assert first == run_once()
    times = [t for _, t in first]
    assert times == sorted(times)            # clock monotone
    assert all(t >= 0 for t in times)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=3.0),
                          st.integers(0, 100)),
                min_size=1, max_size=10))
def test_call_later_fires_in_time_order_with_fifo_ties(entries):
    kernel = Kernel()
    fired = []
    for i, (delay, _) in enumerate(entries):
        kernel.call_later(delay, lambda i=i, d=delay: fired.append((d, i)))
    kernel.run_until_idle()
    # Sorted by time; equal times preserve registration order.
    assert fired == sorted(fired, key=lambda pair: (pair[0],))
    for (d1, i1), (d2, i2) in zip(fired, fired[1:]):
        if d1 == d2:
            assert i1 < i2


# ----------------------------------------------------------------------
# Semaphore conservation
# ----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5),
       st.lists(st.sampled_from(["acquire", "release"]), max_size=30))
def test_semaphore_conserves_permits(initial, script):
    kernel = Kernel()
    outcome = {}

    async def main():
        sem = Semaphore(initial)
        acquired = 0
        released = 0
        for action in script:
            if action == "acquire":
                if sem.value > 0:   # only non-blocking acquires here
                    await sem.acquire()
                    acquired += 1
            else:
                sem.release()
                released += 1
        outcome["value"] = sem.value
        outcome["expected"] = initial - acquired + released

    kernel.run(main())
    assert outcome["value"] == outcome["expected"]
    assert outcome["value"] >= 0


# ----------------------------------------------------------------------
# Event dispatch ordering
# ----------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.none(), st.floats(min_value=-10,
                                               max_value=10)),
                min_size=1, max_size=15))
def test_handlers_always_run_in_priority_then_seq_order(priorities):
    rt = SimRuntime()
    bus = EventBus(rt)
    ran = []
    expected = []

    for seq, priority in enumerate(priorities):
        async def handler(s=seq):
            ran.append(s)
        bus.register("E", handler, priority)
        effective = priority if priority is not None else float("inf")
        expected.append((effective, seq))

    rt.run(bus.trigger("E"))
    assert ran == [seq for _, seq in sorted(expected)]


# ----------------------------------------------------------------------
# Spec validation mirrors the declared dependency predicate
# ----------------------------------------------------------------------

spec_strategy = st.builds(
    ServiceSpec,
    call=st.sampled_from(["synchronous", "asynchronous"]),
    reliable=st.booleans(),
    bounded=st.sampled_from([0.0, 1.0]),
    unique=st.booleans(),
    execution=st.sampled_from(["none", "serial", "atomic"]),
    ordering=st.sampled_from(["none", "fifo", "total"]),
    orphans=st.sampled_from(["none", "avoid", "terminate"]),
    acceptance=st.integers(1, 5),
)


def legal(spec: ServiceSpec) -> bool:
    if spec.unique and not spec.reliable:
        return False
    if spec.ordering == "fifo" and not spec.reliable:
        return False
    if spec.ordering == "total" and not (spec.unique and spec.reliable
                                         and not spec.bounded):
        return False
    if spec.orphans == "avoid" and not spec.reliable:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(spec_strategy)
def test_validate_matches_dependency_predicate(spec):
    if legal(spec):
        validate(spec)
        micros = spec.build()
        names = [m.name for m in micros]
        assert names[0] == "RPC_Main"
        assert names.count("Synchronous_Call") \
            + names.count("Asynchronous_Call") == 1
        assert "Collation" in names and "Acceptance" in names
        assert ("Serial_Execution" in names) \
            == (spec.execution in ("serial", "atomic"))
        assert ("Atomic_Execution" in names) == (spec.execution == "atomic")
    else:
        with pytest.raises(ConfigurationError):
            validate(spec)


# ----------------------------------------------------------------------
# Collation math
# ----------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                min_size=1, max_size=20))
def test_average_collator_equals_statistics_mean(values):
    acc = None
    for value in values:
        acc = average(acc, value)
    mean, count = acc
    assert count == len(values)
    assert mean == pytest.approx(statistics.fmean(values), rel=1e-9,
                                 abs=1e-6)


# ----------------------------------------------------------------------
# End-to-end simulation properties (few, small examples)
# ----------------------------------------------------------------------

@SIM_SETTINGS
@given(seed=st.integers(0, 10_000),
       loss=st.sampled_from([0.0, 0.1, 0.2]),
       n_servers=st.integers(1, 4))
def test_every_call_completes_under_loss(seed, loss, n_servers):
    spec = ServiceSpec(bounded=0.0, unique=True, acceptance=n_servers)
    cluster = ServiceCluster(
        spec, KVStore, n_servers=n_servers, seed=seed,
        default_link=LinkSpec(delay=0.01, jitter=0.005, loss=loss))
    for i in range(3):
        result = cluster.call_and_run("put", {"key": f"k{i}", "value": i},
                                      extra_time=0.3)
        assert result.ok


@SIM_SETTINGS
@given(seed=st.integers(0, 10_000))
def test_total_order_logs_identical_for_random_seeds(seed):
    spec = ServiceSpec(bounded=0.0, unique=True, ordering="total",
                       acceptance=3)
    cluster = ServiceCluster(
        spec, KVStore, n_servers=3, n_clients=2, seed=seed,
        default_link=LinkSpec(delay=0.01, jitter=0.05))

    async def scenario():
        tasks = []
        for ci, pid in enumerate(cluster.client_pids):
            for i in range(3):
                async def one(p=pid, k=f"c{ci}-{i}"):
                    await cluster.call(p, "put", {"key": k, "value": 0})
                tasks.append(cluster.spawn_client(pid, one()))
        for t in tasks:
            await cluster.deployment.runtime.join(t)

    cluster.deployment.run_scenario(scenario(), extra_time=2.0)
    logs = [tuple(k for _, k, _ in cluster.app(pid).apply_log)
            for pid in cluster.server_pids]
    assert len(logs[0]) == 6
    assert logs.count(logs[0]) == 3
