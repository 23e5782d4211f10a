"""Bounded Termination: one armed TIMEOUT per instance, ``pRPC`` as the FIFO.

Every call of an instance has the same bound, so issue order is deadline
order; the instance keeps one TIMEOUT armed for its oldest waiting call
and re-arms it, on each fire, for the next.  These tests hold that
design to the per-call rule it replaces: a call still WAITING expires
exactly once, at ``issue + timebound`` bit for bit, and an answered call
never does.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LinkSpec, ServiceCluster, ServiceSpec, Status
from repro.apps import KVStore
from repro.core import config
from repro.core.deployment import CLIENT_BASE_PID, Deployment
from repro.core.events import TIMEOUT
from repro.core.microprotocols import BoundedTermination, GRPCMicroProtocol
from repro.core.grpc import NEW_RPC_CALL

FAST = LinkSpec(delay=0.005, jitter=0.0)
LOST = LinkSpec(delay=0.005, jitter=0.0, loss=1.0)


def bounded_timeouts(grpc):
    """Bounded Termination's armed TIMEOUT registrations on ``grpc``."""
    return [reg for reg in grpc.bus._timeout_regs.values()
            if reg.owner == "Bounded_Termination"]


class Releases:
    """Stands in for a call's semaphore: records each release as
    ``(virtual time, status)``; the test reads the call's fate off it."""

    def __init__(self, record, now):
        self.record = record
        self.now = now
        self.log = []

    def release(self):
        self.log.append((self.now(), self.record.status))


# ----------------------------------------------------------------------
# The per-call rule, bit for bit
# ----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(timebound=st.floats(0.01, 10.0),
       issues=st.lists(
           st.tuples(st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e4)),
                     st.one_of(st.none(), st.floats(0.01, 0.9),
                               st.floats(1.1, 3.0))),
           min_size=1, max_size=25))
def test_every_waiting_call_expires_once_at_issue_plus_timebound(
        timebound, issues):
    # Issue times are scaled by the bound, so both calls issued before
    # the first fire (below ``timebound``) and calls far beyond it occur.
    # A completion factor below 1 answers the call before its bound runs
    # out (as Acceptance would), one above 1 after it, ``None`` never.
    # No server ever answers: the link loses everything.
    spec = ServiceSpec(call="asynchronous", reliable=False,
                       bounded=timebound, acceptance=1)
    cluster = ServiceCluster(spec, KVStore, n_servers=1, default_link=LOST)
    dep = cluster.deployment
    rt = dep.runtime
    grpc = cluster.grpc(cluster.client)
    plan = sorted(((at * timebound, done) for at, done in issues),
                  key=lambda step: step[0])
    calls = []

    async def complete(record, after):
        await rt.sleep(after)
        if record.status is Status.WAITING:
            record.status = Status.OK
            record.sem.release()

    async def issue_all():
        for at, done in plan:
            await rt.sleep(max(0.0, at - rt.now()))
            call_id = (await grpc.call("get", {"key": "k"}, cluster.group)).id
            record = grpc.pRPC[call_id]
            record.sem = Releases(record, rt.now)
            calls.append((rt.now(), done, record))
            if done is not None:
                dep.spawn_client(cluster.client,
                                 complete(record, done * timebound))
            assert len(bounded_timeouts(grpc)) == 1

    dep.run_scenario(issue_all(), extra_time=4 * timebound)
    for issued, done, record in calls:
        deadline = issued + timebound
        if done is not None and issued + done * timebound < deadline:
            assert record.status is Status.OK
            assert record.sem.log == [(issued + done * timebound,
                                       Status.OK)]
        else:
            assert record.status is Status.TIMEOUT
            assert record.sem.log == [(deadline, Status.TIMEOUT)]
    assert not bounded_timeouts(grpc)


# ----------------------------------------------------------------------
# The same history as a per-call timer, on a lossy network
# ----------------------------------------------------------------------

class PerCallBound(GRPCMicroProtocol):
    """The per-call rule as a reference: one TIMEOUT per call, bound to
    its id, that expires the call if it is still WAITING."""

    protocol_name = "Bounded_Termination"

    def __init__(self, timebound):
        super().__init__()
        self.timebound = timebound

    def configure(self):
        self.register(NEW_RPC_CALL, self.handle_new_call)

    async def handle_new_call(self, call_id):
        async def handle_timeout():
            record = self.grpc.pRPC.get(call_id)
            if record is not None and record.status is Status.WAITING:
                record.status = Status.TIMEOUT
                record.sem.release()

        self.register(TIMEOUT, handle_timeout, self.timebound)


def _lossy_history(seed):
    """``(service, call id, status, virtual return time)`` of every call
    of a seeded scenario: one synchronous and one asynchronous service
    on a lossy link, a bound near the retransmission round trip, and
    asynchronous results redeemed at once, later, or never."""
    dep = Deployment(seed=seed, default_link=LinkSpec(
        delay=0.01, jitter=0.004, loss=0.35))
    services = {
        style: dep.add_service(
            style, ServiceSpec(call=style, acceptance=1, bounded=0.045,
                               retrans_timeout=0.02),
            KVStore, servers=2, clients=[CLIENT_BASE_PID + i])
        for i, style in enumerate(("synchronous", "asynchronous"))}
    rt = dep.runtime
    rng = random.Random(seed)
    plan = {style: [(rng.uniform(0.0, 0.03), rng.choice((0.0, 0.1, None)))
                    for _ in range(40)]
            for style in services}
    history = []

    async def redeem(handle, after):
        await rt.sleep(after)
        result = await handle.result()
        history.append(("asynchronous", result.id, result.status,
                        rt.now()))

    async def client(style):
        service = services[style]
        grpc = service.grpc(service.client)
        for think, after in plan[style]:
            await rt.sleep(think)
            args = {"key": f"k{len(history) % 3}", "value": 1}
            if style == "synchronous":
                result = await grpc.call("put", args, service.group)
                history.append((style, result.id, result.status, rt.now()))
            else:
                handle = await grpc.begin("put", args, service.group)
                if after is not None:
                    dep.spawn_client(service.client, redeem(handle, after))

    async def scenario():
        tasks = [service.spawn_client(service.client, client(style))
                 for style, service in services.items()]
        for task in tasks:
            await rt.join(task)
        await rt.sleep(0.5)

    dep.run_scenario(scenario())
    dep.shutdown()
    return history


def test_a_lossy_mixed_run_matches_the_per_call_reference(monkeypatch):
    history = _lossy_history(5)
    with monkeypatch.context() as patch:
        patch.setattr(config, "BoundedTermination", PerCallBound)
        reference = _lossy_history(5)
    assert history == reference
    statuses = {status for _, _, status, _ in history}
    assert statuses == {Status.OK, Status.TIMEOUT}
    assert {style for style, *_ in history} == {"synchronous",
                                                 "asynchronous"}


# ----------------------------------------------------------------------
# Skips, crashes and swaps
# ----------------------------------------------------------------------

def test_an_unredeemed_async_call_is_skipped_and_later_calls_expire():
    cluster = ServiceCluster(
        ServiceSpec(call="asynchronous", acceptance=1, bounded=0.5),
        KVStore, n_servers=1, default_link=FAST)
    dep = cluster.deployment
    rt = dep.runtime
    grpc = cluster.grpc(cluster.client)
    returned = {}

    async def redeem(handle):
        result = await handle.result()
        returned[handle.id] = (result.status, rt.now())

    async def scenario():
        answered = await grpc.begin("get", {"key": "k"}, cluster.group)
        await rt.sleep(0.1)
        assert answered.peek() is Status.OK
        dep.partition([cluster.client], cluster.server_pids)
        issued = {}
        for _ in range(3):
            handle = await grpc.begin("get", {"key": "k"}, cluster.group)
            issued[handle.id] = rt.now()
            dep.spawn_client(cluster.client, redeem(handle))
            await rt.sleep(0.3)
        await rt.sleep(1.0)
        # The answered call sat at the head of pRPC through every fire.
        assert list(grpc.pRPC) == [answered.id]
        assert answered.peek() is Status.OK
        return issued

    issued = dep.run_scenario(scenario())
    assert returned == {cid: (Status.TIMEOUT, at + 0.5)
                        for cid, at in issued.items()}
    assert not bounded_timeouts(grpc)


def test_crash_then_recover_rearms_afresh():
    cluster = ServiceCluster(ServiceSpec(acceptance=1, bounded=0.5),
                             KVStore, n_servers=1, default_link=FAST)
    dep = cluster.deployment
    rt = dep.runtime
    client = cluster.client
    grpc = cluster.grpc(client)
    bound = grpc.micro("Bounded_Termination")
    dep.partition([client], cluster.server_pids)
    results = []

    async def call():
        issued = rt.now()
        result = await grpc.call("get", {"key": "k"}, cluster.group)
        results.append((issued, result.status, rt.now()))

    async def scenario():
        cluster.spawn_client(client, call())
        await rt.sleep(0.2)
        assert bound.armed and len(bounded_timeouts(grpc)) == 1
        dep.crash(client)
        assert not bounded_timeouts(grpc)
        await rt.sleep(0.1)
        dep.recover(client)
        assert not bound.armed and not bounded_timeouts(grpc)
        # Past the lost call's bound: nothing of it fires.
        await rt.sleep(0.4)
        assert not results
        cluster.spawn_client(client, call())
        await rt.sleep(0.0)
        assert bound.armed and len(bounded_timeouts(grpc)) == 1
        await rt.sleep(1.0)

    dep.run_scenario(scenario())
    ((issued, status, returned),) = results
    assert status is Status.TIMEOUT and returned == issued + 0.5


def test_a_swapped_out_instance_takes_its_calls_bounds_with_it():
    cluster = ServiceCluster(
        ServiceSpec(call="asynchronous", acceptance=1, bounded=0.5),
        KVStore, n_servers=1, default_link=FAST)
    dep = cluster.deployment
    rt = dep.runtime
    grpc = cluster.grpc(cluster.client)
    old = grpc.micro("Bounded_Termination")
    dep.partition([cluster.client], cluster.server_pids)

    async def scenario():
        before = [await grpc.begin("get", {"key": "k"}, cluster.group)
                  for _ in range(2)]
        await rt.sleep(0.1)
        old.detach()
        grpc.micro_protocols.remove(old)
        new = BoundedTermination(0.25)
        grpc.add(new)
        assert not bounded_timeouts(grpc)
        after = await grpc.begin("get", {"key": "k"}, cluster.group)
        issued = rt.now()
        result = await after.result()
        assert (result.status, rt.now()) == (Status.TIMEOUT, issued + 0.25)
        await rt.sleep(2.0)
        # The old instance's calls kept no bound: still waiting.
        assert [handle.peek() for handle in before] == [Status.WAITING] * 2
        assert not new.armed and not bounded_timeouts(grpc)

    dep.run_scenario(scenario())


def test_a_hundred_bounded_calls_keep_one_timeout_and_purge_nothing():
    cluster = ServiceCluster(ServiceSpec(acceptance=1, bounded=1.0),
                             KVStore, n_servers=2, default_link=FAST)
    dep = cluster.deployment
    grpc = cluster.grpc(cluster.client)
    kernel = dep.runtime.kernel
    purged = kernel.timers_purged
    armed = []

    async def calls():
        for i in range(100):
            result = await grpc.call("put", {"key": "k", "value": i},
                                     cluster.group)
            assert result.ok
            armed.append(len(bounded_timeouts(grpc)))

    dep.run_scenario(calls())
    assert max(armed) == 1
    assert kernel.timers_purged == purged
