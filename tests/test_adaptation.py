"""The live adaptation plane: guarded micro-protocol switches on
running groups.

Covers the switch engine end to end (park/drain/switch/release with
zero acknowledged-call loss on a Total Order -> FIFO -> Total Order
round trip), kept-instance state preservation, mid-run FIFO gate
seeding, Causal Order's HOLD retraction, the cross-epoch message
fence, drain-timeout aborts that leave the running composition
untouched, plan validation (Figure-4 edges, replication-mode edges,
stale plans) strictly before any handler is touched, and
``Deployment.unwatch_membership``.
"""

import pytest

from repro import Deployment, LinkSpec, ServiceSpec
from repro.adapt import (
    AdaptationError,
    AdaptationManager,
    AdaptationPlan,
    validate_plan,
)
from repro.apps import KVStore
from repro.errors import ConfigurationError, DependencyError
from repro.replication import ReplicationManager, primary_backup

LINK = LinkSpec(delay=0.01, jitter=0.0)

TOTAL = ServiceSpec(reliable=True, unique=True, ordering="total",
                    acceptance=2)


def _deploy(spec=TOTAL, *, seed=7, servers=3, clients=1, link=LINK):
    dep = Deployment(seed=seed, default_link=link, keep_trace=False)
    svc = dep.add_service("s", spec, KVStore,
                          servers=servers, clients=clients)
    return dep, svc


async def _puts(dep, pid, n, tag=""):
    ok = 0
    for i in range(n):
        result = await dep.call(pid, "s", "put",
                                {"key": f"{tag}k{i}", "value": i})
        ok += bool(result.ok)
    return ok


# ---------------------------------------------------------------------------
# The switch engine: round trip under load, zero acknowledged-call loss
# ---------------------------------------------------------------------------


def test_round_trip_zero_loss_under_load():
    """Total Order -> FIFO -> Total Order on a live group: every call
    issued across both switches completes OK."""
    dep, svc = _deploy(clients=2)
    issued, completed = [0], [0]
    stop = [False]

    async def lane(pid, lane_no):
        i = 0
        while not stop[0]:
            issued[0] += 1
            result = await dep.call(pid, "s", "put",
                                    {"key": f"l{lane_no}-{i}", "value": i})
            completed[0] += bool(result.ok)
            i += 1

    async def scenario():
        tasks = [dep.spawn_client(pid, lane(pid, n))
                 for n, pid in enumerate(svc.client_pids)]
        await dep.runtime.sleep(0.3)
        degrade = await dep.adapt("s", TOTAL.with_(ordering="fifo"),
                                  reason="test: degrade")
        await dep.runtime.sleep(0.3)
        restore = await dep.adapt("s", TOTAL, reason="test: restore")
        await dep.runtime.sleep(0.3)
        stop[0] = True
        for task in tasks:
            await dep.runtime.join(task)
        return degrade, restore

    degrade, restore = dep.run_scenario(scenario(), extra_time=1.0)
    assert completed[0] == issued[0] > 0
    assert [degrade.epoch, restore.epoch] == [1, 2]
    assert svc.spec == TOTAL
    assert int(dep.metrics.counter("adapt.switches").value) == 2
    # The switch itself is atomic in virtual time: the group was never
    # down for a single virtual second.
    assert degrade.switch_s == restore.switch_s == 0.0
    dep.shutdown()


def test_parked_calls_resume_under_new_composition():
    """Calls issued while a switch drains park at the gate and complete
    after the release — none are rejected, none are lost."""
    dep, svc = _deploy(clients=2)
    results = []

    async def scenario():
        # Keep calls in flight so the drain takes a few polls, and keep
        # issuing while the gate is closed.
        tasks = [dep.spawn_client(pid, _puts(dep, pid, 6, tag=f"p{pid}"))
                 for pid in svc.client_pids]
        await dep.runtime.sleep(0.015)      # calls now mid-flight
        report = await dep.adapt("s", TOTAL.with_(ordering="fifo"))
        for task in tasks:
            results.append(await dep.runtime.join(task))
        return report

    report = dep.run_scenario(scenario(), extra_time=1.0)
    assert results == [6, 6]
    assert report.parked >= 1
    assert report.drain_s > 0.0
    assert int(dep.metrics.counter("adapt.parked").value) >= report.parked
    # The gate is gone: nothing parks afterwards.
    assert dep.adaptation._gates == {}
    dep.shutdown()


def test_kept_instances_survive_with_state():
    """Parameter-free protocols present on both sides keep their running
    instances — reply stores and call-id cursors included."""
    dep, svc = _deploy()
    pid = svc.client
    server = svc.server_pids[0]
    before_server = {m.name: m for m in svc.grpc(server).micro_protocols}
    before_client = {m.name: m for m in svc.grpc(pid).micro_protocols}

    async def scenario():
        assert await _puts(dep, pid, 4, tag="a") == 4
        cursor = svc.grpc(pid).micro("RPC_Main").next_call_id
        assert cursor > 1
        report = await dep.adapt("s", TOTAL.with_(ordering="fifo"))
        assert svc.grpc(pid).micro("RPC_Main").next_call_id == cursor
        assert await _puts(dep, pid, 4, tag="b") == 4
        return report

    report = dep.run_scenario(scenario(), extra_time=1.0)
    for name in ("Unique_Execution", "RPC_Main", "Acceptance"):
        assert name in report.kept
    after_server = {m.name: m for m in svc.grpc(server).micro_protocols}
    after_client = {m.name: m for m in svc.grpc(pid).micro_protocols}
    # Kept: the very same objects.  Swapped: Total Order out, FIFO in.
    assert after_server["Unique_Execution"] is \
        before_server["Unique_Execution"]
    assert after_client["RPC_Main"] is before_client["RPC_Main"]
    assert "Total_Order" in before_server
    assert "Total_Order" not in after_server
    assert "FIFO_Order" in after_server
    dep.shutdown()


def test_fresh_fifo_gate_is_seeded_from_live_cursors():
    """A FIFO gate installed mid-run must admit the *next* call id, not
    wait forever for ids that completed under the old composition."""
    dep, svc = _deploy(ServiceSpec(reliable=True, unique=True,
                                   ordering="none"))
    pid = svc.client

    async def scenario():
        assert await _puts(dep, pid, 5, tag="pre") == 5
        await dep.adapt("s", svc.spec.with_(ordering="fifo"))
        # Would park forever on a gate seeded at call id 1.
        assert await _puts(dep, pid, 5, tag="post") == 5

    dep.run_scenario(scenario(), extra_time=1.0)
    assert svc.spec.ordering == "fifo"
    dep.shutdown()


def test_switch_away_from_causal_order_retracts_its_hold():
    """Causal Order declares a HOLD property; swapped out, it must
    retract it, or every later call waits for a mark no handler gives."""
    spec = ServiceSpec(reliable=True, unique=True, ordering="causal",
                       bounded=1.0)
    dep, svc = _deploy(spec)
    pid = svc.client

    async def scenario():
        assert await _puts(dep, pid, 3, tag="pre") == 3
        await dep.adapt("s", spec.with_(ordering="none"))
        assert await _puts(dep, pid, 3, tag="post") == 3

    dep.run_scenario(scenario(), extra_time=1.0)
    assert svc.spec.ordering == "none"
    dep.shutdown()


def test_fence_drops_cross_epoch_messages():
    """Messages still in flight toward a slow member when the epoch
    bumps are fenced on arrival — and nothing is lost: reliable clients
    retransmit under the new epoch."""
    dep, svc = _deploy(clients=2)
    leader = max(svc.server_pids)
    done = []

    async def scenario():
        tasks = [dep.spawn_client(pid, _puts(dep, pid, 8, tag=f"f{pid}"))
                 for pid in svc.client_pids]
        dep.make_slow(leader, 0.3)          # ORDER traffic now lingers
        await dep.runtime.sleep(0.05)
        await dep.adapt("s", TOTAL.with_(ordering="fifo"))
        for task in tasks:
            done.append(await dep.runtime.join(task))

    dep.run_scenario(scenario(), extra_time=2.0)
    assert done == [8, 8]
    fence = svc.grpc(leader).micro("Adaptation_Fence")
    assert fence.dropped > 0
    assert int(dep.metrics.counter("adapt.fence.dropped").value) > 0
    dep.shutdown()


def test_drain_timeout_aborts_without_touching_anything():
    """A group that cannot quiesce in time aborts the switch before any
    handler is touched: same instances, same spec, epoch unbumped, and
    the parked calls are released."""
    dep, svc = _deploy(link=LinkSpec(delay=0.2, jitter=0.0))
    pid = svc.client
    before = {p: list(g.micro_protocols) for p, g in svc.grpcs.items()}

    async def scenario():
        task = dep.spawn_client(pid, _puts(dep, pid, 1))
        await dep.runtime.sleep(0.05)       # the call is mid-flight
        with pytest.raises(AdaptationError, match="did not quiesce"):
            await dep.adapt("s", TOTAL.with_(ordering="fifo"),
                            drain_timeout=0.1)
        assert await dep.runtime.join(task) == 1
        # The aborted switch left no gate behind; a later switch works.
        report = await dep.adapt("s", TOTAL.with_(ordering="fifo"))
        return report

    report = dep.run_scenario(scenario(), extra_time=2.0)
    assert int(dep.metrics.counter("adapt.aborts").value) == 1
    assert report.epoch == 1                # the abort consumed no epoch
    dep.shutdown()
    # At abort time nothing had been swapped (checked via identity on
    # the later successful switch's kept instances).
    assert all(g.adapt_epoch == 1 for g in svc.grpcs.values())
    for p, old_list in before.items():
        names = {m.name for m in old_list}
        assert "Total_Order" in names       # pre-abort snapshot intact


def test_illegal_target_rejected_before_any_handler():
    """An illegal target dies in validation with the Figure-4 edge named
    — composition, spec and epoch untouched."""
    dep, svc = _deploy()
    before = {p: list(g.micro_protocols) for p, g in svc.grpcs.items()}

    async def scenario():
        with pytest.raises(DependencyError, match="Unique_Execution"):
            await dep.adapt("s", TOTAL.with_(unique=False))
        with pytest.raises(DependencyError, match="Bounded_Termination"):
            await dep.adapt("s", TOTAL.with_(bounded=1.0))

    dep.run_scenario(scenario(), extra_time=0.1)
    assert svc.spec == TOTAL
    assert int(dep.metrics.counter("adapt.plans.rejected").value) == 2
    assert int(dep.metrics.counter("adapt.switches").value) == 0
    for p, old_list in before.items():
        assert svc.grpcs[p].micro_protocols == old_list
        assert svc.grpcs[p].adapt_epoch == 0
    dep.shutdown()


def test_stale_and_malformed_plans_rejected():
    dep, svc = _deploy()
    manager = AdaptationManager.ensure(dep)
    assert AdaptationManager.ensure(dep) is manager

    stale = AdaptationPlan(
        service="s", to_spec=TOTAL.with_(ordering="fifo"),
        from_spec=TOTAL.with_(acceptance=1))   # not what is running

    async def scenario():
        with pytest.raises(ConfigurationError, match="stale"):
            await dep.adapt("s", stale)
        with pytest.raises(ConfigurationError, match="submitted for"):
            await dep.adapt("s", stale.with_(service="other"))
        with pytest.raises(ConfigurationError, match="drain_timeout"):
            await dep.adapt("s", TOTAL.with_(ordering="fifo"),
                            drain_timeout=-1.0)
        with pytest.raises(ConfigurationError, match="ServiceSpec"):
            await dep.adapt("s", "fifo")

    dep.run_scenario(scenario(), extra_time=0.1)
    assert svc.spec == TOTAL
    dep.shutdown()


def test_one_switch_at_a_time_per_service():
    dep, svc = _deploy(link=LinkSpec(delay=0.1, jitter=0.0))
    pid = svc.client

    async def scenario():
        call = dep.spawn_client(pid, _puts(dep, pid, 1))
        await dep.runtime.sleep(0.02)       # keep the drain busy
        first = dep.runtime.spawn(
            dep.adapt("s", TOTAL.with_(ordering="fifo")), name="first")
        await dep.runtime.sleep(0.01)
        with pytest.raises(AdaptationError, match="mid-adaptation"):
            await dep.adapt("s", TOTAL.with_(ordering="none"))
        await dep.runtime.join(call)
        await dep.runtime.join(first)

    dep.run_scenario(scenario(), extra_time=2.0)
    assert svc.spec.ordering == "fifo"
    assert int(dep.metrics.counter("adapt.switches").value) == 1
    dep.shutdown()


def test_validate_plan_standalone():
    fifo = TOTAL.with_(ordering="fifo")
    validate_plan(AdaptationPlan(service="s", to_spec=fifo),
                  current=TOTAL)
    with pytest.raises(DependencyError, match="Reliable_Communication"):
        validate_plan(
            AdaptationPlan(service="s",
                           to_spec=fifo.with_(reliable=False,
                                              unique=False)),
            current=TOTAL)


# ---------------------------------------------------------------------------
# Replica groups: the PR-8 mode edges gate adaptation too
# ---------------------------------------------------------------------------


def test_passive_group_rejects_ordered_target():
    rspec = primary_backup(3)
    dep = Deployment(seed=11, default_link=LINK, keep_trace=False)
    svc = dep.add_service("s", rspec.service_spec(), KVStore,
                          servers=3, clients=1)
    group = ReplicationManager.ensure(dep).replicate("s", rspec)
    before = {p: list(g.micro_protocols) for p, g in svc.grpcs.items()}

    async def scenario():
        assert await _puts(dep, svc.client, 3) == 3
        with pytest.raises(DependencyError, match="Passive_Replication"):
            await dep.adapt("s", svc.spec.with_(ordering="fifo"))
        # A mode-legal change goes through — and rspec follows the
        # composition that now actually runs.
        report = await dep.adapt("s", svc.spec.with_(bounded=5.0))
        assert await _puts(dep, svc.client, 3, tag="b") == 3
        return report

    report = dep.run_scenario(scenario(), extra_time=1.0)
    assert report.epoch == 1
    assert group.rspec.spec.bounded == 5.0
    assert group.rspec.mode == "passive"
    # The rejected plan touched nothing.
    names = {m.name for m in before[svc.server_pids[0]]}
    assert "FIFO_Order" not in names
    dep.shutdown()


# ---------------------------------------------------------------------------
# Listener lifecycle (the drivers' own is covered by tests/test_control.py)
# ---------------------------------------------------------------------------


def test_unwatch_membership_detaches_the_watcher():
    dep, svc = _deploy()
    seen = []

    def watcher(pid, alive):
        seen.append((pid, alive))

    dep.unwatch_membership(watcher)          # never attached: a no-op
    dep.watch_membership(watcher)
    dep.crash(svc.server_pids[0])
    assert seen == [(svc.server_pids[0], False)]
    dep.unwatch_membership(watcher)
    dep.recover(svc.server_pids[0])
    assert seen == [(svc.server_pids[0], False)]
    dep.shutdown()
