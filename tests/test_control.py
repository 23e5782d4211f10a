"""The control loop: one membership subscription, a fixed slot order,
one teardown path.

Covers :class:`~repro.core.control.ControlLoop` directly (stub
policies) and through the planes that occupy its slots: dispatch order
is the slot order whatever the install order, reinstalling a slot
closes the old policy without stacking a second subscription (oracle
and heartbeat modes), ``Deployment.shutdown()`` leaves no membership
watcher behind — the observatory's included — and a closed policy
ignores later events.
"""

import pytest

from repro import Deployment, LinkSpec, ServiceSpec
from repro.apps import KVStore, build_sharded_kv
from repro.core.control import SLOTS
from repro.errors import ReproError
from repro.replication import primary_backup

LINK = LinkSpec(delay=0.01, jitter=0.0)
TOTAL = ServiceSpec(reliable=True, unique=True, ordering="total",
                    acceptance=2)


class Probe:
    """A slot policy that records what it is told."""

    def __init__(self, log=None, tag=None):
        self.log = log if log is not None else []
        self.tag = tag
        self.events = []
        self.closed = 0

    def on_member(self, pid, alive):
        self.events.append((pid, alive))
        self.log.append(self.tag)

    def close(self):
        self.closed += 1


def _subscriptions(dep):
    """Live ``watch_membership`` subscriptions made from now on."""
    live = []
    watch, unwatch = dep.watch_membership, dep.unwatch_membership

    def spy_watch(watcher):
        live.append(watcher)
        watch(watcher)

    def spy_unwatch(watcher):
        if watcher in live:
            live.remove(watcher)
        unwatch(watcher)

    dep.watch_membership, dep.unwatch_membership = spy_watch, spy_unwatch
    return live


def _deploy(membership=None, **kwargs):
    dep = Deployment(seed=7, default_link=LINK, keep_trace=False,
                     membership=membership, heartbeat_interval=0.02,
                     **kwargs)
    svc = dep.add_service("s", TOTAL, KVStore, servers=3, clients=1)
    return dep, svc


def _flip(dep, pid, *, alive=False):
    """Crash (or recover) ``pid`` and give a heartbeat detector time to
    notice; the oracle modes notify synchronously."""
    (dep.recover if alive else dep.crash)(pid)
    dep.settle(0.5)


# ---------------------------------------------------------------------------
# (a) dispatch order is the slot order
# ---------------------------------------------------------------------------


def test_dispatch_follows_slot_order_not_install_order():
    dep, svc = _deploy()
    log = []
    for slot in reversed(SLOTS):
        dep.control.install(slot, Probe(log, slot))
    _flip(dep, svc.server_pids[0])
    assert log == list(SLOTS)
    assert dep.control.suspected == {svc.server_pids[0]}
    _flip(dep, svc.server_pids[0], alive=True)
    assert dep.control.suspected == set()
    dep.shutdown()


def test_replication_reacts_before_a_rebind_installed_first():
    dep = Deployment(seed=3, default_link=LINK, observatory=True)
    dep.auto_rebind()                    # before any replica group exists
    build_sharded_kv(dep, 1, replication=primary_backup(3))
    victim = dep.replication.groups["shard-0"].primary
    _flip(dep, victim)
    tape = [kind for _, _, kind, _ in dep.flight.entries()
            if kind in ("suspect", "repl-shrink", "rebind")]
    assert tape == ["suspect", "repl-shrink", "rebind"]
    assert victim not in dep.services["shard-0"].group.members
    dep.shutdown()


def test_unknown_slot_is_rejected():
    dep = Deployment()
    with pytest.raises(ReproError, match="unknown control slot"):
        dep.control.install("reconcile", Probe())
    assert dep.control.policies == {}


# ---------------------------------------------------------------------------
# (b) reinstall closes the old policy; one subscription, both modes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("membership", [None, "oracle", "heartbeat"])
def test_reinstall_closes_previous_and_keeps_one_subscription(membership):
    dep, svc = _deploy(membership)
    live = _subscriptions(dep)
    first, second = Probe(), Probe()
    other = dep.control.install("observe", Probe())
    dep.control.install("rebind", first)
    assert dep.control.install("rebind", second) is second
    assert first.closed == 1 and second.closed == 0
    assert len(live) == 1
    victim = svc.server_pids[0]
    _flip(dep, victim)
    # One subscription means one delivery per change; the replaced
    # policy hears nothing.
    assert second.events == [(victim, False)]
    assert other.events == [(victim, False)]
    assert first.events == []
    dep.shutdown()


def test_auto_installers_replace_instead_of_stacking():
    dep, svc = _deploy()
    live = _subscriptions(dep)
    dep.auto_rebind()
    rebind = dep.auto_rebind()
    assert dep.control.policies == {"rebind": rebind}
    assert len(live) == 1
    dep.shutdown()


def test_policy_free_deployment_never_subscribes():
    dep = Deployment(seed=7, membership="heartbeat")
    live = _subscriptions(dep)
    dep.add_service("s", TOTAL, KVStore, servers=3, clients=1)
    dep.settle(0.2)
    assert live == [] and dep.control.policies == {}
    dep.shutdown()


# ---------------------------------------------------------------------------
# (c) shutdown leaves no membership watcher
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("membership", [None, "heartbeat"])
def test_shutdown_closes_every_policy_and_unsubscribes(membership):
    dep, svc = _deploy(membership)
    live = _subscriptions(dep)
    log = []
    probes = [dep.control.install(slot, Probe(log, slot))
              for slot in SLOTS]
    assert len(live) == 1
    dep.shutdown()
    assert live == [] and dep.control.policies == {}
    assert [probe.closed for probe in probes] == [1] * len(SLOTS)
    dep.shutdown()                       # idempotent
    assert [probe.closed for probe in probes] == [1] * len(SLOTS)


def test_shutdown_detaches_the_observatory_tape():
    dep, svc = _deploy(observatory=True)
    dep.auto_rebind()
    dep.shutdown()
    dep.crash(svc.server_pids[0])
    kinds = [kind for _, _, kind, _ in dep.flight.entries()]
    assert "suspect" not in kinds and "rebind" not in kinds
    assert set(svc.group.members) == set(svc.server_pids)


# ---------------------------------------------------------------------------
# (d) a closed policy ignores later events
# ---------------------------------------------------------------------------


def test_uninstalled_policy_hears_nothing_further():
    dep, svc = _deploy()
    probe = dep.control.install("placement", Probe())
    keeper = dep.control.install("observe", Probe())
    _flip(dep, svc.server_pids[0])
    dep.control.uninstall("placement")
    dep.control.uninstall("placement")   # empty slot: a no-op
    _flip(dep, svc.server_pids[1])
    assert probe.closed == 1
    assert probe.events == [(svc.server_pids[0], False)]
    assert len(keeper.events) == 2
    dep.shutdown()


def test_closed_rebind_driver_leaves_bindings_alone():
    dep, svc = _deploy()
    dep.auto_rebind()
    dep.control.uninstall("rebind")
    _flip(dep, svc.server_pids[0])
    assert set(svc.group.members) == set(svc.server_pids)
    assert dep.metrics.value("placement.rebind.shrink") == 0
    dep.shutdown()
