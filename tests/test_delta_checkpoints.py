"""Delta checkpointing (the paper's proposed optimization), unit + e2e."""

import pytest

from repro import LinkSpec, ServiceCluster, ServiceSpec, Status
from repro.apps import BankApp, KVStore, LockService, WorkQueue
from repro.core.config import at_most_once
from repro.core.microprotocols.atomic_execution import (
    AtomicExecution,
    apply_delta,
    state_delta,
)

FAST = LinkSpec(delay=0.005, jitter=0.0)


# ----------------------------------------------------------------------
# The diff/apply pair (pure functions)
# ----------------------------------------------------------------------

def test_state_delta_roundtrip_flat():
    old = {"a": 1, "b": 2, "c": 3}
    new = {"a": 1, "b": 20, "d": 4}
    delta = state_delta(old, new)
    assert set(delta) == {"b", "c", "d"}
    state = dict(old)
    apply_delta(state, delta)
    assert state == new


def test_state_delta_roundtrip_nested():
    old = {"data": {"x": 1, "y": 2}, "meta": "v1"}
    new = {"data": {"x": 1, "y": 3, "z": 9}, "meta": "v1"}
    delta = state_delta(old, new)
    assert "meta" not in delta        # unchanged values excluded
    state = {"data": {"x": 1, "y": 2}, "meta": "v1"}
    apply_delta(state, delta)
    assert state == new


def test_state_delta_identical_states_empty():
    state = {"a": {"b": [1, 2]}}
    assert state_delta(state, dict(state)) == {}


def test_delta_much_smaller_than_state_for_small_changes():
    import sys
    old = {f"k{i}": "x" * 50 for i in range(500)}
    new = dict(old)
    new["k3"] = "changed"
    delta = state_delta(old, new)
    assert len(delta) == 1


def test_atomic_execution_rejects_bad_compact_every():
    with pytest.raises(ValueError):
        AtomicExecution(delta=True, compact_every=0)


# ----------------------------------------------------------------------
# End-to-end: delta mode gives the same atomicity guarantee
# ----------------------------------------------------------------------

def bank_factory(pid):
    return BankApp({"alice": 100, "bob": 100}, transfer_delay=0.05)


def delta_spec(**overrides):
    return at_most_once(acceptance=1, bounded=1.0,
                        atomic_delta=True,
                        atomic_compact_every=4).with_(**overrides)


def test_delta_mode_rolls_back_crash_mid_transfer():
    cluster = ServiceCluster(delta_spec(), bank_factory, n_servers=1,
                             default_link=FAST)
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


def test_delta_mode_replays_chain_on_recovery():
    cluster = ServiceCluster(delta_spec(bounded=5.0), bank_factory,
                             n_servers=1, default_link=FAST)
    # Three completed transfers (chain of deltas), then a crash.
    for _ in range(3):
        result = cluster.call_and_run(
            "transfer", {"src": "alice", "dst": "bob", "amount": 10},
            extra_time=0.3)
        assert result.ok
    atomic = cluster.grpc(1).micro("Atomic_Execution")
    assert atomic.delta_chain_length == 3   # compact_every=4 not yet hit
    cluster.deployment.crash(1)
    cluster.deployment.recover(1)
    cluster.deployment.settle(0.2)
    result = cluster.call_and_run("balance", {"account": "bob"},
                                  extra_time=0.3)
    assert result.args == 130               # all three replayed


def test_delta_chain_compacts():
    cluster = ServiceCluster(delta_spec(bounded=5.0), bank_factory,
                             n_servers=1, default_link=FAST)
    for _ in range(5):
        assert cluster.call_and_run(
            "transfer", {"src": "alice", "dst": "bob", "amount": 1},
            extra_time=0.2).ok
    atomic = cluster.grpc(1).micro("Atomic_Execution")
    # 4 deltas triggered compaction; the 5th starts a new chain.
    assert atomic.delta_chain_length == 1


#: app factory, six state-changing calls, the read-back after a crash
#: and recovery, and what it must return: the checkpointed state.
APPS = {
    "kvstore": (lambda pid: KVStore(keep_log=False),
                [("put", {"key": f"k{i % 2}", "value": i})
                 for i in range(6)],
                ("snapshot", {}), {"k0": 4, "k1": 5}),
    "locks": (lambda pid: LockService(),
              [("acquire", {"lock": f"l{i % 3}", "owner": f"c{i}"})
               for i in range(6)],
              ("locks", {}), {"l0": "c0", "l1": "c1", "l2": "c2"}),
    "workqueue": (lambda pid: WorkQueue(),
                  [("enqueue", {"job": i}) for i in range(5)]
                  + [("dequeue", {})],
                  ("peek", {}), 1),
}


def test_delta_and_whole_state_agree():
    """A server crash wipes the app (``on_crash``); recovery restores
    its last checkpoint (``get_state`` at commit, ``set_state`` at
    reboot), whole or replayed from deltas."""
    def run(app, delta):
        factory, calls, read, _ = APPS[app]
        spec = at_most_once(acceptance=1, bounded=5.0,
                            atomic_delta=delta)
        cluster = ServiceCluster(spec, factory, n_servers=1, seed=4,
                                 default_link=FAST)
        for op, args in calls:
            assert cluster.call_and_run(op, args, extra_time=0.2).ok
        cluster.deployment.crash(1)
        cluster.deployment.recover(1)
        cluster.deployment.settle(0.2)
        result = cluster.call_and_run(*read, extra_time=0.2)
        return result.args

    for app, (*_, expected) in APPS.items():
        assert run(app, delta=False) == run(app, delta=True) == expected, \
            app


def test_delta_writes_less_checkpoint_data():
    """With a large pre-populated state, delta checkpoints touch far
    fewer stable cells' worth of data (proxy: checkpoint count equal,
    but measured via stable write sizes through a size probe)."""
    import sys

    def run(delta):
        spec = at_most_once(acceptance=1, bounded=5.0,
                            atomic_delta=delta, atomic_compact_every=100)
        cluster = ServiceCluster(
            spec, lambda pid: KVStore(keep_log=False), n_servers=1,
            default_link=FAST)
        app = cluster.app(1)
        for i in range(300):
            app.data[f"pre-{i}"] = "x" * 40
        sizes = []
        stable = cluster.deployment.nodes[1].stable
        original_write = stable.write

        def measuring_write(value):
            sizes.append(sys.getsizeof(str(value)))
            return original_write(value)

        stable.write = measuring_write
        for i in range(5):
            cluster.call_and_run("put", {"key": f"k{i}", "value": i},
                                 extra_time=0.2)
        return sum(sizes)

    whole = run(delta=False)
    delta = run(delta=True)
    assert delta < whole / 5
