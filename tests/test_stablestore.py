"""Unit tests for simulated stable storage."""

import pytest

from repro.errors import StableStoreError
from repro.stablestore import StableStore


def test_checkpoint_roundtrip():
    store = StableStore()
    addr = store.write({"x": [1, 2, 3]})
    assert store.read(addr) == {"x": [1, 2, 3]}


def test_checkpoint_is_deep_copied_both_ways():
    store = StableStore()
    value = {"inner": [1]}
    addr = store.write(value)
    value["inner"].append(2)          # later volatile mutation
    loaded = store.read(addr)
    assert loaded == {"inner": [1]}   # not affected
    loaded["inner"].append(3)
    assert store.read(addr) == {"inner": [1]}  # nor by reader mutations


def test_read_unknown_address_raises():
    store = StableStore()
    with pytest.raises(StableStoreError):
        store.read(42)


def test_free_releases_checkpoint():
    store = StableStore()
    addr = store.write("snapshot")
    store.free(addr)
    assert not store.has_checkpoint(addr)
    with pytest.raises(StableStoreError):
        store.read(addr)
    store.free(addr)  # double-free is a no-op


def test_addresses_are_unique_and_monotonic():
    store = StableStore()
    addrs = [store.write(i) for i in range(5)]
    assert addrs == sorted(set(addrs))


def test_named_cells_roundtrip_and_delete():
    store = StableStore()
    store.put("balance", 100)
    assert store.get("balance") == 100
    assert "balance" in store
    store.delete("balance")
    assert store.get("balance") is None
    assert store.get("balance", default=-1) == -1


def test_named_cells_deep_copied():
    store = StableStore()
    value = [1, 2]
    store.put("cell", value)
    value.append(3)
    assert store.get("cell") == [1, 2]


def test_snapshot_and_restore_cells():
    store = StableStore()
    store.put("a", 1)
    store.put("b", 2)
    snapshot = store.snapshot_cells()
    store.put("a", 99)
    store.put("c", 3)
    store.restore_cells(snapshot)
    assert store.get("a") == 1
    assert store.get("b") == 2
    assert store.get("c") is None
    assert sorted(store.keys()) == ["a", "b"]


def test_write_counters():
    store = StableStore()
    store.write("x")
    store.put("k", 1)
    store.put("k", 2)
    assert store.checkpoint_writes == 1
    assert store.cell_writes == 2


def test_survives_node_crash():
    from repro import LinkSpec
    from repro.net import NetworkFabric, Node
    from repro.runtime import SimRuntime

    rt = SimRuntime()
    fabric = NetworkFabric(rt)
    node = Node(1, rt, fabric)
    node.start()
    node.stable.put("persisted", "yes")
    node.crash()
    node.recover()
    rt.kernel.run_until(0.01)  # time passes after the reboot
    assert node.stable.get("persisted") == "yes"
