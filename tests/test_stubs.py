"""Stubs: marshalling, generated proxies, end-to-end usage."""

import copy
import importlib

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LinkSpec, ServiceCluster, ServiceSpec
from repro.apps import KVStore
from repro.core.microprotocols import average
from repro.errors import MarshalError, RPCTimeout
from repro.net.message import Envelope, wire_size
from repro.stubs import (
    MarshallingApp,
    ServiceInterface,
    client_stub,
    marshal,
    unmarshal,
)
from repro.stubs.stubgen import unmarshalled_collation

FAST = LinkSpec(delay=0.005, jitter=0.0)


# ----------------------------------------------------------------------
# Marshalling
# ----------------------------------------------------------------------

SAMPLES = [
    None, True, False, 0, 1, -1, 2 ** 100, -(2 ** 100), 3.14, -0.0,
    "", "hello", "ünïcødé", b"", b"\x00\xff", [], [1, [2, [3]]],
    (), (1, "a"), {}, {"k": 1, "nested": {"x": [True, None]}},
]


@pytest.mark.parametrize("value", SAMPLES, ids=repr)
def test_marshal_roundtrip(value):
    assert unmarshal(marshal(value)) == value
    # The wire pipeline's size estimate (coalescing cap, queue budgets)
    # must be defined, positive and stable across a marshal round trip
    # for everything the stubs can carry.
    assert wire_size(value) >= 1
    assert wire_size(unmarshal(marshal(value))) == wire_size(value)


@pytest.mark.parametrize("value", SAMPLES, ids=repr)
def test_envelope_repr_is_stable_and_sized(value):
    env = Envelope(1, 2, value, 0.0, seq=77)
    assert env.wire_size() == wire_size(value)
    assert repr(env) == (f"<Envelope #77 1->2 {type(value).__name__} "
                         f"size={wire_size(value)}>")
    dup = Envelope(1, 2, value, 0.0, seq=77, copy=1)
    assert repr(dup).endswith("copy=1>")


def test_marshal_distinguishes_list_and_tuple():
    assert unmarshal(marshal([1, 2])) == [1, 2]
    assert unmarshal(marshal((1, 2))) == (1, 2)
    assert isinstance(unmarshal(marshal((1,))), tuple)


def test_marshal_is_deterministic_regardless_of_dict_order():
    a = marshal({"x": 1, "y": 2})
    b = marshal({"y": 2, "x": 1})
    assert a == b


def test_marshal_rejects_unsupported_types():
    with pytest.raises(MarshalError):
        marshal(object())
    with pytest.raises(MarshalError):
        marshal({1: "non-string key"})


def test_unmarshal_rejects_garbage():
    with pytest.raises(MarshalError):
        unmarshal(b"\x99")
    with pytest.raises(MarshalError):
        unmarshal(marshal(1) + b"trailing")
    with pytest.raises(MarshalError):
        unmarshal(marshal("hello")[:-1])


@settings(max_examples=200, deadline=None)
@given(st.recursive(
    st.none() | st.booleans() | st.integers() |
    st.floats(allow_nan=False) | st.text() | st.binary(),
    lambda children: st.lists(children, max_size=4) |
    st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20))
def test_marshal_roundtrip_property(value):
    assert unmarshal(marshal(value)) == value


# ----------------------------------------------------------------------
# End-to-end through generated stubs
# ----------------------------------------------------------------------

KV_INTERFACE = ServiceInterface("kv", ["put", "get", "keys"])


def stub_cluster(spec=None):
    spec = spec or ServiceSpec(bounded=5.0, unique=True)
    return ServiceCluster(spec, lambda pid: MarshallingApp(KVStore()),
                          n_servers=3, default_link=FAST)


def test_stub_roundtrip():
    cluster = stub_cluster()
    outcome = {}

    async def scenario():
        stub = client_stub(KV_INTERFACE, cluster.grpc(cluster.client),
                           cluster.group)
        await stub.put(key="city", value="tucson")
        outcome["value"] = await stub.get(key="city")
        outcome["keys"] = await stub.keys()

    task = cluster.spawn_client(cluster.client, scenario())

    async def waiter():
        await cluster.deployment.runtime.join(task)

    cluster.deployment.run_scenario(waiter(), extra_time=0.5)
    assert outcome["value"] == "tucson"
    assert outcome["keys"] == ["city"]


def test_each_replica_owns_its_decoded_copy():
    """A group call hands one argument field to every member, and the
    codec decodes that field once per process.  Each server must still
    own its value: one replica mutating its stored copy in place changes
    neither the other replicas' copies nor what they serve."""
    cluster = stub_cluster()
    original = {"rows": [{"id": i, "name": f"row-{i}", "tags": ["a", "bb"],
                          "meta": {"ok": i % 2 == 0}} for i in range(16)],
                "blob": "y" * 512}
    assert len(marshal({"key": "rec", "value": original})) >= 1024
    outcome = {}

    async def put():
        stub = client_stub(KV_INTERFACE, cluster.grpc(cluster.client),
                           cluster.group)
        await stub.put(key="rec", value=copy.deepcopy(original))

    async def get():
        stub = client_stub(KV_INTERFACE, cluster.grpc(cluster.client),
                           cluster.group)
        outcome["value"] = await stub.get(key="rec")

    def run(scenario):
        task = cluster.spawn_client(cluster.client, scenario())

        async def waiter():
            await cluster.deployment.runtime.join(task)

        cluster.deployment.run_scenario(waiter(), extra_time=0.5)

    run(put)
    stored = [cluster.app(pid).inner.data["rec"]
              for pid in cluster.server_pids]
    assert all(value == original for value in stored)
    mutated = stored[0]
    mutated["rows"][0]["tags"].append("zz")
    mutated["rows"][1]["meta"]["ok"] = True
    mutated["rows"].append({})
    mutated["blob"] = "changed"
    for value in stored[1:]:
        assert value == original
    cluster.deployment.crash(cluster.server_pids[0])
    run(get)
    assert outcome["value"] == original


def test_a_put_get_pair_walks_its_value_once_and_decodes_it_never(
        monkeypatch):
    """Walk-count guard on ``stub_bulk``'s shape: 3 servers behind
    ``MarshallingApp``, unique execution, acceptance 2.  Per put/get
    pair the ~2 KB value is walked once (the put's encode), never
    decoded, and the 3 servers' replies to the get are their copies'
    fields handed back by the registry."""
    codec = importlib.import_module("repro.stubs.marshal")
    cluster = ServiceCluster(
        ServiceSpec(unique=True, bounded=30.0, acceptance=2),
        lambda pid: MarshallingApp(KVStore(keep_log=False)), n_servers=3,
        default_link=FAST)
    walks, decodes, marshals = [], [], []

    def walk(value):
        data = real_walk(value)
        walks.append(len(data))
        return data

    def decode(data, keep):
        decodes.append(len(data))
        return real_decode(data, keep)

    class Sizes:
        def on_marshal(self, nbytes, seconds):
            marshals.append(nbytes)

        def on_unmarshal(self, nbytes, seconds):
            pass

    real_walk, real_decode = codec._encode, codec._decode
    monkeypatch.setattr(codec, "_encode", walk)
    monkeypatch.setattr(codec, "_decode", decode)
    previous = codec.install_profiler(Sizes())
    pairs, counts = 4, []

    async def scenario():
        stub = client_stub(ServiceInterface("bulk-kv", ["put", "get"]),
                           cluster.grpc(cluster.client), cluster.group)
        for pair in range(pairs):
            value = {"rows": [{"id": 100 * pair + j, "name": f"row-{j}",
                               "score": j / 7.0, "tags": ["a", "bb", "ccc"],
                               "ok": j % 2 == 0} for j in range(16)],
                     "blob": "y" * 512, "n": pair}
            del walks[:], decodes[:], marshals[:]
            assert await stub.put(key=f"b{pair}", value=value) is None
            assert await stub.get(key=f"b{pair}") == value
            big = [n for n in marshals if n >= 1024]
            counts.append((len(big), sum(n >= 1024 for n in walks),
                           sum(n >= 1024 for n in decodes)))

    try:
        task = cluster.spawn_client(cluster.client, scenario())

        async def waiter():
            await cluster.deployment.runtime.join(task)

        cluster.deployment.run_scenario(waiter(), extra_time=0.5)
    finally:
        codec.install_profiler(previous)
    # (big marshals, big walks, big decodes): one put and three replies
    # marshalled; one walk; so three answered from the registry.
    assert counts == [(4, 1, 0)] * pairs


def test_stub_raises_rpc_timeout():
    cluster = stub_cluster(ServiceSpec(bounded=0.3, unique=True))
    for pid in cluster.server_pids:
        cluster.deployment.crash(pid)
    caught = {}

    async def scenario():
        stub = client_stub(KV_INTERFACE, cluster.grpc(cluster.client),
                           cluster.group)
        with pytest.raises(RPCTimeout):
            await stub.get(key="any")
        caught["ok"] = True

    task = cluster.spawn_client(cluster.client, scenario())

    async def waiter():
        await cluster.deployment.runtime.join(task)

    cluster.deployment.run_scenario(waiter())
    assert caught["ok"]


def test_unmarshalled_collation_with_stub_replies():
    from repro.apps import ComputeApp

    iface = ServiceInterface("compute", ["measure"])
    spec = ServiceSpec(bounded=5.0, acceptance=3,
                       collation=unmarshalled_collation(average, None))
    cluster = ServiceCluster(
        spec, lambda pid: MarshallingApp(ComputeApp(pid * 10.0)),
        n_servers=3, default_link=FAST)
    outcome = {}

    async def scenario():
        stub = client_stub(iface, cluster.grpc(cluster.client),
                           cluster.group)
        outcome["avg"] = await stub.measure()

    task = cluster.spawn_client(cluster.client, scenario())

    async def waiter():
        await cluster.deployment.runtime.join(task)

    cluster.deployment.run_scenario(waiter(), extra_time=0.5)
    mean, count = outcome["avg"]
    assert mean == pytest.approx(20.0)
    assert count == 3
