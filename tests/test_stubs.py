"""Stubs: marshalling, generated proxies, end-to-end usage."""

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
