"""The promise-style API over Asynchronous Call (begin/result/gather)."""

import pytest

from repro import LinkSpec, ServiceCluster, ServiceSpec, Status
from repro.apps import ComputeApp, KVStore
from repro.core.grpc import gather_calls
from repro.errors import ConfigurationError

FAST = LinkSpec(delay=0.01, jitter=0.0)


def async_cluster(app_factory=KVStore, **kwargs):
    spec = kwargs.pop("spec", ServiceSpec(call="asynchronous",
                                          bounded=10.0, unique=True))
    return ServiceCluster(spec, app_factory, n_servers=3,
                          default_link=FAST, **kwargs)


def drive(cluster, coro):
    task = cluster.spawn_client(cluster.client, coro)

    async def waiter():
        await cluster.deployment.runtime.join(task)

    cluster.deployment.run_scenario(waiter(), extra_time=0.5)


def test_begin_returns_before_the_roundtrip():
    cluster = async_cluster()
    seen = {}

    async def scenario():
        grpc = cluster.grpc(cluster.client)
        handle = await grpc.begin("put", {"key": "k", "value": 1},
                                  cluster.group)
        seen["issue_time"] = cluster.deployment.runtime.now()
        seen["peek"] = handle.peek()
        result = await handle.result()
        seen["result"] = result
        seen["done_time"] = cluster.deployment.runtime.now()

    drive(cluster, scenario())
    assert seen["issue_time"] < 0.01        # returned immediately
    assert seen["peek"] is Status.WAITING
    assert seen["result"].ok
    assert seen["done_time"] >= 0.02        # waited a round trip


def test_result_is_idempotent_and_peek_after():
    cluster = async_cluster()
    seen = {}

    async def scenario():
        grpc = cluster.grpc(cluster.client)
        handle = await grpc.begin("get", {"key": "k"}, cluster.group)
        first = await handle.result()
        second = await handle.result()   # cached, not a second request
        seen["same"] = first is second
        seen["peek"] = handle.peek()

    drive(cluster, scenario())
    assert seen["same"]
    assert seen["peek"] is Status.OK


def test_gather_overlaps_round_trips():
    cluster = async_cluster(app_factory=lambda pid: KVStore(op_delay=0.1))
    seen = {}

    async def scenario():
        grpc = cluster.grpc(cluster.client)
        calls = [("put", {"key": f"k{i}", "value": i}) for i in range(5)]
        results = await gather_calls(grpc, calls, cluster.group)
        seen["results"] = results
        seen["elapsed"] = cluster.deployment.runtime.now()

    drive(cluster, scenario())
    assert all(r.ok for r in seen["results"])
    # Five calls with 100 ms server work each: concurrent, not serial.
    assert seen["elapsed"] < 0.3


def test_begin_requires_asynchronous_call():
    cluster = ServiceCluster(ServiceSpec(), KVStore, n_servers=1,
                             default_link=FAST)

    async def scenario():
        with pytest.raises(ConfigurationError):
            await cluster.grpc(cluster.client).begin(
                "get", {"key": "k"}, cluster.group)

    drive(cluster, scenario())


def test_peek_on_lost_handle_returns_none():
    cluster = async_cluster()
    seen = {}

    async def scenario():
        grpc = cluster.grpc(cluster.client)
        handle = await grpc.begin("get", {"key": "k"}, cluster.group)
        await grpc.request(handle.id)   # redeemed behind its back
        seen["peek"] = handle.peek()

    drive(cluster, scenario())
    assert seen["peek"] is None


def test_gather_mixed_operations():
    cluster = async_cluster(
        app_factory=lambda pid: ComputeApp(pid * 10.0),
        spec=ServiceSpec(call="asynchronous", bounded=10.0, unique=True,
                         acceptance=1))
    seen = {}

    async def scenario():
        grpc = cluster.grpc(cluster.client)
        results = await gather_calls(
            grpc, [("measure", {}), ("whoami", {})], cluster.group)
        seen["values"] = [r.args for r in results]

    drive(cluster, scenario())
    measure, whoami = seen["values"]
    assert measure in (10.0, 20.0, 30.0)
    assert whoami in (1, 2, 3)
