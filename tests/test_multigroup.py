"""Generality checks: multiple groups per client, nested server calls.

The paper's model never restricts a composite to one server group — the
group travels in every call — and a server site runs the same composite
as a client site.  These tests exercise both consequences: one client
alternating between overlapping groups, and a server application that
issues its own group RPC while serving one (a chained call).
"""

import pytest

from repro import Group, LinkSpec, ServiceCluster, ServiceSpec, Status
from repro.apps import KVStore, ServerApp

FAST = LinkSpec(delay=0.005, jitter=0.0)


def test_one_client_two_overlapping_groups():
    spec = ServiceSpec(unique=True, bounded=5.0, acceptance=2)
    cluster = ServiceCluster(spec, KVStore, n_servers=3,
                             default_link=FAST)
    group_a = Group("front", [1, 2])
    group_b = Group("back", [2, 3])
    results = {}

    async def scenario():
        grpc = cluster.grpc(cluster.client)
        results["a"] = await grpc.call("put", {"key": "ka", "value": 1},
                                       group_a)
        results["b"] = await grpc.call("put", {"key": "kb", "value": 2},
                                       group_b)

    task = cluster.spawn_client(cluster.client, scenario())

    async def waiter():
        await cluster.deployment.runtime.join(task)

    cluster.deployment.run_scenario(waiter(), extra_time=0.5)
    assert results["a"].ok and results["b"].ok
    assert cluster.app(1).data == {"ka": 1}
    assert cluster.app(2).data == {"ka": 1, "kb": 2}  # in both groups
    assert cluster.app(3).data == {"kb": 2}


class FrontendApp(ServerApp):
    """A server whose procedure performs its own group RPC downstream."""

    def __init__(self):
        super().__init__()
        self.grpc = None          # injected after cluster construction
        self.backend = None

    async def handle_lookup(self, args):
        # Chained call: this site acts as a client of the backend group
        # while serving the frontend call.
        result = await self.grpc.call("get", {"key": args["key"]},
                                      self.backend)
        return {"via": self.node.pid, "value": result.args,
                "status": result.status.value}


def test_nested_server_to_server_call():
    spec = ServiceSpec(unique=True, bounded=5.0, acceptance=1)

    def factory(pid):
        return FrontendApp() if pid == 1 else KVStore()

    cluster = ServiceCluster(spec, factory, n_servers=3,
                             default_link=FAST)
    frontend = Group("frontend", [1])
    backend = Group("backend", [2, 3])
    app = cluster.app(1)
    app.grpc = cluster.grpc(1)
    app.backend = backend
    outcome = {}

    async def scenario():
        grpc = cluster.grpc(cluster.client)
        # Seed the backend directly.
        seed = await grpc.call("put", {"key": "city", "value": "tucson"},
                               backend)
        assert seed.ok
        # Then query through the frontend, which chains to the backend.
        outcome["result"] = await grpc.call("lookup", {"key": "city"},
                                            frontend)

    task = cluster.spawn_client(cluster.client, scenario())

    async def waiter():
        await cluster.deployment.runtime.join(task)

    cluster.deployment.run_scenario(waiter(), extra_time=0.5)
    result = outcome["result"]
    assert result.ok
    assert result.args["via"] == 1
    assert result.args["value"] == "tucson"
    assert result.args["status"] == "OK"


def test_nested_call_ids_do_not_collide_with_serving():
    # The frontend's outgoing calls get ids from ITS composite's counter;
    # the client's ids come from its own — keyed by (client, inc, id) at
    # the servers, so identical numeric ids cannot collide.
    spec = ServiceSpec(unique=True, bounded=5.0, acceptance=1)

    def factory(pid):
        return FrontendApp() if pid == 1 else KVStore()

    cluster = ServiceCluster(spec, factory, n_servers=3,
                             default_link=FAST)
    frontend = Group("frontend", [1])
    backend = Group("backend", [2, 3])
    app = cluster.app(1)
    app.grpc = cluster.grpc(1)
    app.backend = backend
    statuses = []

    async def scenario():
        grpc = cluster.grpc(cluster.client)
        await grpc.call("put", {"key": "k0", "value": 0}, backend)
        for _ in range(3):
            result = await grpc.call("lookup", {"key": "k0"}, frontend)
            statuses.append(result.status)

    task = cluster.spawn_client(cluster.client, scenario())

    async def waiter():
        await cluster.deployment.runtime.join(task)

    cluster.deployment.run_scenario(waiter(), extra_time=0.5)
    assert statuses == [Status.OK] * 3
