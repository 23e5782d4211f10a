#!/usr/bin/env python3
"""Typed stubs + name binding: the developer-facing surface.

The paper assumes stubs that "marshall arguments and do binding" above
gRPC.  This example shows the full developer workflow: declare a service
interface, bind a client proxy to the service's server group, and call
it like a local object — timeouts surfacing as exceptions rather than
status codes.

Run:  python examples/stub_service.py
"""

from repro import ServiceCluster, ServiceSpec
from repro.apps import KVStore
from repro.errors import RPCTimeout
from repro.stubs import (
    MarshallingApp,
    ServiceInterface,
    client_stub,
)

INVENTORY = ServiceInterface("inventory", ["put", "get", "keys"])


def main() -> None:
    spec = ServiceSpec(unique=True, bounded=0.5, acceptance=2)
    cluster = ServiceCluster(spec, lambda pid: MarshallingApp(KVStore()),
                             n_servers=3)

    print(f"bound service 'inventory' -> group {cluster.group.members}")

    async def scenario():
        stub = client_stub(INVENTORY, cluster.grpc(cluster.client),
                           cluster.group)
        await stub.put(key="widgets", value=130)
        await stub.put(key="sprockets", value=7)
        count = await stub.get(key="widgets")
        print(f"stub.get(key='widgets')  -> {count}")
        print(f"stub.keys()              -> {await stub.keys()}")

        # Timeouts become exceptions at the stub surface.
        for pid in cluster.server_pids:
            cluster.deployment.crash(pid)
        try:
            await stub.get(key="widgets")
        except RPCTimeout as exc:
            print(f"with all replicas down  -> RPCTimeout: {exc}")

    task = cluster.spawn_client(cluster.client, scenario())

    async def waiter():
        await cluster.deployment.runtime.join(task)

    cluster.deployment.run_scenario(waiter(), extra_time=0.5)


if __name__ == "__main__":
    main()
