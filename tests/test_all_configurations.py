"""The configurability claim, exhaustively: all 186 services work.

The paper's punchline is that one system yields 198 (strictly, 186)
distinct RPC services by composition.  This sweep instantiates every
strict configuration from the Figure-4 enumeration on a real simulated
deployment and pushes a call through it — the strongest executable form
of "a single, configurable system is used to construct different
variants of RPC".
"""

import pytest

from repro import LinkSpec, ServiceCluster, Status
from repro.apps import KVStore
from repro.core.enumerate import enumerate_services

FAST = LinkSpec(delay=0.005, jitter=0.0)

ALL_SPECS = enumerate_services().strict_specs


def spec_id(spec):
    bits = [spec.call[:4], spec.orphans, spec.execution,
            "U" if spec.unique else "u", "R" if spec.reliable else "r",
            "B" if spec.bounded else "b", spec.ordering]
    return "-".join(bits)


def serve_one_call(spec) -> Status:
    cluster = ServiceCluster(spec, KVStore, n_servers=2,
                             default_link=FAST, keep_trace=False)
    outcome = {}

    async def client():
        grpc = cluster.grpc(cluster.client)
        result = await grpc.call("put", {"key": "k", "value": 1},
                                 cluster.group)
        if spec.call == "asynchronous":
            result = await grpc.request(result.id)
        outcome["status"] = result.status

    task = cluster.spawn_client(cluster.client, client())

    async def waiter():
        await cluster.deployment.runtime.join(task)

    cluster.deployment.run_scenario(waiter(), extra_time=0.3)
    return outcome["status"]


def test_every_strict_configuration_serves_a_call():
    assert len(ALL_SPECS) == 186
    failures = []
    for spec in ALL_SPECS:
        try:
            status = serve_one_call(spec)
        except BaseException as exc:  # noqa: BLE001 - collect, report all
            failures.append(f"{spec_id(spec)}: raised {exc!r}")
            continue
        if status is not Status.OK:
            failures.append(f"{spec_id(spec)}: returned {status}")
    assert not failures, "\n".join(failures[:20])


@pytest.mark.parametrize("spec", [
    s for s in ALL_SPECS
    if s.ordering == "total" and s.execution == "atomic"
], ids=spec_id)
def test_heaviest_composites_individually(spec):
    """The maximal stacks (total order + atomic + orphans) get their own
    test ids so a regression names the exact configuration."""
    assert serve_one_call(spec) is Status.OK
