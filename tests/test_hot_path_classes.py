"""No class attribute is written on the per-message path.

CPython specializes an attribute read on the *type version* of the
object's class, and any write to a class attribute bumps that version:
every specialized ``task.state`` or ``envelope.payload`` read then
misses until the site re-specializes.  A counter kept on the class (a
``Task._next_id += 1`` per spawn, say) does that once per message.  This
module runs a small seeded deployment through calls, loss, a crash and a
recovery, and checks that the class dictionaries of the types every
message touches are exactly what they were before it started.
"""

from repro import Deployment, LinkSpec, ServiceSpec
from repro.apps import KVStore
from repro.core.events import EventBus, Registration
from repro.core.grpc import GroupRPC
from repro.core.messages import NetMsg
from repro.net import Node
from repro.net.fabric import NetworkFabric
from repro.net.message import Envelope
from repro.sim.kernel import Task, Timer

HOT_CLASSES = (Task, Timer, Envelope, NetMsg, Registration, EventBus,
               NetworkFabric, Node, GroupRPC)


def _deployment_with_loss_and_a_crash():
    dep = Deployment(seed=9, membership="oracle", default_link=LinkSpec(
        delay=0.01, jitter=0.004, loss=0.1))
    dep.add_service("kv", ServiceSpec(unique=True, acceptance=2,
                                      bounded=2.0),
                    KVStore, servers=3, clients=2)
    results = []

    async def lane(pid):
        for i in range(6):
            result = await dep.call(pid, "kv", "put",
                                    {"key": f"k{pid}-{i}", "value": i})
            results.append(result.status.value)

    handles = [dep.spawn_client(pid, lane(pid), name=f"client-{pid}")
               for pid in (101, 102)]
    dep.runtime.call_later(0.05, lambda: dep.crash(2))
    dep.runtime.call_later(0.3, lambda: dep.recover(2))

    async def main():
        for handle in handles:
            await dep.runtime.join(handle)

    dep.run_scenario(main(), extra_time=0.5)
    dep.shutdown()
    return dep, results


def test_running_a_deployment_writes_no_hot_class_attribute():
    # A first run imports and wires everything lazily resolved.
    _deployment_with_loss_and_a_crash()
    before = {cls: dict(vars(cls)) for cls in HOT_CLASSES}
    dep, results = _deployment_with_loss_and_a_crash()
    assert results.count("OK") == 12
    assert dep.metrics.value("net.drop-loss") > 0
    assert dep.metrics.value("net.crash") == 1
    for cls in HOT_CLASSES:
        assert dict(vars(cls)) == before[cls], cls.__name__
