"""Handler order depends on the composition alone.

Every handler of a shipped micro-protocol registers at its rank in
:data:`~repro.core.microprotocols.base.HANDLER_ORDER`, so a composite
reached by a live adaptation must run exactly the chains a fresh build of
the target runs — per event, and per message-kind chain of
``MSG_FROM_NETWORK`` — and crash recovery, which relinks the adapted
composite, must not change them either.  Before the table, ties went to
whichever handler registered first, and 42 % of the legal switches left
some chain in a different order than a fresh build.

The file also pins the one ghost guard left: a detached instance's
self-rearming TIMEOUT handler cannot wire itself back into the bus.
"""

import random

from repro import Deployment, ServiceSpec
from repro.adapt import AdaptationFence
from repro.apps import KVStore
from repro.core.enumerate import enumerate_services
from repro.core.grpc import MSG_FROM_NETWORK, REPLY_FROM_SERVER
from repro.core.messages import NetOp
from repro.core.microprotocols import ReliableCommunication

SPECS = enumerate_services().strict_specs
#: Legal source compositions each target is switched into from.
SOURCES_PER_TARGET = 3
SEED = 29


def deploy(spec):
    dep = Deployment(seed=SEED)
    svc = dep.add_service("s", spec, KVStore, servers=1, clients=1)
    return dep, svc


def wiring(grpc):
    """Every event's dispatch order, and each message kind's chain.
    (Retiring an event's last handler leaves it listed, empty.)"""
    bus = grpc.bus
    order = {event: [(reg.owner, reg.handler.__name__, reg.kinds)
                     for reg in bus.registrations(event)]
             for event, names in bus.registration_table().items() if names}
    for kind in NetOp:
        order[kind] = [(reg.owner, reg.handler.__name__) for reg in
                       bus._compile_chain(MSG_FROM_NETWORK, kind)]
    return order


def roles(svc):
    """The server's and the client's composite."""
    return [svc.grpc(pid) for pid in (svc.server_pids[0], svc.client)]


def fresh_wiring(spec):
    """A fresh build of ``spec`` with the fence an adapted composite has."""
    dep, svc = deploy(spec)
    for grpc in roles(svc):
        grpc.add(AdaptationFence())
    out = [wiring(grpc) for grpc in roles(svc)]
    dep.shutdown()
    return out


def adapted(source, target):
    """A deployment built as ``source`` and live-switched to ``target``."""
    dep, svc = deploy(source)
    dep.run_scenario(dep.adapt("s", target))
    return dep, svc


def test_every_composition_adapted_into_runs_its_fresh_order():
    rng = random.Random(SEED)
    moved = []
    for target in SPECS:
        fresh = fresh_wiring(target)
        sources = rng.sample([s for s in SPECS if s != target],
                             SOURCES_PER_TARGET)
        for source in sources:
            dep, svc = adapted(source, target)
            if [wiring(grpc) for grpc in roles(svc)] != fresh:
                moved.append((source, target, "adapted"))
            for grpc in roles(svc):
                dep.crash(grpc.my_id)
                dep.recover(grpc.my_id)
            if [wiring(grpc) for grpc in roles(svc)] != fresh:
                moved.append((source, target, "recovered"))
            dep.shutdown()
    assert not moved, f"{len(moved)} switches moved an order: {moved[:3]}"


def test_fifo_atomic_gaining_unique_stores_before_the_gate_releases():
    """The switch the drift was first seen on.  Adapted, the reply chain
    ran FIFO -> Unique -> Atomic, and a crash and recovery flipped it to
    the fresh Unique -> FIFO -> Atomic; now it is the fresh order
    throughout, on the server and the client."""
    source = ServiceSpec(execution="atomic", ordering="fifo")
    dep, svc = adapted(source, source.with_(unique=True))
    expected = ["Unique_Execution", "FIFO_Order", "Atomic_Execution"]

    def reply_chains():
        return [[reg.owner for reg in
                 grpc.bus.registrations(REPLY_FROM_SERVER)]
                for grpc in roles(svc)]

    assert reply_chains() == [expected, expected]

    async def puts():
        for i in range(3):
            result = await dep.call(svc.client, "s", "put",
                                    {"key": f"k{i}", "value": i})
            assert result.ok
    dep.run_scenario(puts())
    for grpc in roles(svc):
        dep.crash(grpc.my_id)
        dep.recover(grpc.my_id)
    assert reply_chains() == [expected, expected]
    dep.shutdown()


def test_a_detached_instance_cannot_rearm_its_timer():
    """Reliable Communication and Probe Orphan re-register their TIMEOUT
    from inside its handler.  Run those handlers after the instances
    were detached — as if they were still unwinding when a switch swapped
    them out — and nothing reaches the bus; a same-named fresh instance
    still registers."""
    dep, svc = deploy(ServiceSpec(orphans="probe"))
    grpc = svc.grpc(svc.server_pids[0])
    bus = grpc.bus
    reliable = grpc.micro("Reliable_Communication")
    probe = grpc.micro("Probe_Orphan_Termination")
    reliable.detach()
    probe.detach()
    table = bus.registration_table()
    armed = bus.pending_timeouts()

    async def unwind():
        await reliable.handle_timeout()
        await probe.probe_round()
    dep.run_scenario(unwind())
    assert bus.registration_table() == table
    assert bus.pending_timeouts() == armed

    grpc.micro_protocols.remove(reliable)
    grpc.add(ReliableCommunication(reliable.retrans_timeout))
    assert bus.pending_timeouts() == armed + 1
    assert ("Reliable_Communication", "msg_from_net") in [
        (reg.owner, reg.handler.__name__)
        for reg in bus.registrations(MSG_FROM_NETWORK)]
    dep.shutdown()
