"""Differential guard over all 186 strict compositions.

Every strict configuration of the Figure-4 enumeration runs one short
seeded workload — 3 servers, 2 clients issuing 3 puts each over a
jittered link — once without loss and once with 5 % loss.  Each run
must terminate all 6 calls (asynchronous compositions redeem theirs
with ``request``), and what the schedule produced is pinned by one
SHA-256 per run over every ``NetTrace`` record's ``(time, kind, src,
dst)``, each call's ``(status, result, completion time)`` and the order
in which every server applied the puts.

This is the tier-1 slice of the liveness sweep (186 compositions x 2
clients): a composition that wedges fails the termination check, and a
change to dispatch, delivery or scheduling that moves any schedule
fails its digest.  The golden digests in
``composition_sweep_golden.json`` were recorded before handlers
declared the message kinds they act on and before arrivals started
inside their delivery; they are that implementation's output, so never
regenerate them from this tree.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import Deployment, LinkSpec
from repro.apps import KVStore
from repro.core.enumerate import enumerate_services

SPECS = enumerate_services().strict_specs
LOSSES = (0.0, 0.05)
SEED = 11
#: Virtual seconds each put holds the server, so the two clients' calls
#: overlap and the execution discipline and ordering shape the schedule.
OP_DELAY = 0.004
#: Virtual seconds each run gets; every call finishes well inside it.
HORIZON = 3.0
GOLDEN = json.loads(
    (Path(__file__).parent / "composition_sweep_golden.json").read_text())


def spec_id(spec):
    bits = [spec.call[:4], spec.orphans, spec.execution,
            "U" if spec.unique else "u", "R" if spec.reliable else "r",
            "B" if spec.bounded else "b", spec.ordering]
    return "-".join(bits)


def run(spec, loss):
    """One seeded run; returns (digest, number of finished calls)."""
    dep = Deployment(seed=SEED, default_link=LinkSpec(
        delay=0.005, jitter=0.002, loss=loss))
    svc = dep.add_service("kv", spec, KVStore, servers=3, clients=2)
    done = []

    async def lane(pid):
        grpc = svc.grpc(pid)
        for i in range(3):
            result = await dep.call(pid, "kv", "put", {
                "key": f"k{i % 2}", "value": i, "delay": OP_DELAY})
            if spec.call == "asynchronous":
                result = await grpc.request(result.id)
            done.append(f"{pid} {i} {result.status.value} "
                        f"{result.args!r} {dep.runtime.now()!r}")

    for pid in svc.client_pids:
        dep.spawn_client(pid, lane(pid), name=f"client-{pid}")
    dep.settle(HORIZON)
    lines = [f"{e.time!r} {e.kind} {e.src} {e.dst}"
             for e in dep.fabric.trace.events]
    applied = [f"{pid} {svc.app(pid).apply_log!r}"
               for pid in svc.server_pids]
    digest = hashlib.sha256(
        "\n".join(lines + done + applied).encode()).hexdigest()
    dep.shutdown()
    return digest, len(done)


@pytest.mark.parametrize("loss", LOSSES)
def test_every_composition_terminates_on_the_recorded_schedule(loss):
    assert len(SPECS) == 186
    moved, hung = [], []
    for spec in SPECS:
        name = f"{spec_id(spec)}@{loss}"
        digest, finished = run(spec, loss)
        if finished != 6:
            hung.append(f"{name}: {finished} of 6 calls finished")
        elif digest != GOLDEN[name]:
            moved.append(name)
    assert not hung, "\n".join(hung)
    assert not moved, f"{len(moved)} schedules moved: " + \
        ", ".join(moved[:10])
