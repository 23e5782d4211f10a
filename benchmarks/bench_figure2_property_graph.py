"""E2 — Figure 2: the semantic property taxonomy and its dependencies.

Regenerates the property/variant table and the dependency edges, then
*demonstrates* the paper's example edge ("to implement FIFO or total
ordering ... the reliability property must hold") empirically: a
hand-assembled composite with FIFO Order but no Reliable Communication
stalls under message loss, while the properly configured service
completes every call.
"""

import pytest
from _common import attach, run_once, save_result

from repro import Group, LinkSpec, Status
from repro.apps import KVStore, ServerDispatcher
from repro.bench import banner, render_table
from repro.core.grpc import GroupRPC
from repro.core.messages import NetMsg
from repro.core.microprotocols import (
    Acceptance,
    Collation,
    FIFOOrder,
    ReliableCommunication,
    RPCMain,
    SynchronousCall,
    UniqueExecution,
    last_reply,
)
from repro.core.properties import CATEGORIES, figure1_rows, figure2_edges
from repro.net import NetworkFabric, Node, UnreliableTransport
from repro.runtime import SimRuntime
from repro.sim import RandomSource
from repro.xkernel import compose_stack

LOSSY = LinkSpec(delay=0.01, jitter=0.02, loss=0.2)


def build_manual_cluster(with_reliable: bool, seed: int = 0):
    """A 2-server deployment assembled without config validation."""
    rt = SimRuntime()
    fabric = NetworkFabric(rt, rand=RandomSource(seed), default_link=LOSSY)
    group = Group("servers", [1, 2])
    grpcs, apps = {}, {}
    for pid in (1, 2, 101):
        node = Node(pid, rt, fabric)
        grpc = GroupRPC(node)
        micros = [RPCMain(), SynchronousCall()]
        if with_reliable:
            micros.append(ReliableCommunication(0.05))
            micros.append(UniqueExecution())
        micros += [FIFOOrder(), Collation(last_reply, None), Acceptance(2)]
        grpc.add(*micros)
        UnreliableTransport(node)
        node.attach(NetMsg, grpc)
        if pid != 101:
            app = KVStore()
            compose_stack(ServerDispatcher(node, app), grpc)
            apps[pid] = app
        node.start()
        grpcs[pid] = grpc
    return rt, grpcs, group, apps


def drive_calls(rt, grpc, group, n_calls: int, deadline: float):
    """Issue n sequential calls; count how many completed by deadline."""
    done = []

    async def client():
        for i in range(n_calls):
            result = await grpc.call("put", {"key": f"k{i}", "value": i},
                                     group)
            done.append(result.status)

    grpc.node.spawn(client())
    rt.kernel.run_until(deadline)
    return len(done)


def test_figure2_property_graph(benchmark):
    def experiment():
        outcomes = {}
        for with_reliable in (False, True):
            rt, grpcs, group, apps = build_manual_cluster(with_reliable)
            outcomes[with_reliable] = drive_calls(
                rt, grpcs[101], group, n_calls=10, deadline=30.0)
        return outcomes

    outcomes = run_once(benchmark, experiment)

    taxonomy = render_table(
        ["property", "scope", "variants"],
        [[c.name, "group RPC" if c.group_only else "RPC",
          " | ".join(c.variants)] for c in CATEGORIES])
    edges = render_table(
        ["dependent property", "requires"],
        [[a, b] for a, b in figure2_edges()])
    demo = render_table(
        ["configuration", "calls completed of 10 (30s budget, 20% loss)"],
        [["FIFO Order WITHOUT Reliable Communication",
          outcomes[False]],
         ["FIFO Order WITH Reliable Communication", outcomes[True]]])
    save_result("figure2_property_graph", "\n".join([
        banner("Figure 2 — semantic properties of group RPC",
               "taxonomy + dependency edges + empirical edge check"),
        taxonomy, "", edges, "",
        "Empirical check of the ordering -> reliability edge:", demo]))
    attach(benchmark, {"completed_without_reliable": outcomes[False],
                       "completed_with_reliable": outcomes[True]})

    # The dependency is real: without reliability the FIFO gate starves
    # after the first lost call; with it, everything completes.
    assert outcomes[True] == 10
    assert outcomes[False] < 10


def test_figure1_static_matrix(benchmark):
    rows = run_once(benchmark, figure1_rows)
    assert rows == [("at least once", "NO", "NO"),
                    ("exactly once", "YES", "NO"),
                    ("at most once", "YES", "YES")]
