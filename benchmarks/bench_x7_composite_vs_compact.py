"""X7 — composition overhead: composite gRPC vs the compact P2P protocol.

Section 4.1 predicts that point-to-point RPC "would likely be implemented
separately to obtain a more compact and efficient protocol".  This
ablation quantifies the prediction: the same exactly-once synchronous
semantics between one client and one server, implemented (a) by the full
micro-protocol composite configured for a group of one and (b) by the
hand-fused :class:`~repro.core.p2p.PointToPointRPC`.

Expected shape: identical simulated latency (the protocols exchange the
same messages) but a clear CPU-per-call gap — the price of the event bus,
handler dispatch and HOLD bookkeeping, i.e. the cost of configurability.
"""

import time

from _common import attach, run_once, save_result

from repro import LinkSpec, ServiceCluster, Status
from repro.apps import KVStore, ServerDispatcher
from repro.bench import banner, render_table
from repro.core.config import exactly_once
from repro.core.p2p import P2PMsg, PointToPointRPC
from repro.net import NetworkFabric, Node, UnreliableTransport
from repro.runtime import SimRuntime
from repro.sim import RandomSource
from repro.xkernel import TypeDemux, compose_stack

LINK = LinkSpec(delay=0.01, jitter=0.0)
CALLS = 300


def run_composite():
    cluster = ServiceCluster(exactly_once(acceptance=1, bounded=0.0),
                             KVStore, n_servers=1, seed=0,
                             default_link=LINK, keep_trace=False)
    latencies = []

    async def client():
        for i in range(CALLS):
            t0 = cluster.deployment.runtime.now()
            result = await cluster.call(cluster.client, "put",
                                        {"key": f"k{i % 8}", "value": i})
            assert result.status is Status.OK
            latencies.append(cluster.deployment.runtime.now() - t0)

    task = cluster.spawn_client(cluster.client, client())
    wall0 = time.perf_counter()
    cluster.deployment.run_scenario(_join(cluster.deployment.runtime, task))
    wall = time.perf_counter() - wall0
    return latencies, wall


def run_compact():
    rt = SimRuntime()
    fabric = NetworkFabric(rt, rand=RandomSource(0), default_link=LINK)
    fabric.trace.keep_events = False
    endpoints = {}
    for pid in (1, 101):
        node = Node(pid, rt, fabric)
        p2p = PointToPointRPC(node, retrans_timeout=0.05)
        demux = TypeDemux(f"demux@{pid}")
        compose_stack(demux, UnreliableTransport(node))
        demux.attach(P2PMsg, p2p)
        if pid == 1:
            compose_stack(ServerDispatcher(node, KVStore()), p2p)
        node.start()
        endpoints[pid] = p2p
    latencies = []

    async def client():
        for i in range(CALLS):
            t0 = rt.now()
            result = await endpoints[101].call(
                "put", {"key": f"k{i % 8}", "value": i}, 1)
            assert result.status is Status.OK
            latencies.append(rt.now() - t0)

    task = fabric.node(101).spawn(client())
    wall0 = time.perf_counter()
    rt.run(_join(rt, task), shutdown=False)
    wall = time.perf_counter() - wall0
    return latencies, wall


def _join(runtime, task):
    async def waiter():
        await runtime.join(task)
    return waiter()


def test_x7_composite_vs_compact(benchmark):
    def experiment():
        # Best-of-3 wall times: one-shot wall clocks are too noisy when
        # the whole benchmark suite shares the CPU.
        comp_runs = [run_composite() for _ in range(3)]
        compact_runs = [run_compact() for _ in range(3)]
        comp_lat = comp_runs[0][0]
        compact_lat = compact_runs[0][0]
        comp_wall = min(wall for _, wall in comp_runs)
        compact_wall = min(wall for _, wall in compact_runs)
        return comp_lat, comp_wall, compact_lat, compact_wall

    comp_lat, comp_wall, compact_lat, compact_wall = \
        run_once(benchmark, experiment)

    comp_mean = sum(comp_lat) / len(comp_lat) * 1000
    compact_mean = sum(compact_lat) / len(compact_lat) * 1000
    comp_cpu = comp_wall / CALLS * 1e6
    compact_cpu = compact_wall / CALLS * 1e6
    table = render_table(
        ["implementation", "sim mean ms", "cpu us/call"],
        [["composite gRPC (7 micro-protocols, group of 1)",
          f"{comp_mean:.2f}", f"{comp_cpu:.0f}"],
         ["compact point-to-point (hand-fused)",
          f"{compact_mean:.2f}", f"{compact_cpu:.0f}"],
         ["composition overhead", "-",
          f"{comp_cpu / compact_cpu:.1f}x"]])
    save_result("x7_composite_vs_compact", "\n".join([
        banner("X7 — the price of configurability",
               f"{CALLS} exactly-once calls, 1 client, 1 server"),
        table]))
    attach(benchmark, {"composite_cpu_us": round(comp_cpu),
                       "compact_cpu_us": round(compact_cpu)})

    # Same wire behavior: simulated latency within 15%.
    assert abs(comp_mean - compact_mean) / compact_mean < 0.15
    # The compact protocol is cheaper per call in real CPU terms.
    assert compact_cpu < comp_cpu
