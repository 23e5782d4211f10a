"""Command-line entry point: ``python -m repro <command>``.

Commands
--------

``info``        library version, micro-protocol catalog, presets
``enumerate``   Figure-4 service counts (the paper's 198)
``demo``        run a quick replicated-KV demo on the simulator
``trace``       run one traced call and print its span tree and when a
                server first executed it, or — given a configuration
                preset — run a traced workload and dump the span tree as
                JSONL (``--flame`` for the human-readable tree)
``report``      run a preset deployment with the observatory enabled
                (Zipfian workload + an injected server crash) and print
                the one-page health report
``obslint``     run the static observability lints (metric-namespace
                catalog and its emitters)
``adapt``       live-adaptation demo: switch a running Total Order
                group to FIFO under load (and back) with zero lost
                calls, printing per-phase latency and the switch
                reports
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Any, List, Optional

import repro
from repro import LinkSpec, ServiceCluster, ServiceSpec, read_optimized
from repro.apps import KVStore
from repro.bench import render_table
from repro.core.config import (
    CALL_CHOICES,
    EXECUTION_CHOICES,
    ORDERING_CHOICES,
    ORPHAN_CHOICES,
    at_least_once,
    at_most_once,
    exactly_once,
    replicated_state_machine,
)
from repro.core.enumerate import enumerate_services

#: Presets the trace subcommand can run (name -> spec factory taking the
#: server count, which only the replicated-state-machine preset uses).
TRACE_CONFIGS = {
    "read-optimized": lambda n: read_optimized(),
    "at-least-once": lambda n: at_least_once(),
    "exactly-once": lambda n: exactly_once(),
    "at-most-once": lambda n: at_most_once(),
    "replicated-state-machine": lambda n: replicated_state_machine(n),
}


def cmd_info(args: argparse.Namespace) -> int:
    print(f"repro {repro.__version__} — configurable group RPC "
          f"(Hiltunen & Schlichting, ICDCS 1995)")
    print()
    spec = ServiceSpec(unique=True, execution="atomic", ordering="total",
                       orphans="terminate")
    print("micro-protocol catalog (a maximal legal composition):")
    for name in spec.micro_protocol_names():
        print(f"  || {name}")
    print()
    print(render_table(
        ["property", "choices"],
        [["call semantics", " | ".join(CALL_CHOICES)],
         ["orphan handling", " | ".join(ORPHAN_CHOICES)],
         ["execution discipline", " | ".join(EXECUTION_CHOICES)],
         ["ordering", " | ".join(ORDERING_CHOICES)]]))
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    result = enumerate_services()
    print(render_table(
        ["quantity", "value"],
        [["cluster combinations (the paper's '11')",
          result.cluster_choices],
         ["paper count (2 x 3 x 3 x 11)", result.paper_count],
         ["strict count (every Figure-4 edge)", result.strict_count]]))
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    cluster = ServiceCluster(read_optimized(timebound=1.0), KVStore,
                             n_servers=args.servers,
                             default_link=LinkSpec(delay=0.01,
                                                   jitter=0.005))
    print(f"{args.servers}-replica KV store, Section-5 read-optimized "
          f"configuration")
    for i in range(args.calls):
        result = cluster.call_and_run("put",
                                      {"key": f"k{i}", "value": i})
        print(f"  put k{i}={i}: {result.status.value} "
              f"(t={cluster.deployment.runtime.now() * 1000:.1f} ms)")
    result = cluster.call_and_run("keys", {})
    print(f"  keys: {result.args}")
    sends = cluster.deployment.metrics.value("net.send")
    print(f"messages on the wire: {sends}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    if args.config is not None:
        return _trace_config(args)
    # Total Order forbids Bounded Termination (Figure 4).
    bounded = 0.0 if args.ordering == "total" else 5.0
    spec = ServiceSpec(acceptance=3, bounded=bounded, unique=True,
                       ordering=args.ordering)
    cluster = ServiceCluster(spec, KVStore, n_servers=3,
                             default_link=LinkSpec(delay=0.01,
                                                   jitter=0.005),
                             obs=True)
    result = cluster.call_and_run("put", {"key": "traced", "value": 1},
                                  extra_time=0.3)
    spans = cluster.deployment.obs.spans
    root = next(s for s in spans if s.name == "rpc.call")
    executed = min(s.start for s in spans if s.trace == root.trace
                   and s.name == "server.execute")
    print(cluster.deployment.format_flame(root.trace))
    print(f"\nfirst execution after {(executed - root.start) * 1000:.2f} "
          f"ms; status {result.status.value}")
    return 0


def _trace_config(args: argparse.Namespace) -> int:
    """Run a traced workload under a preset and dump the span tree."""
    spec = TRACE_CONFIGS[args.config](args.servers)
    cluster = ServiceCluster(spec, KVStore, n_servers=args.servers,
                             default_link=LinkSpec(delay=0.01,
                                                   jitter=0.005),
                             obs=True)
    for i in range(args.calls):
        result = cluster.call_and_run("put",
                                      {"key": f"k{i}", "value": i},
                                      extra_time=0.2)
        if not result.ok:
            print(f"call {i} ended {result.status.value}",
                  file=sys.stderr)
    if args.flame:
        print(cluster.deployment.format_flame())
    else:
        cluster.deployment.export_trace(sys.stdout)
    return 0


#: Deployments the report subcommand can observe.
REPORT_CONFIGS = ("sharded-kv",)


def cmd_report(args: argparse.Namespace) -> int:
    """Run a preset under the observatory and print the health report.

    The ``sharded-kv`` preset deploys N elastic shards (two servers
    each) under heartbeat membership with automatic rebinding, drives a
    Zipfian keyed workload through the placement plane, then crashes
    one server mid-run so the report shows the whole causal chain: the
    suspicion flip, the rebind, the latency excursion in the SLO
    windows, and the flight-recorder dump trail.  A final act grows the
    ring by one shard and kills the migration coordinator at catch-up,
    so the report's *placement takeover chain* section shows the
    replicated-view failover end to end: the persisted proposal, the
    successor's takeover, and the committed epoch.
    """
    from repro.core.deployment import Deployment
    from repro.obs.observatory import ObservatoryConfig
    from repro.placement import build_elastic_kv

    config = ObservatoryConfig(
        slo_thresholds={95: args.slo_p95, 99: args.slo_p99},
        slo_min_samples=16)
    # A deliberately sluggish failure detector (~0.75 s to suspicion):
    # the post-crash stall must outlast the p99 bound for the report to
    # show the breach -> flight-dump chain.
    deployment = Deployment(
        seed=args.seed, membership="heartbeat",
        heartbeat_interval=0.25, suspect_after=3,
        default_link=LinkSpec(delay=0.01, jitter=0.005),
        observatory=config)
    # acceptance=2 with two servers: a call needs both replies, so after
    # the injected crash the calls to the victim's shard stall against
    # the dead replica until the suspicion flip rebinds the group — a
    # visible latency excursion for the SLO windows to catch.  Two
    # client pids = two coordinator candidates, so the final act's
    # coordinator kill has a successor to elect.
    spec = ServiceSpec(reliable=True, unique=True, execution="serial",
                       bounded=2.0, acceptance=2)
    plane, kv = build_elastic_kv(deployment, args.shards, spec=spec,
                                 servers_per_shard=2, clients=2)
    deployment.auto_rebind(plane=plane)

    rng = random.Random(args.seed)
    keys = [f"key-{i:04d}" for i in range(args.keys)]
    weights = [1.0 / (rank + 1) for rank in range(args.keys)]  # Zipf s=1

    async def burst(n: int) -> None:
        for _ in range(n):
            key = rng.choices(keys, weights)[0]
            await kv.put(key, rng.randrange(1 << 16))

    deployment.run_scenario(burst(args.ops // 2))
    victim = deployment.services["shard-0"].server_pids[0]
    deployment.crash(victim)
    # No settling: the next calls race the failure detector, so the
    # first ones time out against the dead replica (SLO breach -> flight
    # dump) until suspicion flips and the rebind takes hold.
    deployment.run_scenario(burst(args.ops - args.ops // 2),
                            extra_time=0.2)

    # Final act: grow the ring and kill the coordinator at catch-up.
    # The successor resumes from the replicated plan; the report's
    # takeover-chain section narrates propose -> takeover -> commit.
    coordinator = plane.coordinator
    fired: List[str] = []

    async def kill_coordinator() -> None:
        deployment.crash(coordinator)

    def at_phase(phase: str) -> None:
        if phase == "catchup" and not fired:
            fired.append(phase)
            deployment.runtime.spawn(kill_coordinator(),
                                     name="coordinator-killer",
                                     daemon=True)

    plane.phase_hook = at_phase

    async def grow() -> None:
        await plane.add_shard()

    deployment.run_scenario(grow(), extra_time=0.3)
    deployment.settle(0.5)
    deployment.publish_runtime_stats()
    print(deployment.render_report())
    deployment.shutdown()
    return 0


def cmd_obslint(args: argparse.Namespace) -> int:
    """Static observability lints; exit 1 on any violation."""
    from repro.analysis.obslint import (check_metric_emitters,
                                        check_metric_names)
    results = [check_metric_emitters()]
    # Validate a live registry against the namespace catalog: a tiny
    # observatory-enabled deployment exercises every instrument family.
    from repro.core.deployment import Deployment
    deployment = Deployment(membership="oracle", observatory=True)
    service = deployment.add_service("lint", ServiceSpec(), KVStore,
                                     servers=2)
    service.call_and_run("put", {"key": "k", "value": 1})
    deployment.publish_runtime_stats()
    snapshot = deployment.metrics.snapshot()
    names = [name for kind in snapshot.values() for name in kind]
    results.append(check_metric_names(names))
    deployment.shutdown()
    failed = False
    for result in results:
        status = "ok" if result.ok else "FAIL"
        print(f"{result.name}: {status}")
        for violation in result.violations:
            print(f"  {violation}", file=sys.stderr)
        failed = failed or not result.ok
    return 1 if failed else 0


#: Scenarios the adapt subcommand can run.
ADAPT_CONFIGS = ("total-to-fifo",)


def cmd_adapt(args: argparse.Namespace) -> int:
    """Live-adaptation demo on a running group.

    Deploys a Total Order group, slows its ordering leader down (a
    performance failure), then reconfigures the *running* service to
    FIFO delivery mid-workload — no restart, no lost call — and back to
    Total Order after the leader heals.  The per-phase latencies show
    why: under Total Order every call pays the slow leader's ORDER
    round; FIFO with a quorum acceptance is answered by the fast
    replicas.
    """
    from repro.core.deployment import Deployment

    link = LinkSpec(delay=0.01, jitter=0.0)
    deployment = Deployment(seed=args.seed, default_link=link)
    spec = ServiceSpec(reliable=True, unique=True, ordering="total",
                       acceptance=min(2, args.servers))
    svc = deployment.add_service("adaptive", spec, KVStore,
                                 servers=args.servers)
    client = svc.client
    leader = max(svc.server_pids)      # the paper's leader rule
    print(f"{args.servers}-server group, Total Order, "
          f"acceptance {spec.acceptance}; leader pid {leader}")

    async def burst(label: str) -> None:
        ok = 0
        start = deployment.runtime.now()
        for i in range(args.calls):
            result = await deployment.call(client, "adaptive", "put",
                                           {"key": f"k{i}", "value": i})
            ok += bool(result.ok)
        per_call = (deployment.runtime.now() - start) / args.calls
        print(f"  {label:<26} {ok}/{args.calls} ok  "
              f"{per_call * 1000:7.2f} ms/call")

    def show(report: Any) -> None:
        print(f"  -> epoch {report.epoch}: "
              f"{' || '.join(report.to_protocols)}")
        print(f"     kept {len(report.kept)} running instances, "
              f"parked {report.parked} calls, "
              f"drained in {report.drain_s * 1000:.1f} ms (virtual)")

    async def scenario() -> None:
        await burst("total order, healthy")
        deployment.make_slow(leader, args.slow)
        await burst("total order, slow leader")
        show(await deployment.adapt(
            "adaptive", svc.spec.with_(ordering="fifo"),
            reason="demo: leader slow"))
        await burst("fifo, slow leader")
        deployment.fabric.set_links_to(leader, link)
        show(await deployment.adapt(
            "adaptive", svc.spec.with_(ordering="total"),
            reason="demo: leader healed"))
        await burst("total order, healed")

    deployment.run_scenario(scenario(), extra_time=0.5)
    dropped = deployment.metrics.counter("adapt.fence.dropped").value
    switches = deployment.metrics.counter("adapt.switches").value
    print(f"switches: {switches}; stale cross-epoch messages fenced: "
          f"{dropped}")
    deployment.shutdown()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Configurable group RPC from micro-protocols "
                    "(ICDCS 1995 reproduction)")
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("info", help="version and micro-protocol catalog")
    sub.add_parser("enumerate", help="Figure-4 service counts")

    demo = sub.add_parser("demo", help="run a quick replicated-KV demo")
    demo.add_argument("--servers", type=int, default=3)
    demo.add_argument("--calls", type=int, default=3)

    trace = sub.add_parser(
        "trace",
        help="trace one call's span tree, or dump a configuration's "
             "span-tree trace as JSONL")
    trace.add_argument("config", nargs="?", default=None,
                       choices=sorted(TRACE_CONFIGS),
                       help="preset to run with the obs layer on; "
                            "omit for one call's span tree")
    trace.add_argument("--ordering", default="none",
                       choices=["none", "fifo", "total", "causal"])
    trace.add_argument("--servers", type=int, default=3)
    trace.add_argument("--calls", type=int, default=2)
    trace.add_argument("--flame", action="store_true",
                       help="print the human-readable span tree instead "
                            "of JSONL")

    report = sub.add_parser(
        "report",
        help="run a preset under the observatory and print the "
             "one-page deployment health report")
    report.add_argument("config", nargs="?", default="sharded-kv",
                        choices=sorted(REPORT_CONFIGS))
    report.add_argument("--shards", type=int, default=3)
    report.add_argument("--keys", type=int, default=64)
    report.add_argument("--ops", type=int, default=120)
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--slo-p95", type=float, default=0.25)
    report.add_argument("--slo-p99", type=float, default=0.5)

    sub.add_parser("obslint",
                   help="static observability lints (metric "
                        "namespaces and their emitters)")

    adapt = sub.add_parser(
        "adapt",
        help="live-adaptation demo: reconfigure a running Total Order "
             "group to FIFO under load and back, zero lost calls")
    adapt.add_argument("config", nargs="?", default="total-to-fifo",
                       choices=sorted(ADAPT_CONFIGS))
    adapt.add_argument("--servers", type=int, default=3)
    adapt.add_argument("--calls", type=int, default=8,
                       help="calls per workload phase")
    adapt.add_argument("--slow", type=float, default=0.25,
                       help="injected one-way delay toward the leader "
                            "(virtual seconds)")
    adapt.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    handlers = {"info": cmd_info, "enumerate": cmd_enumerate,
                "demo": cmd_demo, "trace": cmd_trace,
                "report": cmd_report, "obslint": cmd_obslint,
                "adapt": cmd_adapt}
    if args.command is None:
        parser.print_help()
        return 2
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
