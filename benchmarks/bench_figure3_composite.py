"""E3 — Figure 3: a composite protocol's event wiring.

Figure 3 depicts the composite built from RPC Main (R), Synchronous Call
(S), Bounded Termination (B) and Unique Execution (U), with the event
lists: "Msg from network -> R, U; Call from user -> R, S; Timeout -> B;
Reply from server -> U".  This benchmark assembles exactly that
composite, dumps the live registration table from the framework, checks
it against the figure, and pushes one call through it to show the wiring
works.
"""

from _common import attach, run_once, save_result

from repro import LinkSpec, ServiceCluster, ServiceSpec
from repro.apps import KVStore
from repro.bench import banner, render_table

#: Figure 3's composite: R + S + B + U (plus the always-needed
#: Collation/Acceptance completing the minimal functional set).
SPEC = ServiceSpec(call="synchronous", reliable=True, bounded=1.0,
                   unique=True)


def short(qualname: str) -> str:
    return qualname.split(".")[0]


def test_figure3_composite_wiring(benchmark):
    def experiment():
        cluster = ServiceCluster(SPEC, KVStore, n_servers=1,
                                 default_link=LinkSpec(delay=0.005,
                                                       jitter=0.0))
        grpc = cluster.grpc(1)
        table = grpc.bus.registration_table()
        result = cluster.call_and_run("put", {"key": "k", "value": 1},
                                      extra_time=0.2)
        return table, result, cluster

    table, result, cluster = run_once(benchmark, experiment)

    rendered = render_table(
        ["event", "handlers (dispatch order)"],
        [[event, ", ".join(short(h) for h in handlers)]
         for event, handlers in sorted(table.items())])
    save_result("figure3_composite", "\n".join([
        banner("Figure 3 — composite protocol event wiring",
               "R=RPCMain S=SynchronousCall B=BoundedTermination "
               "U=UniqueExecution"),
        rendered,
        "",
        f"one call through the composite: id={result.id} "
        f"status={result.status.value}"]))
    attach(benchmark, {"events": len(table)})

    msg_net = [short(h) for h in table["MSG_FROM_NETWORK"]]
    # Figure 3: message arrival dispatches to R and U — and U's duplicate
    # filter runs before R's main handler, as the paper's priorities (U=2
    # before R=3) and the handler-order table put it.  R also appears
    # earlier with its dedup pre-check, so compare against R's *last*
    # (main) position.
    last_main = len(msg_net) - 1 - msg_net[::-1].index("RPCMain")
    assert msg_net.index("UniqueExecution") < last_main
    call_user = [short(h) for h in table["CALL_FROM_USER"]]
    # Figure 3: R first (records + transmits), then S (blocks the caller).
    assert call_user.index("RPCMain") < call_user.index("SynchronousCall")
    reply = [short(h) for h in table["REPLY_FROM_SERVER"]]
    assert "UniqueExecution" in reply
    # B's TIMEOUT registration is a per-call one-shot; once the bound
    # passes, only Reliable Communication's perpetual retransmission
    # timer stays armed.
    cluster.deployment.settle(SPEC.bounded + 0.1)
    assert cluster.grpc(cluster.client).bus.pending_timeouts() == 1
    assert result.ok
