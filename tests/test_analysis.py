"""``check(history, promises(spec))``: each rule's pass and fail case,
then whole clusters."""

from types import SimpleNamespace

import pytest

from repro import LinkSpec, ServiceCluster, ServiceSpec, Status
from repro.analysis import History, check, promises
from repro.apps import CounterApp, KVStore
from repro.core.enumerate import enumerate_services
from repro.core.messages import CallResult
from repro.core.microprotocols import ALL

TOTAL_ALL = ServiceSpec(unique=True, ordering="total", acceptance=ALL)
TOTAL = ServiceSpec(unique=True, ordering="total")
FIFO = ServiceSpec(unique=True, ordering="fifo", acceptance=2)
UNIQUE = ServiceSpec(unique=True)


def named_history(issued, executed, failed=()):
    """A history of calls named by strings.  ``issued`` maps each client
    to its calls in issue order and ``executed`` each server to the
    names it executed; a name nobody issued is an execution no call
    owns.  Every call is acked except those in ``failed``."""
    history = History()
    args = {}
    for client, names in issued.items():
        for name in names:
            args[name] = {"name": name}
            status = Status.TIMEOUT if name in failed else Status.OK
            history.end(history.invoke(client, args[name]),
                        CallResult(0, status, None))
    return history.read({
        server: SimpleNamespace(execution_log=[
            ("put", args.get(name, {"name": name})) for name in names])
        for server, names in executed.items()})


def test_identical_sequences_passes_and_fails():
    # Total order with acceptance ALL: every replica the same sequence.
    ok = check(named_history({"c": ["a", "b"]},
                             {1: ["a", "b"], 2: ["a", "b"]}),
               promises(TOTAL_ALL))
    assert ok and not ok.violations
    bad = check(named_history({"c": ["a", "b"]},
                              {1: ["a", "b"], 2: ["b", "a"]}),
                promises(TOTAL_ALL))
    assert not bad
    assert bad.violations[0].startswith("total order (§2.2, §4.4.6): "
                                        "server 1 executed call 0 and "
                                        "server 2 call 1 at apply index 0")
    with pytest.raises(AssertionError):
        bad.raise_if_failed()
    # A replica that lags behind breaks acceptance ALL, not total order.
    short = check(named_history({"c": ["a", "b"]},
                                {1: ["a", "b"], 2: ["a"]}),
                  promises(TOTAL_ALL))
    assert [v.split(" (")[0] for v in short.violations] == ["acceptance"]
    assert "not at server [2]" in short.violations[0]


def test_prefix_consistency():
    assert check(named_history({"c": ["a", "b", "c"]},
                               {1: ["a", "b", "c"], 2: ["a", "b"]}),
                 promises(TOTAL))
    assert check(named_history({"c": ["a"]}, {1: [], 2: ["a"]}),
                 promises(TOTAL))
    bad = check(named_history({"c": ["a", "x", "y", "z"]},
                              {1: ["a", "x"], 2: ["a", "y", "z"]}),
                promises(TOTAL))
    assert not bad
    assert "apply index 1" in bad.violations[0]


def test_subsequence_checker():
    # Executions no call owns may interleave with a client's calls.
    assert check(named_history({"c": ["a", "c"]},
                               {1: ["a", "b", "c", "d"]}),
                 promises(FIFO))
    assert check(named_history({}, {1: ["a"]}), promises(FIFO))
    # A call a server has not executed is not a violation (this one
    # timed out)...
    assert check(named_history({"c": ["a", "zz"]}, {1: ["a"]},
                               failed={"zz"}), promises(FIFO))
    # ...but executed-and-misordered is.
    bad = check(named_history({"c": ["c", "a"]}, {1: ["a", "b", "c"]}),
                promises(FIFO))
    assert not bad
    assert bad.violations == [
        "FIFO order (§2.2, §4.4.6): call 0 from client c executed at "
        "server 1 after its later call 1"]


def test_fifo_per_client_checker():
    clients = {"A": ["a1", "a2"], "B": ["b1", "b2"]}
    assert check(named_history(clients, {1: ["a1", "b1", "a2", "b2"],
                                         2: ["b1", "b2", "a1", "a2"]}),
                 promises(FIFO))
    result = check(named_history(clients, {1: ["a2", "a1", "b1", "b2"],
                                           2: ["a1", "a2", "b1", "b2"]}),
                   promises(FIFO))
    assert not result
    assert "client A executed at server 1" in result.violations[0]
    # Causal Order makes the same promise of a client's own calls.
    causal = ServiceSpec(unique=True, ordering="causal")
    assert not check(named_history(clients, {1: ["a2", "a1"]}),
                     promises(causal))


def test_execution_counts_checker():
    assert check(named_history({"c": ["t"]}, {1: ["t"]}),
                 promises(UNIQUE))
    low = check(named_history({"c": ["t"]}, {1: []}), promises(UNIQUE))
    assert not low
    assert "acked after executing at 0 of 1 servers" in low.violations[0]
    high = check(named_history({"c": ["t"]}, {1: ["t", "t", "t"]}),
                 promises(UNIQUE))
    assert not high
    assert high.violations == ["at most once (§2.1 Figure 1, §4.4.5): "
                               "call 0 executed 3 times at server 1"]
    # Without Unique Execution, re-execution breaks no promise.
    assert check(named_history({"c": ["t"]}, {1: ["t", "t", "t"]}),
                 promises(ServiceSpec()))


def test_every_call_needs_an_outcome():
    history = History()
    history.invoke("c", {"name": "lost"})
    waiting = history.invoke("c", {"name": "pending"})
    history.end(waiting, CallResult(1, Status.WAITING, None))
    result = check(history.read({}), promises(ServiceSpec()))
    assert result.violations == [
        "outcome (§2.1 termination): call 0 from client c has no outcome",
        "outcome (§2.1 termination): call 1 from client c has no outcome"]


def test_promises_are_defined_for_every_enumerated_spec():
    specs = enumerate_services().strict_specs
    assert len(specs) == 186
    for spec in specs:
        rules = [p.rule for p in promises(spec)]
        ordering = {"none": [], "fifo": ["FIFO order"],
                    "total": ["total order"]}[spec.ordering]
        assert rules == ["outcome", "acceptance"] + \
            ["at most once"] * spec.unique + ordering
        assert all(p.section.startswith("§") for p in promises(spec))


def test_unknown_rule_is_rejected():
    with pytest.raises(ValueError):
        check(History(), [promises(UNIQUE)[0]._replace(rule="serial")])


# ----------------------------------------------------------------------
# Cluster integration
# ----------------------------------------------------------------------

FAST = LinkSpec(delay=0.005, jitter=0.0)


def run_calls(cluster, op, args_list):
    history = History()
    for args in args_list:
        history.end(history.invoke(cluster.client, args),
                    cluster.call_and_run(op, args, extra_time=0.2))
    return history.read(cluster.dispatchers)


def test_total_order_cluster_checker_green():
    spec = ServiceSpec(unique=True, ordering="total", acceptance=3,
                       bounded=0.0)
    cluster = ServiceCluster(spec, KVStore, n_servers=3,
                             default_link=FAST)
    history = run_calls(cluster, "put",
                        [{"key": f"k{i}", "value": i} for i in range(4)])
    check(history, promises(spec)).raise_if_failed()
    assert history.executed == {pid: [0, 1, 2, 3] for pid in (1, 2, 3)}


def test_total_order_cluster_checker_catches_divergence():
    spec = ServiceSpec(unique=True, ordering="total", acceptance=2)
    cluster = ServiceCluster(spec, KVStore, n_servers=2,
                             default_link=FAST)
    args = {"key": "k", "value": 1}
    history = History()
    history.end(history.invoke(cluster.client, args),
                cluster.call_and_run("put", args, extra_time=0.2))
    # Manually corrupt one replica's log to prove detection works.
    cluster.dispatchers[2].execution_log.insert(
        0, ("put", {"key": "phantom"}))
    result = check(history.read(cluster.dispatchers), promises(spec))
    assert not result
    assert "server 2 call unmatched put" in result.violations[0]


def test_exactly_once_cluster_checker():
    spec = ServiceSpec(unique=True, acceptance=2, bounded=5.0)
    cluster = ServiceCluster(spec, CounterApp, n_servers=2,
                             default_link=FAST)
    history = run_calls(cluster, "inc",
                        [{"amount": 1, "tag": i} for i in range(3)])
    check(history, promises(spec)).raise_if_failed()
    assert history.executed == {1: [0, 1, 2], 2: [0, 1, 2]}
    # A call acked without ever executing fails acceptance.
    ghost = history.invoke(cluster.client, {"tag": "ghost"})
    history.end(ghost, CallResult(99, Status.OK, None))
    result = check(history.read(cluster.dispatchers), promises(spec))
    assert result.violations == [
        f"acceptance (§2.2, §4.4.5): call 3 from client {cluster.client} "
        "was acked after executing at 0 of 2 servers; not at server "
        "[1, 2]"]
