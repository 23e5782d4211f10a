"""Property-based tests for ``check`` and the delta functions."""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ServiceSpec, Status
from repro.analysis import History, check, promises
from repro.core.messages import CallResult
from repro.core.microprotocols import ALL
from repro.core.microprotocols.atomic_execution import (
    apply_delta,
    state_delta,
)

seq = st.lists(st.integers(0, 9), max_size=12)
#: Just the total-order rule: the sequences below repeat calls.
TOTAL = [p for p in promises(ServiceSpec(unique=True, ordering="total"))
         if p.rule == "total order"]
FIFO = promises(ServiceSpec(unique=True, ordering="fifo"))


def history(issued, executed):
    """Client ``"c"`` issues calls 0..``issued``-1, all acked; each
    server executes the calls its list names, by issue index."""
    run = History()
    args = [{"n": n} for n in range(issued)]
    for one in args:
        run.end(run.invoke("c", one), CallResult(0, Status.OK, None))
    return run.read({server: SimpleNamespace(
        execution_log=[("put", args[n]) for n in names])
        for server, names in executed.items()})


@settings(max_examples=150, deadline=None)
@given(st.permutations(range(8)))
def test_identical_sequences_reflexive(s):
    spec = ServiceSpec(unique=True, ordering="total", acceptance=ALL)
    assert check(history(8, {1: s, 2: list(s), 3: list(s)}),
                 promises(spec))


@settings(max_examples=150, deadline=None)
@given(seq, st.integers(0, 12))
def test_prefixes_are_always_prefix_consistent(s, cut):
    assert check(history(10, {1: s, 2: s[:cut]}), TOTAL)


@settings(max_examples=150, deadline=None)
@given(seq, seq)
def test_prefix_consistency_detects_first_divergence(a, b):
    result = check(history(10, {1: a, 2: b}), TOTAL)
    shorter, longer = (a, b) if len(a) <= len(b) else (b, a)
    assert bool(result) == (longer[:len(shorter)] == shorter)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 20), max_size=15, unique=True),
       st.data())
def test_any_subset_in_order_is_a_subsequence(observed, data):
    picked = data.draw(st.lists(st.sampled_from(observed or [0]),
                                unique=True, max_size=len(observed)))
    # The client issues the picked calls in the order they appear in
    # ``observed``; the server also executes calls nobody issued.
    issued = [x for x in observed if x in set(picked)]
    run = History()
    args = {x: {"n": x} for x in observed}
    for x in issued:
        run.end(run.invoke("c", args[x]), CallResult(0, Status.OK, None))
    run.read({1: SimpleNamespace(
        execution_log=[("put", args[x]) for x in observed])})
    assert check(run, FIFO)
    # Reversing two issued calls the server executed breaks FIFO.
    if len(issued) >= 2:
        run.calls[0], run.calls[1] = run.calls[1], run.calls[0]
        assert not check(run.read({1: SimpleNamespace(
            execution_log=[("put", args[x]) for x in observed])}), FIFO)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(max_size=6),
                       st.integers() | st.text(max_size=8) | st.none(),
                       max_size=10),
       st.dictionaries(st.text(max_size=6),
                       st.integers() | st.text(max_size=8) | st.none(),
                       max_size=10))
def test_state_delta_apply_roundtrip_property(old, new):
    delta = state_delta(old, new)
    state = dict(old)
    apply_delta(state, delta)
    assert state == new


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.text(max_size=6), st.integers(), max_size=10))
def test_state_delta_of_identity_is_empty_property(state):
    assert state_delta(state, dict(state)) == {}
