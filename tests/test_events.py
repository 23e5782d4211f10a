"""Unit tests for the event framework (register/trigger/CANCEL/TIMEOUT)."""

from functools import partial

import pytest

from repro.core.events import CANCEL, LOWEST_PRIORITY, TIMEOUT, EventBus
from repro.errors import KernelError
from repro.runtime import SimRuntime


def make_bus():
    rt = SimRuntime()
    return rt, EventBus(rt)


def test_trigger_runs_handlers_in_priority_order():
    rt, bus = make_bus()
    order = []

    async def h1(x):
        order.append(("h1", x))

    async def h2(x):
        order.append(("h2", x))

    async def h3(x):
        order.append(("h3", x))

    bus.register("E", h3)          # default: lowest, runs last
    bus.register("E", h1, 1)
    bus.register("E", h2, 2)

    async def main():
        completed = await bus.trigger("E", 42)
        assert completed

    rt.run(main())
    assert order == [("h1", 42), ("h2", 42), ("h3", 42)]


def test_equal_priority_runs_in_registration_order():
    rt, bus = make_bus()
    order = []

    async def a():
        order.append("a")

    async def b():
        order.append("b")

    bus.register("E", a, 2)
    bus.register("E", b, 2)

    rt.run(bus.trigger("E"))
    assert order == ["a", "b"]


def test_trigger_with_no_handlers_is_noop():
    rt, bus = make_bus()

    async def main():
        assert await bus.trigger("GHOST") is True

    rt.run(main())


def test_cancel_event_skips_remaining_handlers():
    rt, bus = make_bus()
    order = []

    async def first():
        order.append("first")
        return CANCEL

    async def second():
        order.append("second")

    bus.register("E", first, 1)
    bus.register("E", second, 2)

    async def main():
        completed = await bus.trigger("E")
        assert not completed

    rt.run(main())
    assert order == ["first"]


def test_nested_trigger_cancellation_is_scoped():
    rt, bus = make_bus()
    order = []

    async def inner_handler():
        order.append("inner")
        return CANCEL       # cancels only the inner dispatch

    async def outer_first():
        order.append("outer-first")
        completed = await bus.trigger("INNER")
        assert not completed

    async def outer_second():
        order.append("outer-second")

    bus.register("INNER", inner_handler)
    bus.register("OUTER", outer_first, 1)
    bus.register("OUTER", outer_second, 2)

    async def main():
        assert await bus.trigger("OUTER") is True

    rt.run(main())
    assert order == ["outer-first", "inner", "outer-second"]


def test_concurrent_dispatches_do_not_cross_cancel():
    from repro.sim import sleep, spawn

    rt, bus = make_bus()
    order = []

    async def slow_handler(tag):
        order.append(f"start-{tag}")
        await rt.sleep(1.0)
        order.append(f"end-{tag}")
        if tag == "a":
            return CANCEL

    async def follower(tag):
        order.append(f"follower-{tag}")

    bus.register("E", slow_handler, 1)
    bus.register("E", follower, 2)

    async def main():
        t1 = await spawn(bus.trigger("E", "a"))
        t2 = await spawn(bus.trigger("E", "b"))
        assert await t1.join() is False   # "a" cancelled its own chain
        assert await t2.join() is True    # "b" unaffected

    rt.run(main())
    assert "follower-b" in order and "follower-a" not in order


def test_deregister_removes_handler():
    rt, bus = make_bus()
    calls = []

    async def h():
        calls.append(1)

    bus.register("E", h)
    rt.run(bus.trigger("E"))
    assert bus.deregister("E", h) is True
    assert bus.deregister("E", h) is False
    rt.run(bus.trigger("E"))
    assert calls == [1]


def test_registration_during_dispatch_takes_effect_next_time():
    rt, bus = make_bus()
    calls = []

    async def late():
        calls.append("late")

    async def installer():
        calls.append("installer")
        bus.register("E", late, 5)

    bus.register("E", installer, 1)

    async def main():
        await bus.trigger("E")
        assert calls == ["installer"]   # snapshot: late not run this time
        await bus.trigger("E")

    rt.run(main())
    assert calls == ["installer", "installer", "late"]


def test_timeout_is_one_shot():
    rt, bus = make_bus()
    fired = []

    async def on_timeout():
        fired.append(rt.now())

    bus.register(TIMEOUT, on_timeout, 2.0)
    assert bus.pending_timeouts() == 1
    rt.kernel.run_until(10.0)
    assert fired == [2.0]
    assert bus.pending_timeouts() == 0


def test_timeout_requires_interval():
    rt, bus = make_bus()

    async def on_timeout():
        pass

    with pytest.raises(KernelError):
        bus.register(TIMEOUT, on_timeout)


def test_timeout_rearm_gives_periodic_behavior():
    rt, bus = make_bus()
    fired = []

    async def on_timeout():
        fired.append(rt.now())
        if len(fired) < 3:
            bus.register(TIMEOUT, on_timeout, 1.0)

    bus.register(TIMEOUT, on_timeout, 1.0)
    rt.kernel.run_until(10.0)
    assert fired == [1.0, 2.0, 3.0]


def test_timeout_deregister_cancels_pending():
    rt, bus = make_bus()
    fired = []

    async def on_timeout():
        fired.append(1)

    bus.register(TIMEOUT, on_timeout, 1.0)
    assert bus.deregister(TIMEOUT, on_timeout) is True
    rt.kernel.run_until(5.0)
    assert fired == []


def test_independent_timeouts_fire_independently():
    rt, bus = make_bus()
    fired = []

    async def t1():
        fired.append(("t1", rt.now()))

    async def t2():
        fired.append(("t2", rt.now()))

    bus.register(TIMEOUT, t1, 3.0)
    bus.register(TIMEOUT, t2, 1.0)
    rt.kernel.run_until(5.0)
    assert fired == [("t2", 1.0), ("t1", 3.0)]


def test_clear_disarms_pending_timeouts():
    """Crash teardown: ``clear()`` drops the wiring and every armed
    TIMEOUT with it."""
    rt, bus = make_bus()
    fired = []

    async def on_timeout():
        fired.append(1)

    bus.register(TIMEOUT, on_timeout, 1.0)
    bus.register(TIMEOUT, on_timeout, 2.0)
    bus.clear()
    rt.kernel.run_until(5.0)
    assert fired == []
    assert bus.pending_timeouts() == 0


def test_registration_table_lists_handler_names():
    rt, bus = make_bus()

    async def alpha():
        pass

    async def beta():
        pass

    bus.register("E", beta, 2)
    bus.register("E", alpha, 1)
    table = bus.registration_table()
    names = table["E"]
    assert names[0].endswith("alpha")
    assert names[1].endswith("beta")


def test_default_priority_is_lowest():
    rt, bus = make_bus()

    async def h():
        pass

    reg = bus.register("E", h)
    assert reg.priority == LOWEST_PRIORITY


# ---------------------------------------------------------------------------
# The profiler/recorder seam: what an instrumented bus promises outsiders
# ---------------------------------------------------------------------------

class SeamProfiler:
    """Records every call the bus makes on the runtime's profiler."""

    def __init__(self):
        self.calls = []

    def on_step(self, task):
        pass

    def handler_enter(self, task_key, owner, handler):
        self.calls.append(("enter", task_key, owner, handler))

    def handler_exit(self, task_key, duration):
        self.calls.append(("exit", task_key, duration))


def make_profiled_bus():
    rt = SimRuntime()
    prof = SeamProfiler()
    rt.attach_profiler(prof)
    return rt, EventBus(rt), prof


def test_trigger_brackets_each_handler_once():
    rt, bus, prof = make_profiled_bus()

    async def first(x):
        pass

    async def second(x):
        await rt.sleep(0.25)

    async def third(x):
        pass

    for prio, handler in enumerate((first, second, third)):
        bus.register("E", handler, prio, owner=f"mp{prio}")
    keys = []

    async def main():
        keys.append(id(rt.current_handle_nowait()))
        assert await bus.trigger("E", 7)

    rt.run(main())
    key = keys[0]
    assert prof.calls == [
        ("enter", key, "mp0", first.__qualname__), ("exit", key, 0.0),
        ("enter", key, "mp1", second.__qualname__), ("exit", key, 0.25),
        ("enter", key, "mp2", third.__qualname__), ("exit", key, 0.0)]
    assert first.__qualname__.endswith(".<locals>.first")


def test_nested_triggers_nest_their_brackets():
    rt, bus, prof = make_profiled_bus()

    async def outer():
        await bus.trigger("INNER")

    async def inner():
        await rt.sleep(0.5)

    async def after():
        pass

    bus.register("OUTER", outer, 1, owner="a")
    bus.register("OUTER", after, 2, owner="a")
    bus.register("INNER", inner, 1, owner="b")
    rt.run(bus.trigger("OUTER"))
    shape = [(c[0], c[2]) for c in prof.calls]
    assert shape == [("enter", "a"), ("enter", "b"), ("exit", 0.5),
                     ("exit", 0.5), ("enter", "a"), ("exit", 0.0)]
    assert len({c[1] for c in prof.calls}) == 1      # one task throughout


def test_concurrent_and_timeout_dispatch_use_the_same_bracket():
    rt, bus, prof = make_profiled_bus()

    async def slow():
        await rt.sleep(1.0)

    async def quick():
        pass

    async def expired():
        await rt.sleep(0.5)

    bus.register("E", slow, 1, owner="s")
    bus.register("E", quick, 2, owner="q")
    rt.run(bus.trigger_concurrent("E"))
    enters = [c for c in prof.calls if c[0] == "enter"]
    exits = [c for c in prof.calls if c[0] == "exit"]
    assert sorted(c[2] for c in enters) == ["q", "s"]
    assert sorted(c[2] for c in exits) == [0.0, 1.0]
    assert len({c[1] for c in enters}) == 2          # a task per handler

    prof.calls.clear()
    bus.register(TIMEOUT, expired, 2.0, owner="t")
    rt.kernel.run_until(10.0)
    assert [(c[0], c[2]) for c in prof.calls] == [("enter", "t"),
                                                  ("exit", 0.5)]
    assert prof.calls[0][3].endswith("expired")


def test_raising_handler_still_gets_exactly_one_exit():
    rt, bus, prof = make_profiled_bus()

    async def boom():
        raise ValueError("boom")

    async def never():
        raise AssertionError("ran after a raising handler")

    bus.register("E", boom, 1, owner="b")
    bus.register("E", never, 2, owner="n")
    main = rt.spawn(bus.trigger("E"), name="main")
    rt.run_until_idle(strict=False)
    assert isinstance(main.exception, ValueError)
    assert [(c[0], c[2]) for c in prof.calls] == [("enter", "b"),
                                                  ("exit", 0.0)]


def test_cancel_event_skips_the_bracket_for_the_rest():
    rt, bus, prof = make_profiled_bus()

    async def canceller():
        return CANCEL

    async def skipped():
        raise AssertionError("ran after CANCEL")

    bus.register("E", canceller, 1, owner="c")
    bus.register("E", skipped, 2, owner="s")

    async def main():
        assert await bus.trigger("E") is False

    rt.run(main())
    assert [(c[0], c[2]) for c in prof.calls] == [("enter", "c"),
                                                  ("exit", 0.0)]


def test_recorder_sees_start_end_of_each_handler():
    """A chain whose middle handler sleeps 5 ms: the (start, duration,
    cancelled) triples are the ones the pre-merge traced loop — which
    read the clock before and after every handler — recorded."""
    from repro.obs import Recorder

    rt = SimRuntime()
    rec = Recorder()
    rt.attach_obs(rec)
    bus = EventBus(rt)

    async def first():
        pass

    async def middle():
        await rt.sleep(0.005)

    async def last():
        return CANCEL

    for prio, handler in enumerate((first, middle, last)):
        bus.register("E", handler, prio, owner=f"mp{prio}")

    async def main():
        await rt.sleep(1.0)
        await bus.trigger("E")

    rt.run(main())
    records = [e for e in rec.events if e.kind == "handler"]
    assert [(e.time, e.fields["dur"], e.fields["cancelled"],
             e.fields["owner"], e.fields["priority"]) for e in records] == [
        (1.0, 0.0, False, "mp0", 0.0),
        (1.0, 1.005 - 1.0, False, "mp1", 1.0),
        (1.005, 0.0, True, "mp2", 2.0)]


def test_handler_names_are_resolved_at_registration():
    """A bound method of an object whose ``__repr__`` raises registers
    and dispatches with profiler *and* recorder attached: naming a
    handler never formats it (only a callable without ``__qualname__``
    falls back to ``repr``, once, when it registers)."""
    from repro.obs import Recorder

    class Unprintable:
        def __init__(self):
            self.hits = 0

        def __repr__(self):
            raise RuntimeError("repr() on the dispatch path")

        async def handle(self):
            self.hits += 1

    class Nameless:
        def __init__(self):
            self.reprs = 0

        def __repr__(self):
            self.reprs += 1
            return "<nameless>"

        async def __call__(self):
            pass

    rt = SimRuntime()
    prof = SeamProfiler()
    rt.attach_profiler(prof)
    rt.attach_obs(Recorder())
    bus = EventBus(rt)
    target, nameless = Unprintable(), Nameless()
    reg = bus.register("E", target.handle, 1, owner="u")
    bus.register("E", nameless, 2)
    bus.register(TIMEOUT, target.handle, 1.0, owner="u")
    assert reg.name == ("test_handler_names_are_resolved_at_registration"
                        ".<locals>.Unprintable.handle")
    assert bus.registration_table()["E"] == [reg.name, "<nameless>"]

    async def main():
        for _ in range(3):
            await bus.trigger("E")

    rt.run(main())
    rt.kernel.run_until(5.0)
    assert target.hits == 4
    assert nameless.reprs == 1
    assert [c[3] for c in prof.calls if c[0] == "enter"].count(
        "<nameless>") == 3
    assert bus.deregister("E", target.handle)


# ---------------------------------------------------------------------------
# CANCEL ends the dispatch that invoked the handler, and only that one
# ---------------------------------------------------------------------------

def test_nested_records_unwind_to_the_enclosing_dispatch():
    """An inner trigger's CANCEL ends the inner dispatch only; the outer
    handler that called it then cancels the outer one by returning."""
    rt, bus = make_bus()
    seen = []

    async def outer_first():
        seen.append("OUTER")
        assert await bus.trigger("INNER") is False
        seen.append("OUTER")
        return CANCEL

    async def inner():
        seen.append("INNER")
        return CANCEL

    async def inner_second():
        raise AssertionError("ran after the inner dispatch was cancelled")

    async def outer_second():
        raise AssertionError("ran after the outer dispatch was cancelled")

    bus.register("OUTER", outer_first, 1)
    bus.register("OUTER", outer_second, 2)
    bus.register("INNER", inner, 1)
    bus.register("INNER", inner_second, 2)

    async def main():
        assert await bus.trigger("OUTER") is False

    rt.run(main())
    assert seen == ["OUTER", "INNER", "OUTER"]


def test_nesting_across_two_buses_in_one_task():
    """A CANCEL on the inner bus ends that bus's dispatch; the enclosing
    dispatch on the other bus goes on to its next handler."""
    rt = SimRuntime()
    first, second = EventBus(rt), EventBus(rt)
    order = []

    async def a1():
        order.append("a1")
        assert await second.trigger("B") is False
        order.append("after-B")

    async def a2():
        order.append("a2")

    async def b1():
        order.append("b1")
        return CANCEL

    async def b2():
        order.append("b2")

    first.register("A", a1, 1)
    first.register("A", a2, 2)
    second.register("B", b1, 1)
    second.register("B", b2, 2)

    async def main():
        assert await first.trigger("A") is True

    rt.run(main())
    assert order == ["a1", "b1", "after-B", "a2"]


def test_interleaved_tasks_keep_their_own_records():
    """Two tasks dispatch ``E`` and interleave; one nests a dispatch that
    parks and is cancelled while the other runs.  Neither ``E``
    dispatch is cancelled."""
    from repro.sim import spawn

    rt, bus = make_bus()
    seen = []

    async def slow(tag):
        await rt.sleep(1.0 if tag == "a" else 0.5)
        seen.append((tag, "E"))
        if tag == "b":
            assert await bus.trigger("NESTED", tag) is False
            seen.append((tag, "E"))

    async def nested(tag):
        await rt.sleep(1.0)                   # task "a" resumes meanwhile
        seen.append((tag, "NESTED"))
        return CANCEL

    async def follower(tag):
        seen.append((tag, "follower"))

    bus.register("E", slow, 1)
    bus.register("E", follower, 2)
    bus.register("NESTED", nested, 1)
    bus.register("NESTED", follower, 2)

    async def main():
        ta = await spawn(bus.trigger("E", "a"))
        tb = await spawn(bus.trigger("E", "b"))
        assert await ta.join() is True
        assert await tb.join() is True

    rt.run(main())
    assert seen == [("b", "E"), ("a", "E"), ("a", "follower"),
                    ("b", "NESTED"), ("b", "E"), ("b", "follower")]


# ---------------------------------------------------------------------------
# Kind chains: a trigger that names its message kind runs only the
# registrations acting on that kind
# ---------------------------------------------------------------------------

def make_kinded_bus(order):
    """``E`` with a CALL handler, a REPLY/ACK handler and a kind-less one,
    registered out of priority order."""
    rt, bus = make_bus()

    def handler(name):
        async def run(msg):
            order.append((name, msg))
        return run

    bus.register("E", handler("any"), 3)
    bus.register("E", handler("call"), 1, kinds=("CALL",))
    bus.register("E", handler("reply"), 2, kinds=("REPLY", "ACK"))
    return rt, bus, handler


def test_kind_chain_runs_only_the_handlers_acting_on_the_kind():
    order = []
    rt, bus, _ = make_kinded_bus(order)

    async def main():
        for kind in ("CALL", "ACK", "PING"):
            assert await bus.trigger("E", kind, kind=kind)
        assert await bus.trigger("E", "none")

    rt.run(main())
    assert order == [
        ("call", "CALL"), ("any", "CALL"),
        ("reply", "ACK"), ("any", "ACK"),
        ("any", "PING"),                        # kind-less: every kind
        ("call", "none"), ("reply", "none"), ("any", "none")]


def test_kind_chains_follow_every_change_to_the_registrations():
    order = []
    rt, bus, handler = make_kinded_bus(order)

    def ran(kind):
        order.clear()
        rt.kernel.run(bus.trigger("E", kind, kind=kind))
        return [name for name, _ in order]

    assert ran("CALL") == ["call", "any"]       # compiles the CALL chain
    late = handler("late")
    bus.register("E", late, 0, kinds=("CALL",), owner="mp")
    assert ran("CALL") == ["late", "call", "any"]
    assert bus.deregister("E", late)
    assert ran("CALL") == ["call", "any"]
    bus.register("E", handler("owned"), 0, kinds=("CALL",), owner="mp")
    assert ran("CALL") == ["owned", "call", "any"]
    assert bus.retire_owner("mp") == 1
    assert ran("CALL") == ["call", "any"]
    bus.register("E", handler("back"), 0, kinds=("CALL",), owner="mp")
    assert ran("CALL") == ["back", "call", "any"]
    bus.clear()
    assert bus._chains == {}
    assert ran("CALL") == []


def test_cancel_event_inside_a_kind_chain():
    rt, bus = make_bus()
    order = []

    async def gate(msg):
        order.append("gate")
        return CANCEL

    async def after(msg):
        order.append(f"after-{msg}")

    bus.register("E", gate, 1, kinds=("CALL",))
    bus.register("E", after, 2)
    results = []

    async def main():
        results.append(await bus.trigger("E", "CALL", kind="CALL"))
        results.append(await bus.trigger("E", "REPLY", kind="REPLY"))

    rt.run(main())
    assert results == [False, True]
    assert order == ["gate", "after-REPLY"]


def test_instrumented_bus_takes_the_same_kind_chain():
    from repro.obs import Recorder

    rt = SimRuntime()
    rec = Recorder()
    rt.attach_obs(rec)
    prof = SeamProfiler()
    rt.attach_profiler(prof)
    bus = EventBus(rt)

    async def on_call(msg):
        pass

    async def on_reply(msg):
        pass

    bus.register("E", on_call, 1, owner="c", kinds=("CALL",))
    bus.register("E", on_reply, 2, owner="r", kinds=("REPLY",))
    rt.run(bus.trigger("E", "m", kind="REPLY"))
    assert [(c[0], c[2]) for c in prof.calls] == [("enter", "r"),
                                                  ("exit", 0.0)]
    handled = [e.fields["owner"] for e in rec.events if e.kind == "handler"]
    assert handled == ["r"]


def test_registration_table_ignores_kinds():
    """Figure 3's wiring lists every registration of an event in
    dispatch order, whatever kinds each declared."""
    _, bus = make_bus()

    async def any_kind(msg):
        pass

    async def on_call(msg):
        pass

    async def on_reply(msg):
        pass

    bus.register("E", any_kind, 3)
    bus.register("E", on_call, 1, kinds=("CALL",))
    bus.register("E", on_reply, 2, kinds=("REPLY", "ACK"))
    assert bus.registration_table() == {"E": [
        on_call.__qualname__, on_reply.__qualname__, any_kind.__qualname__]}
    assert [reg.kinds for reg in bus.registrations("E")] == [
        frozenset({"CALL"}), frozenset({"REPLY", "ACK"}), None]


def test_cancel_event_after_a_promotion_cancels_the_right_dispatch():
    """An arrival dispatches inline and parks in its first handler, which
    makes it a task; on resuming it cancels its own dispatch.  Another
    arrival dispatching inline on the same bus meanwhile runs its whole
    chain."""
    rt, bus = make_bus()
    order, results, started = [], [], []

    async def first(tag):
        order.append((tag, "first"))
        if tag == "parks":
            await rt.sleep(1.0)
            return CANCEL

    async def second(tag):
        order.append((tag, "second"))

    bus.register("E", first, 1)
    bus.register("E", second, 2)

    async def arrival(tag):
        results.append((tag, await bus.trigger("E", tag)))

    for when, tag in ((0.5, "parks"), (1.0, "inline")):
        rt.call_later(when, lambda tag=tag: started.append(
            rt.kernel.start(arrival(tag))))
    rt.run_until_idle()
    assert order == [("parks", "first"), ("inline", "first"),
                     ("inline", "second")]
    assert results == [("inline", True), ("parks", False)]
    promoted, inline = started
    assert inline is None and promoted.done


# ---------------------------------------------------------------------------
# Only the sentinel cancels, on each of the four dispatch bodies
# ---------------------------------------------------------------------------

#: The four dispatch bodies: the compiled kind chain (``_fuse``), the
#: single-handler fast path, the plain loop and the instrumented bracket.
BODIES = ("kind_chain", "one_handler", "plain_loop", "instrumented")


def _dispatch_returning(body, value):
    """Dispatch ``E`` once on a fresh bus of ``body``'s shape, where the
    deciding handler returns ``value``: ``(result, order, recorder,
    profiler)``."""
    from repro.obs import Recorder

    rt = SimRuntime()
    rec = prof = None
    if body == "instrumented":
        rec, prof = Recorder(), SeamProfiler()
        rt.attach_obs(rec)
        rt.attach_profiler(prof)
    bus = EventBus(rt)
    order = []

    def handler(name, returns=None):
        async def run(msg):
            order.append(name)
            return returns
        return run

    bus.register("E", handler("decider", value), 2, owner="decider",
                 kinds=("K",))
    if body != "one_handler":
        bus.register("E", handler("lead"), 1, owner="lead")
        bus.register("E", handler("tail"), 3, owner="tail", kinds=("K",))
    if body == "kind_chain":
        run = bus.chain("E", "K")
        assert run.__qualname__ == "_fuse.<locals>.run"
    else:
        run = partial(bus.trigger, "E")
    results = []

    async def main():
        results.append(await run("m"))

    rt.run(main())
    return results[0], order, rec, prof


@pytest.mark.parametrize("body", BODIES)
def test_only_the_sentinel_cancels(body):
    """A handler returning ``None``, ``False``, ``0`` or ``True`` lets the
    chain go on (a truthiness test would stop at some of them); only
    ``CANCEL`` stops it, and ``trigger`` then returns ``False``."""
    whole = (["decider"] if body == "one_handler"
             else ["lead", "decider", "tail"])
    for value in (None, False, 0, True):
        result, order, rec, _ = _dispatch_returning(body, value)
        assert (result, order) == (True, whole), value
        if rec is not None:
            assert not [e for e in rec.events if e.kind == "cancel_event"]
    result, order, rec, prof = _dispatch_returning(body, CANCEL)
    assert (result, order) == (False, whole[:whole.index("decider") + 1])
    if body == "instrumented":
        handled = [(e.fields["owner"], e.fields["cancelled"])
                   for e in rec.events if e.kind == "handler"]
        assert handled == [("lead", False), ("decider", True)]
        assert [e.fields for e in rec.events
                if e.kind == "cancel_event"] == [{"event": "E"}]
        assert [(c[0], c[2]) for c in prof.calls] == [
            ("enter", "lead"), ("exit", 0.0),
            ("enter", "decider"), ("exit", 0.0)]
