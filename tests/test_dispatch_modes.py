"""The paper's four event-dispatch modes (Section 3)."""

import pytest

from repro.core.events import CANCEL, EventBus
from repro.runtime import SimRuntime


def make_bus():
    rt = SimRuntime()
    return rt, EventBus(rt)


def test_nonblocking_sequential_caller_continues():
    rt, bus = make_bus()
    order = []

    async def slow_handler():
        await rt.sleep(1.0)
        order.append("handler")

    bus.register("E", slow_handler)

    async def main():
        bus.trigger_nonblocking("E")
        order.append("caller")
        await rt.sleep(2.0)

    rt.run(main())
    assert order == ["caller", "handler"]


def test_nonblocking_preserves_sequential_order_and_cancel():
    rt, bus = make_bus()
    order = []

    async def first():
        order.append("first")
        return CANCEL

    async def second():
        order.append("second")   # pragma: no cover - must be skipped

    bus.register("E", first, 1)
    bus.register("E", second, 2)

    async def main():
        bus.trigger_nonblocking("E")
        await rt.sleep(1.0)

    rt.run(main())
    assert order == ["first"]


def test_concurrent_blocking_waits_for_all_handlers():
    rt, bus = make_bus()
    done = []

    def make_handler(tag, delay):
        async def handler():
            await rt.sleep(delay)
            done.append((tag, rt.now()))
        return handler

    bus.register("E", make_handler("slow", 2.0), 1)
    bus.register("E", make_handler("fast", 0.5), 2)

    async def main():
        await bus.trigger_concurrent("E")
        return rt.now()

    finished_at = rt.run(main())
    # Handlers overlapped (fast finished first despite lower priority)...
    assert done == [("fast", 0.5), ("slow", 2.0)]
    # ...and the blocking trigger waited for the slowest, not the sum.
    assert finished_at == pytest.approx(2.0)


def test_concurrent_nonblocking_returns_immediately():
    rt, bus = make_bus()
    done = []

    async def handler():
        await rt.sleep(1.0)
        done.append("handler")

    bus.register("E", handler)

    async def main():
        await bus.trigger_concurrent("E", blocking=False)
        done.append("caller")
        await rt.sleep(2.0)

    rt.run(main())
    assert done == ["caller", "handler"]


def test_concurrent_handlers_receive_arguments():
    rt, bus = make_bus()
    received = []

    async def handler(a, b):
        received.append((a, b))

    bus.register("E", handler)

    async def main():
        await bus.trigger_concurrent("E", 1, "two")

    rt.run(main())
    assert received == [(1, "two")]


def test_cancel_event_in_concurrent_mode_is_per_handler():
    rt, bus = make_bus()
    ran = []

    async def canceller():
        ran.append("canceller")
        return CANCEL        # no shared sequence: siblings unaffected

    async def sibling():
        await rt.sleep(0.1)
        ran.append("sibling")

    bus.register("E", canceller, 1)
    bus.register("E", sibling, 2)

    async def main():
        await bus.trigger_concurrent("E")

    rt.run(main())
    assert sorted(ran) == ["canceller", "sibling"]
