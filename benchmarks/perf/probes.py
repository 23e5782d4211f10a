"""Unit-cost probes: each layer's public functions timed in isolation.

The traced ledger says where a workload's wall time *went*; a probe
says what one operation of a layer *costs* with nothing else running,
so ``unit cost x count per call`` can be held against the ledger row.
Every probe takes the median of :data:`REPEATS` short loops.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Callable, Dict

from repro.apps.sharding import RingRouter
from repro.core.events import EventBus
from repro.net import LinkSpec, NetworkFabric, Node
from repro.net.message import wire_size
from repro.runtime import SimRuntime
from repro.sim import Kernel, Semaphore, checkpoint_yield, sleep
from repro.stubs import marshal, unmarshal

REPEATS = 5


def _median_ns(loop: Callable[[], float], per: int) -> float:
    """Median over repeats of ``loop()`` seconds, as ns per operation."""
    return statistics.median(loop() for _ in range(REPEATS)) / per * 1e9


def _timed_run(kernel: Kernel, main: Callable[[], object]) -> float:
    began = perf_counter()
    kernel.run(main())
    return perf_counter() - began


def step_ns(n: int) -> float:
    """One kernel step: two tasks handing the processor back and forth."""
    def loop() -> float:
        kernel = Kernel()

        async def pong() -> None:
            for _ in range(n):
                await checkpoint_yield()

        async def main() -> None:
            other = kernel.spawn(pong())
            for _ in range(n):
                await checkpoint_yield()
            await other.join()
        return _timed_run(kernel, main)
    return _median_ns(loop, 2 * n)


def timer_ns(n: int) -> float:
    """One timer's life: half are armed and cancelled, half armed and
    fired (a sleeping task woken)."""
    def loop() -> float:
        kernel = Kernel()

        async def main() -> None:
            for _ in range(n):
                kernel.call_later(1.0, _nothing).cancel()
                await sleep(0.001)
        return _timed_run(kernel, main)
    return _median_ns(loop, 2 * n)


def _nothing() -> None:
    return None


def indirection_ns(n: int) -> float:
    """What routing through ``SimRuntime`` adds over calling the kernel:
    sleep + spawn + semaphore through the facade, minus the same three
    operations on the kernel directly."""
    async def child() -> None:
        return None

    def through(runtime_calls: bool) -> Callable[[], float]:
        def loop() -> float:
            runtime = SimRuntime()
            kernel = runtime.kernel

            async def main() -> None:
                if runtime_calls:
                    for _ in range(n):
                        await runtime.sleep(0.0)
                        runtime.spawn(child())
                        runtime.semaphore(1)
                else:
                    for _ in range(n):
                        await sleep(0.0)
                        kernel.spawn(child())
                        Semaphore(1)
            return _timed_run(kernel, main)
        return loop
    # A difference of two ~2 us figures: the minimum over repeats (the
    # run least disturbed by the host) is steadier here than the median.
    facade, direct = through(True), through(False)
    best = [min(loop() for _ in range(REPEATS)) for loop in (facade, direct)]
    return max(0.0, (best[0] - best[1]) / n * 1e9)


def trigger_ns(handlers: int, n: int) -> float:
    """One ``EventBus.trigger`` on a bus with ``handlers`` no-ops."""
    async def noop(arg: int) -> None:
        return None

    def loop() -> float:
        runtime = SimRuntime()
        bus = EventBus(runtime)
        for priority in range(handlers):
            bus.register("PROBE", noop, priority)

        async def main() -> None:
            for i in range(n):
                await bus.trigger("PROBE", i)
        return _timed_run(runtime.kernel, main)
    return _median_ns(loop, n)


def bulk_value() -> dict:
    """The shape ``stub_bulk`` ships: ~2 KB of nested plain data."""
    return {"key": "probe", "value": {
        "rows": [{"id": j, "name": f"row-0-{j}", "score": j / 7.0,
                  "tags": ["a", "bb", "ccc"], "ok": j % 2 == 0}
                 for j in range(16)],
        "blob": "y" * 512, "n": 1}}


def marshal_mb_per_s(n: int) -> Dict[str, float]:
    value = bulk_value()
    data = marshal(value)

    def encode() -> float:
        began = perf_counter()
        for _ in range(n):
            marshal(value)
        return perf_counter() - began

    def decode() -> float:
        began = perf_counter()
        for _ in range(n):
            unmarshal(data)
        return perf_counter() - began
    megabytes = len(data) * n / 1e6
    return {
        "stubs.marshal_mb_per_s":
            megabytes / statistics.median(encode() for _ in range(REPEATS)),
        "stubs.unmarshal_mb_per_s":
            megabytes / statistics.median(decode() for _ in range(REPEATS)),
    }


def size_ns_per_kb(n: int) -> float:
    """``wire_size()`` walking an un-marshalled nested dict — what the
    batching wire pays per message when payloads are not bytes."""
    value = bulk_value()
    kilobytes = wire_size(value) / 1024.0

    def loop() -> float:
        began = perf_counter()
        for _ in range(n):
            wire_size(value)
        return perf_counter() - began
    return _median_ns(loop, n) / kilobytes


def send_ns(n: int) -> float:
    """One ``NetworkFabric.send`` (loss/delay draw + timer arm); the
    deliveries are drained outside the clock."""
    def loop() -> float:
        runtime = SimRuntime()
        fabric = NetworkFabric(runtime,
                               default_link=LinkSpec(0.001, 0.0005))
        fabric.trace.keep_events = False
        for pid in (1, 2):
            Node(pid, runtime, fabric).start()
        began = perf_counter()
        for i in range(n):
            fabric.send(1, 2, i)
        spent = perf_counter() - began
        runtime.kernel.shutdown()
        return spent
    return _median_ns(loop, n)


def route_ns(n: int) -> float:
    """One ``RingRouter.route`` over 8 shards x 64 virtual nodes."""
    router = RingRouter([f"shard-{i}" for i in range(8)])
    keys = [f"w{i % 16}-k{i % 512}" for i in range(n)]

    def loop() -> float:
        began = perf_counter()
        for key in keys:
            router.route(key)
        return perf_counter() - began
    return _median_ns(loop, n)


def run_all(scale: float = 1.0) -> Dict[str, float]:
    """Every probe; ``scale`` shrinks the loop counts (smoke runs)."""
    def n(full: int) -> int:
        return max(50, int(full * scale))
    out = {
        "sim.step_ns": step_ns(n(20_000)),
        "sim.timer_ns": timer_ns(n(10_000)),
        "runtime.indirection_ns": indirection_ns(n(20_000)),
        "events.trigger1_ns": trigger_ns(1, n(10_000)),
        "events.trigger8_ns": trigger_ns(8, n(10_000)),
        "wire.size_ns_per_kb": size_ns_per_kb(n(300)),
        "fabric.send_ns": send_ns(n(5_000)),
        "placement.route_ns": route_ns(n(20_000)),
    }
    out.update(marshal_mb_per_s(n(300)))
    return out
