"""Workload generators and the closed-loop load driver.

All workloads run on *virtual* time, so a "latency" here is simulated
network + protocol time, not Python execution time; pytest-benchmark
separately measures the real CPU cost of pushing calls through the
composed micro-protocols.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.messages import CallResult, Status
from repro.core.deployment import Service
from repro.bench.stats import LatencyStats, summarize

__all__ = ["Op", "kv_workload", "read_only_workload", "WorkloadResult",
           "ClosedLoopWorkload", "OpenLoopWorkload"]

#: One operation to issue: (op name, args).
Op = Tuple[str, Any]


def kv_workload(*, read_ratio: float = 0.5, key_space: int = 16,
                seed: int = 0, value_size: int = 8) -> Iterator[Op]:
    """An endless mixed read/write KV stream."""
    rng = random.Random(seed)
    payload = "v" * value_size
    counter = 0
    while True:
        key = f"key-{rng.randrange(key_space)}"
        if rng.random() < read_ratio:
            yield ("get", {"key": key})
        else:
            counter += 1
            yield ("put", {"key": key, "value": f"{payload}-{counter}"})


def read_only_workload(*, key_space: int = 16, seed: int = 0
                       ) -> Iterator[Op]:
    """The Section-5 scenario: read-only requests."""
    rng = random.Random(seed)
    while True:
        yield ("get", {"key": f"key-{rng.randrange(key_space)}"})


@dataclass
class WorkloadResult:
    """Everything a closed-loop run measured."""

    latencies: List[float] = field(default_factory=list)
    statuses: Dict[Status, int] = field(default_factory=dict)
    results: List[CallResult] = field(default_factory=list)
    started_at: float = 0.0
    finished_at: float = 0.0
    messages_sent: int = 0
    #: Open-loop only: arrivals still in flight when the run ended.
    incomplete: int = 0

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at

    @property
    def calls(self) -> int:
        return len(self.latencies)

    @property
    def ok_ratio(self) -> float:
        ok = self.statuses.get(Status.OK, 0)
        return ok / self.calls if self.calls else 0.0

    @property
    def messages_per_call(self) -> float:
        return self.messages_sent / self.calls if self.calls else 0.0

    def latency_stats(self) -> LatencyStats:
        return summarize(self.latencies)


class ClosedLoopWorkload:
    """``n`` calls per client, issued back-to-back with optional think
    time — the classic closed-loop load model."""

    def __init__(self, make_ops: Callable[[int], Iterator[Op]], *,
                 calls_per_client: int = 50, think_time: float = 0.0):
        """``make_ops(client_index)`` yields that client's op stream."""
        self.make_ops = make_ops
        self.calls_per_client = calls_per_client
        self.think_time = think_time

    def run(self, service: Service, *,
            settle_time: float = 1.0) -> WorkloadResult:
        """Drive the service to completion and collect measurements."""
        dep = service.deployment
        result = WorkloadResult()
        sends_before = dep.metrics.value("net.send")
        result.started_at = dep.runtime.now()

        async def client_loop(index: int, pid: int) -> None:
            ops = self.make_ops(index)
            for _ in range(self.calls_per_client):
                op, args = next(ops)
                t0 = dep.runtime.now()
                call_result = await service.call(pid, op, args)
                result.latencies.append(dep.runtime.now() - t0)
                result.results.append(call_result)
                result.statuses[call_result.status] = \
                    result.statuses.get(call_result.status, 0) + 1
                if self.think_time:
                    await dep.runtime.sleep(self.think_time)

        async def scenario() -> None:
            tasks = [
                service.spawn_client(pid, client_loop(i, pid),
                                     name=f"load-{pid}")
                for i, pid in enumerate(service.client_pids)
            ]
            for task in tasks:
                await dep.runtime.join(task)

        dep.run_scenario(scenario())
        result.finished_at = dep.runtime.now()
        if settle_time:
            dep.settle(settle_time)
        result.messages_sent = int(
            dep.metrics.value("net.send") - sends_before)
        return result


class OpenLoopWorkload:
    """Poisson arrivals at a fixed offered rate, independent of service
    completions — the load model for saturation studies.

    Each arrival runs as its own task on the (single) client node, so
    in-flight calls accumulate when the service cannot keep up.  The
    result separates completed calls from those still in flight at the
    deadline, which is the saturation signal.
    """

    def __init__(self, make_ops: Callable[[int], Iterator[Op]], *,
                 rate: float, duration: float, seed: int = 0):
        if rate <= 0 or duration <= 0:
            raise ValueError("rate and duration must be positive")
        self.make_ops = make_ops
        self.rate = rate
        self.duration = duration
        self.seed = seed

    def run(self, service: Service, *,
            drain_time: float = 5.0) -> WorkloadResult:
        dep = service.deployment
        rng = random.Random(self.seed)
        ops = self.make_ops(0)
        result = WorkloadResult()
        sends_before = dep.metrics.value("net.send")
        result.started_at = dep.runtime.now()
        issued = {"count": 0}
        pid = service.client_pids[0]

        async def one_call(op: str, args: Any) -> None:
            t0 = dep.runtime.now()
            call_result = await service.call(pid, op, args)
            result.latencies.append(dep.runtime.now() - t0)
            result.results.append(call_result)
            result.statuses[call_result.status] = \
                result.statuses.get(call_result.status, 0) + 1

        async def arrival_process() -> None:
            deadline = dep.runtime.now() + self.duration
            while dep.runtime.now() < deadline:
                await dep.runtime.sleep(rng.expovariate(self.rate))
                op, args = next(ops)
                issued["count"] += 1
                service.spawn_client(pid, one_call(op, args),
                                     name=f"open-{issued['count']}")

        dep.run_scenario(arrival_process())
        dep.settle(drain_time)
        result.finished_at = dep.runtime.now()
        result.messages_sent = int(
            dep.metrics.value("net.send") - sends_before)
        #: Arrivals that never completed within the drain window.
        result.incomplete = issued["count"] - result.calls
        return result
