"""The six workloads.  Each lets one part of the stack dominate (the
*why* strings in ``catalog.py`` say which) and every one verifies its
outputs against a client-side :class:`~harness.KeyModel`.

A workload object provides:

``build(ctx)``
    deployment + services + preload; returns a state with ``.dep``.
``plan(ctx, state, n_ops, phase)``
    the inputs for one driven phase, fully generated from the seed
    before the clock starts (so the timed region issues calls and
    little else), with a digest of what was generated.
``launch(ctx, state, plan, run)``
    spawn the lanes; called from inside the scenario's main task.
``virtual_budget(n_ops)``
    the watchdog: virtual seconds after which unfinished calls count
    as failed.
``audit(ctx, state, run)`` / ``extras(state, run)`` (optional)
    post-region read-back and workload-specific figures.

``calls_per_second`` sizes a run: ``--seconds S`` issues
``S * calls_per_second`` calls, a *fixed* count, so every count and
virtual-time figure is seed-deterministic; the figure is this host's
untraced throughput rounded down, so a run measures for about ``S``
seconds.
"""

from __future__ import annotations

import bisect
import itertools
from types import SimpleNamespace
from typing import Any, Dict, List, Sequence

from harness import (Ctx, Run, closed_lane, digest, open_lane)

from repro import LinkSpec, ServiceCluster, ServiceSpec
from repro.apps import KVStore, ShardedKV, build_sharded_kv
from repro.core.microprotocols import ALL
from repro.errors import RPCAborted, RPCTimeout
from repro.net import WireConfig
from repro.placement import ElasticKV, build_elastic_kv
from repro.replication import ReplicaSpec, primary_backup
from repro.stubs import MarshallingApp, ServiceInterface, client_stub

LAN = LinkSpec(delay=0.001, jitter=0.0005)


class Workload:
    """What the six share: sizing a phase in whole lane rounds."""

    #: Ops are issued in multiples of this (lanes x ops per round).
    granule = 1

    def whole_ops(self, wanted: float) -> int:
        return max(8, int(wanted) // self.granule) * self.granule


class Plan:
    """Pre-generated per-lane op lists for one phase."""

    def __init__(self, lanes: List[List[Any]]):
        self.lanes = lanes
        self.n_ops = sum(len(lane) for lane in lanes)
        self.digest = digest(lanes)


def _plain_store() -> KVStore:
    return KVStore(keep_log=False)


async def _kv_op(call: Any, run: Run, op: Any) -> Any:
    """One verified KV operation through ``call(op_name, key, value)``.

    A ``get`` must return a value the model allows; a ``put`` is
    recorded so later reads can be judged (its own reply — the previous
    value — is checked the same way when ``op`` asks for it).
    """
    kind, key, value = op[0], op[1], op[2]
    model = run.model
    if kind == "get":
        began = model.begin_read(key)
        result = await call("get", key, None)
        legal = model.end_read(key, began, result.args)
        return result.ok and legal, "read"
    check_reply = kind == "put-checked"
    began = model.begin_read(key) if check_reply else 0
    write = model.begin_write(key, value)
    result = await call("put", key, value)
    legal = model.end_read(key, began, result.args) if check_reply else True
    model.end_write(key, write, result.ok)
    return result.ok and legal, "write"


# ----------------------------------------------------------------------
# 1. minimal_rpc
# ----------------------------------------------------------------------

class MinimalRpc(Workload):
    name = "minimal_rpc"
    granule = 2
    calls_per_second = 8000
    warmup_ops = 2000
    KEYS = 64

    def build(self, ctx: Ctx) -> Any:
        dep = ctx.deployment(default_link=LinkSpec(delay=0.0, jitter=0.0))
        svc = dep.add_service("kv", ServiceSpec(reliable=False),
                              _plain_store, servers=1, clients=1)
        return SimpleNamespace(dep=dep, pid=svc.client)

    def plan(self, ctx: Ctx, state: Any, n_ops: int, phase: str) -> Plan:
        rng = ctx.rng(self.name, phase)
        ops = []
        for i in range(n_ops):
            key = f"{ctx.salt}-k{rng.randrange(self.KEYS)}"
            ops.append(("put", key, i) if i % 2 == 0 else ("get", key, None))
        return Plan([ops])

    def launch(self, ctx: Ctx, state: Any, plan: Plan, run: Run) -> None:
        dep, pid = state.dep, state.pid

        async def call(op: str, key: str, value: Any) -> Any:
            args = {"key": key} if op == "get" \
                else {"key": key, "value": value}
            return await dep.call(pid, "kv", op, args)

        dep.spawn_client(pid, closed_lane(
            run, plan.lanes[0], lambda op: _kv_op(call, run, op)))

    def virtual_budget(self, n_ops: int) -> float:
        return 60.0


# ----------------------------------------------------------------------
# 2 + 3. sharded_put / sharded_put_observed
# ----------------------------------------------------------------------

class ShardedPut(Workload):
    """bench_x17's shape: 8 shards x 1 server, 16 open-loop lanes at
    0.5 ms/lane in virtual time, admission window 256, ring router,
    bounded(30)+acceptance(1), ``{"n", 64-byte blob}`` puts cycling
    over 512 keys per lane."""

    name = "sharded_put"
    granule = 16
    calls_per_second = 5000
    warmup_ops = 1600
    observatory = False
    SHARDS = 8
    LANES = 16
    KEYS_PER_LANE = 512
    INTERVAL = 0.0005
    WINDOW = 256
    BLOB = "x" * 64

    def build(self, ctx: Ctx) -> Any:
        dep = ctx.deployment(default_link=LAN,
                             observatory=self.observatory)
        kv = build_sharded_kv(
            dep, self.SHARDS, spec=ServiceSpec(bounded=30.0, acceptance=1),
            servers_per_shard=1, clients=self.LANES,
            app_factory=_plain_store)
        pids = dep.services[kv.router.services[0]].client_pids
        return SimpleNamespace(dep=dep, router=kv.router, pids=pids,
                               issued=[0] * self.LANES)

    def plan(self, ctx: Ctx, state: Any, n_ops: int, phase: str) -> Plan:
        per_lane = n_ops // self.LANES
        lanes = []
        for lane in range(self.LANES):
            # The cycle position carries over from the warm-up, so each
            # key is still written strictly in sequence by one lane.
            first = state.issued[lane]
            lanes.append([
                ("put-checked",
                 f"{ctx.salt}-w{lane}-k{i % self.KEYS_PER_LANE}",
                 {"n": i, "blob": self.BLOB})
                for i in range(first, first + per_lane)])
            state.issued[lane] = first + per_lane
        return Plan(lanes)

    def launch(self, ctx: Ctx, state: Any, plan: Plan, run: Run) -> None:
        dep = state.dep
        for pid, ops in zip(state.pids, plan.lanes):
            view = ShardedKV(dep, pid, state.router)

            async def call(op: str, key: str, value: Any,
                           view: ShardedKV = view) -> Any:
                return await view.put(key, value)

            dep.spawn_client(pid, open_lane(
                dep, pid, run, ops, self.INTERVAL,
                lambda op, call=call: _kv_op(call, run, op),
                window=self.WINDOW))

    def virtual_budget(self, n_ops: int) -> float:
        return 2 * (n_ops // self.LANES) * self.INTERVAL + 120.0


class ShardedPutObserved(ShardedPut):
    name = "sharded_put_observed"
    calls_per_second = 3200
    observatory = True


# ----------------------------------------------------------------------
# 4. replicated_mixed
# ----------------------------------------------------------------------

class ReplicatedMixed(Workload):
    name = "replicated_mixed"
    granule = 8
    calls_per_second = 1650
    warmup_ops = 800
    SHARDS = 4
    CLIENTS = 8
    KEYS = 256
    ZIPF_S = 1.1

    def build(self, ctx: Ctx) -> Any:
        dep = ctx.deployment(default_link=LAN)
        # Total order + unique execution + wait-for-all, deliberately
        # without Serial_Execution (see repro_total_serial_hang.py).
        rspec = ReplicaSpec(replicas=3, mode="active", spec=ServiceSpec(
            reliable=True, unique=True, ordering="total", acceptance=ALL))
        kv = build_sharded_kv(dep, self.SHARDS, replication=rspec,
                              clients=self.CLIENTS,
                              app_factory=_plain_store)
        pids = dep.services[kv.router.services[0]].client_pids
        return SimpleNamespace(dep=dep, router=kv.router, pids=pids,
                               issued=0)

    def plan(self, ctx: Ctx, state: Any, n_ops: int, phase: str) -> Plan:
        cdf = list(itertools.accumulate(
            1.0 / rank ** self.ZIPF_S for rank in range(1, self.KEYS + 1)))
        per_lane = n_ops // self.CLIENTS
        lanes = []
        for lane in range(self.CLIENTS):
            rng = ctx.rng(self.name, phase, lane)
            ops = []
            for _ in range(per_lane):
                rank = bisect.bisect_left(cdf, rng.random() * cdf[-1])
                key = f"{ctx.salt}-z{rank}"
                if rng.random() < 0.5:
                    state.issued += 1      # unique across lanes and phases
                    ops.append(("put", key, state.issued))
                else:
                    ops.append(("get", key, None))
            lanes.append(ops)
        return Plan(lanes)

    def launch(self, ctx: Ctx, state: Any, plan: Plan, run: Run) -> None:
        dep = state.dep
        for pid, ops in zip(state.pids, plan.lanes):
            view = ShardedKV(dep, pid, state.router)

            async def call(op: str, key: str, value: Any,
                           view: ShardedKV = view) -> Any:
                if op == "get":
                    return await view.get(key)
                return await view.put(key, value)

            dep.spawn_client(pid, closed_lane(
                run, ops, lambda op, call=call: _kv_op(call, run, op)))

    def virtual_budget(self, n_ops: int) -> float:
        return 0.05 * n_ops + 120.0


# ----------------------------------------------------------------------
# 5. stub_bulk
# ----------------------------------------------------------------------

class StubBulk(Workload):
    name = "stub_bulk"
    granule = 8
    calls_per_second = 680
    warmup_ops = 240
    CLIENTS = 4
    ROWSETS = 32
    INTERFACE = ServiceInterface("bulk-kv", ["put", "get"])

    def build(self, ctx: Ctx) -> Any:
        cluster = ServiceCluster(
            ServiceSpec(unique=True, bounded=30.0, acceptance=2),
            lambda pid: MarshallingApp(_plain_store()),
            n_servers=3, n_clients=self.CLIENTS, seed=ctx.seed,
            default_link=LAN, keep_trace=False,
            wire=WireConfig(batch=True), runtime=ctx.runtime())
        dep = ctx.adopt(cluster.deployment)
        return SimpleNamespace(dep=dep, cluster=cluster, issued=0)

    def _rowset(self, rng: Any, tag: int) -> List[Dict[str, Any]]:
        # ~2 KB marshalled: 16 rows of dict/str/float/list/bool.
        return [{"id": tag * 100 + j, "name": f"row-{tag}-{j}",
                 "score": rng.random(), "tags": ["a", "bb", "ccc"],
                 "ok": j % 2 == 0} for j in range(16)]

    def plan(self, ctx: Ctx, state: Any, n_ops: int, phase: str) -> Plan:
        pairs = n_ops // (2 * self.CLIENTS)
        lanes = []
        for lane in range(self.CLIENTS):
            rng = ctx.rng(self.name, phase, lane)
            pool = [self._rowset(rng, tag) for tag in range(self.ROWSETS)]
            ops = []
            for _ in range(pairs):
                state.issued += 1
                # A fresh key per put keeps the put's reply (the previous
                # value) empty, so puts marshal on the client and
                # unmarshal on the servers, gets the reverse.
                key = f"{ctx.salt}-b{state.issued}"
                value = {"rows": pool[rng.randrange(self.ROWSETS)],
                         "blob": "y" * 512, "n": state.issued}
                ops.append(("put", key, value))
                ops.append(("get", key, None))
            lanes.append(ops)
        return Plan(lanes)

    def launch(self, ctx: Ctx, state: Any, plan: Plan, run: Run) -> None:
        cluster = state.cluster
        for pid, ops in zip(cluster.client_pids, plan.lanes):
            stub = client_stub(self.INTERFACE, cluster.grpc(pid),
                               cluster.group)

            async def call(op: str, key: str, value: Any,
                           stub: Any = stub) -> Any:
                # Stubs raise instead of returning a status; fold that
                # back into the (ok, value) shape the verifier reads.
                try:
                    if op == "get":
                        return SimpleNamespace(
                            ok=True, args=await stub.get(key=key))
                    return SimpleNamespace(
                        ok=True, args=await stub.put(key=key, value=value))
                except (RPCTimeout, RPCAborted):
                    return SimpleNamespace(ok=False, args=None)

            cluster.spawn_client(pid, closed_lane(
                run, ops, lambda op, call=call: _kv_op(call, run, op)))

    def virtual_budget(self, n_ops: int) -> float:
        return 0.05 * n_ops + 120.0


# ----------------------------------------------------------------------
# 6. crash_failover
# ----------------------------------------------------------------------

class CrashFailover(Workload):
    name = "crash_failover"
    granule = 4
    calls_per_second = 1550
    warmup_ops = 400
    LANES = 4
    INTERVAL = 0.004
    KEYS_PER_LANE = 64
    CRASH_AT, RECOVER_AT = 0.4, 0.7     # shares of the schedule
    CLIENT_RETRIES = 3

    def build(self, ctx: Ctx) -> Any:
        dep = ctx.deployment(
            default_link=LinkSpec(delay=0.001, jitter=0.0005, loss=0.01),
            membership="heartbeat", heartbeat_interval=0.05)
        plane, _ = build_elastic_kv(
            dep, 2, replication=primary_backup(3, bounded=0.5),
            clients=self.LANES)
        dep.auto_rebind(plane=plane)
        pids = dep.services["shard-0"].client_pids
        victim = dep.replication.groups["shard-0"].primary
        return SimpleNamespace(dep=dep, plane=plane, pids=pids,
                               victim=victim, issued=[0] * self.LANES,
                               worst_on_victim_shard=0.0, crashed_at=None,
                               retries=0)

    def plan(self, ctx: Ctx, state: Any, n_ops: int, phase: str) -> Plan:
        per_lane = n_ops // self.LANES
        route = state.plane.ring.route
        lanes = []
        for lane in range(self.LANES):
            first = state.issued[lane]
            ops = []
            for i in range(first, first + per_lane):
                key = f"{ctx.salt}-l{lane}-k{i % self.KEYS_PER_LANE}"
                ops.append(("put", key, i, route(key) == "shard-0"))
            lanes.append(ops)
            state.issued[lane] = first + per_lane
        plan = Plan(lanes)
        plan.with_fault = phase == "timed"
        return plan

    def launch(self, ctx: Ctx, state: Any, plan: Plan, run: Run) -> None:
        dep = state.dep
        now = dep.runtime.now
        for pid, ops in zip(state.pids, plan.lanes):
            view = ElasticKV(state.plane, pid)

            async def call(op: str, key: str, value: Any,
                           view: ElasticKV = view) -> Any:
                # A put that rode a promotion or demotion can come back
                # TIMEOUT after the group's own failover retry gave up;
                # like any client of a bounded call, re-issue it (puts
                # are idempotent on state).  The wait shows up in the
                # call's latency, the re-issues in bench.client_retries.
                result = await view.put(key, value)
                for _ in range(self.CLIENT_RETRIES):
                    if result.ok:
                        break
                    state.retries += 1
                    result = await view.put(key, value)
                return result

            async def perform(op: Any, call: Any = call) -> Any:
                due = now()       # open_lane spawns each call when due
                outcome = await _kv_op(call, run, op)
                if op[3]:
                    state.worst_on_victim_shard = max(
                        state.worst_on_victim_shard, now() - due)
                return outcome

            dep.spawn_client(pid, open_lane(dep, pid, run, ops,
                                            self.INTERVAL, perform))
        if plan.with_fault:
            span = len(plan.lanes[0]) * self.INTERVAL

            async def fault() -> None:
                await dep.runtime.sleep(self.CRASH_AT * span)
                state.crashed_at = now()
                dep.crash(state.victim)
                await dep.runtime.sleep(
                    (self.RECOVER_AT - self.CRASH_AT) * span)
                dep.recover(state.victim)

            dep.runtime.spawn(fault(), name="bench-fault", daemon=True)

    def virtual_budget(self, n_ops: int) -> float:
        return 2 * (n_ops // self.LANES) * self.INTERVAL + 120.0

    def audit(self, ctx: Ctx, state: Any, run: Run) -> Dict[str, Any]:
        """Read every acknowledged write back: none may be lost."""
        dep = state.dep
        view = ElasticKV(state.plane, state.pids[0])
        lost = []

        async def read_back() -> None:
            for key, legal in run.model.acknowledged().items():
                result = await view.get(key)
                if not (result.ok and result.args in legal):
                    lost.append(key)

        dep.run_scenario(read_back())
        return {"acked_lost": len(lost)}

    def extras(self, state: Any, run: Run) -> Dict[str, Any]:
        return {"unavailable_virt_ms": state.worst_on_victim_shard * 1e3,
                "crashed_at_virt_s": state.crashed_at,
                "client_retries": state.retries}


WORKLOADS: Sequence[Any] = (MinimalRpc(), ShardedPut(), ShardedPutObserved(),
                            ReplicatedMixed(), StubBulk(), CrashFailover())

BY_NAME = {workload.name: workload for workload in WORKLOADS}
