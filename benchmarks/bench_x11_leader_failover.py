"""X11 — Total Order leader failover: availability cost of the agreement
phase (extension).

Measures service interruption when the order-assigning leader crashes
under continuous load: the gap between the last call completed before
the crash and the first call completed after it, as a function of the
resync grace period.  A longer grace tolerates slower ORDER_INFO replies
but extends the window in which the new leader assigns nothing.

Expected shape: downtime ≈ membership detection + one query round; it
grows with the grace only when responders are lost (not here), so the
dominant term is the detection delay — and the no-resync baseline is
only marginally faster while being unsafe under partial dissemination
(see tests/test_total_order_resync.py).
"""

from _common import attach, run_once, save_result

from repro import LinkSpec, ServiceCluster, ServiceSpec
from repro.apps import KVStore
from repro.bench import banner, render_table

LINK = LinkSpec(delay=0.01, jitter=0.005)
CRASH_AT = 1.0
GRACES = (0.1, 0.3, 0.6)


def run_point(resync, grace, seed=0):
    spec = ServiceSpec(ordering="total", unique=True, bounded=0.0,
                       acceptance=3, total_resync=resync,
                       total_resync_grace=grace)
    cluster = ServiceCluster(spec, KVStore, n_servers=3, seed=seed,
                             default_link=LINK, membership="oracle",
                             keep_trace=False)
    completions = []

    async def client_loop():
        i = 0
        while cluster.deployment.runtime.now() < CRASH_AT + 8.0:
            result = await cluster.call(cluster.client, "put",
                                        {"key": f"k{i % 4}", "value": i})
            if result.ok:
                completions.append(cluster.deployment.runtime.now())
            i += 1

    async def scenario():
        task = cluster.spawn_client(cluster.client, client_loop())
        await cluster.deployment.runtime.sleep(CRASH_AT)
        cluster.deployment.crash(3)
        try:
            await cluster.deployment.runtime.join(task)
        except BaseException:
            pass

    cluster.deployment.run_scenario(scenario(), extra_time=1.0)
    before = max((t for t in completions if t <= CRASH_AT), default=None)
    after = min((t for t in completions if t > CRASH_AT), default=None)
    downtime = (after - CRASH_AT) if after is not None else None
    total_after = sum(1 for t in completions if t > CRASH_AT)
    return {"resync": resync, "grace": grace, "downtime": downtime,
            "completed_after": total_after}


def test_x11_leader_failover(benchmark):
    def experiment():
        rows = [run_point(False, 0.0)]
        rows.extend(run_point(True, g) for g in GRACES)
        return rows

    rows = run_once(benchmark, experiment)

    def label(r):
        if not r["resync"]:
            return "no agreement phase (paper's simplified protocol)"
        return f"resync, grace {r['grace'] * 1000:.0f} ms"

    table = render_table(
        ["configuration", "failover downtime ms", "calls after crash"],
        [[label(r),
          f"{r['downtime'] * 1000:.0f}" if r["downtime"] else "stalled",
          r["completed_after"]] for r in rows])
    save_result("x11_leader_failover", "\n".join([
        banner("X11 — Total Order leader failover",
               "sequential load, leader crashed at t=1s, oracle "
               "membership"),
        table]))
    attach(benchmark, {label(r): (round(r["downtime"] * 1000)
                                  if r["downtime"] else -1)
                       for r in rows})

    # Service resumes under every configuration in this benign scenario
    # (the unsafe cases need targeted injection; see the test suite).
    assert all(r["downtime"] is not None for r in rows)
    assert all(r["completed_after"] > 10 for r in rows)
    # The agreement phase costs at most ~a query round on top of the
    # baseline: well under a second here.
    for r in rows:
        assert r["downtime"] < 1.5