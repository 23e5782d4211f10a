"""X6 — orphan-handling policies compared (extension).

A client repeatedly crashes mid-call and reincarnates, against a server
with slow procedures.  Per policy we measure: wasted work (orphan
executions that ran to completion), interference incidents (an
old-generation execution finishing after a new-generation call had
already started), kills, and the recovered client's success rate.

Expected shape: ignoring orphans wastes the most work and is the only
policy with interference; interference avoidance eliminates interference
at some latency cost for the recovered client; orphan termination
eliminates both wasted work and interference.
"""

from _common import attach, run_once, save_result

from repro import LinkSpec, ServiceCluster, ServiceSpec
from repro.apps import KVStore
from repro.bench import banner, render_table

LINK = LinkSpec(delay=0.005, jitter=0.0)
OP_DELAY = 0.4
ROUNDS = 6


def run_policy(policy, seed=0):
    spec = ServiceSpec(orphans=policy, bounded=10.0, unique=True)
    cluster = ServiceCluster(spec, lambda pid: KVStore(),
                             n_servers=1, seed=seed, default_link=LINK)
    client = cluster.client
    successes = []

    async def doomed(i):
        # The orphan is a long-running write...
        await cluster.call(client, "put",
                           {"key": f"orphan-{i}", "value": i,
                            "delay": OP_DELAY})

    async def fresh(i):
        # ...the recovered client's write is quick, so an ignored orphan
        # lands AFTER it: textbook interference.
        result = await cluster.call(client, "put",
                                    {"key": f"fresh-{i}", "value": i,
                                     "delay": 0.02})
        successes.append(result.ok)

    async def scenario():
        for i in range(ROUNDS):
            cluster.spawn_client(client, doomed(i))
            await cluster.deployment.runtime.sleep(0.1)   # mid-execution
            cluster.deployment.crash(client)
            await cluster.deployment.runtime.sleep(0.05)
            cluster.deployment.recover(client)
            task = cluster.spawn_client(client, fresh(i))
            await cluster.deployment.runtime.join(task)

    cluster.deployment.run_scenario(scenario(), extra_time=3.0)

    app = cluster.app(1)
    log = [key for kind, key, _ in app.apply_log]
    wasted = sum(1 for key in log if key.startswith("orphan-"))
    # Interference: an orphan write landing after the same round's fresh
    # write had already been applied.
    interference = 0
    for i in range(ROUNDS):
        if f"orphan-{i}" in log and f"fresh-{i}" in log:
            if log.index(f"orphan-{i}") > log.index(f"fresh-{i}"):
                interference += 1
    kills = 0
    if policy == "terminate":
        kills = cluster.grpc(1).micro("Terminate_Orphan").kills
    return {"policy": policy, "wasted": wasted,
            "interference": interference, "kills": kills,
            "ok": all(successes) and len(successes) == ROUNDS}


def test_x6_orphan_policies(benchmark):
    def experiment():
        return [run_policy(p) for p in ("none", "avoid", "terminate")]

    rows = run_once(benchmark, experiment)

    label = {"none": "ignore orphans", "avoid": "interference avoidance",
             "terminate": "orphan termination"}
    table = render_table(
        ["policy", "orphan executions completed",
         "interference incidents", "orphans killed",
         "recovered client ok"],
        [[label[r["policy"]], r["wasted"], r["interference"],
          r["kills"], "YES" if r["ok"] else "NO"] for r in rows])
    save_result("x6_orphan_policies", "\n".join([
        banner("X6 — orphan handling policies",
               f"{ROUNDS} crash/reincarnate rounds, "
               f"{OP_DELAY * 1000:.0f}ms server procedures"),
        table]))
    attach(benchmark, {r["policy"]: r["wasted"] for r in rows})

    by_policy = {r["policy"]: r for r in rows}
    assert all(r["ok"] for r in rows)
    # Ignoring orphans wastes the full round count of work AND lets the
    # slow orphans land after the recovered client's writes.
    assert by_policy["none"]["wasted"] == ROUNDS
    assert by_policy["none"]["interference"] > 0
    # Interference avoidance still runs the orphans but never lets them
    # interleave after the new generation.
    assert by_policy["avoid"]["wasted"] == ROUNDS
    assert by_policy["avoid"]["interference"] == 0
    # Termination kills every orphan: no wasted completions at all.
    assert by_policy["terminate"]["wasted"] == 0
    assert by_policy["terminate"]["kills"] == ROUNDS
    assert by_policy["terminate"]["interference"] == 0
