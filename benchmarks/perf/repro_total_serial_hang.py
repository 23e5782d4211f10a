"""Known hang: Total_Order + Serial_Execution + acceptance >= 2 under
two or more concurrent clients never completes a call.

    PYTHONPATH=src python3 benchmarks/perf/repro_total_serial_hang.py

Found while sizing ``replicated_mixed`` (which therefore omits
Serial_Execution).  Not fixed here — ``src/`` is out of scope for the
benchmark PR; the chaos item in ROADMAP.md owns it.  Expected output
today: ``0 of 40 puts completed`` after retransmitting for the whole
3000 virtual seconds.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))

from repro import Deployment, LinkSpec  # noqa: E402
from repro.apps import KVStore, ShardedKV, build_sharded_kv  # noqa: E402
from repro.core.microprotocols import ALL  # noqa: E402
from repro.replication import active_replicas  # noqa: E402

CLIENTS, PUTS_EACH, DEADLINE = 2, 20, 3000.0

dep = Deployment(seed=1, default_link=LinkSpec(delay=0.001, jitter=0.0005),
                 keep_trace=False)
kv = build_sharded_kv(
    dep, 1, clients=CLIENTS, app_factory=lambda: KVStore(keep_log=False),
    replication=active_replicas(3, acceptance=ALL, ordering="total"))
completed = []


async def writer(pid, lane):
    view = ShardedKV(dep, pid, kv.router)
    for i in range(PUTS_EACH):
        completed.append((await view.put(f"k{lane}-{i}", i)).ok)

for lane, pid in enumerate(dep.services["shard-0"].client_pids):
    dep.spawn_client(pid, writer(pid, lane))
dep.settle(DEADLINE)
print(f"{len(completed)} of {CLIENTS * PUTS_EACH} puts completed after "
      f"{dep.runtime.now():.0f} virtual s, "
      f"{int(dep.metrics.value('net.send'))} messages sent")
dep.shutdown()
sys.exit(0 if len(completed) < CLIENTS * PUTS_EACH else 1)
