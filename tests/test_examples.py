"""Every example script must run clean — examples are part of the API.

Each example is executed as a subprocess (its own interpreter, like a
user would run it) and checked for exit code 0 plus a marker line that
proves it got past its interesting part.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"

#: script name -> a string its output must contain.
EXAMPLES = {
    "quickstart.py": "get with 2/3 replicas crashed -> OK",
    "replicated_kv_total_order.py": "IDENTICAL sequences",
    "fault_tolerant_reads.py": "acceptance=ALL",
    "orphan_handling.py": "orphans killed: 1",
    "atomic_bank.py": "money conserved: execution was ATOMIC",
    "causal_pipeline.py": "causal ordering",
    "stub_service.py": "RPCTimeout",
    "wan_replication.py": "acceptance=ALL (cross-DC)",
    "distributed_locks.py": "0/6 runs ended split-brained",
    "sharded_kvstore.py": "keyspace spanned over 3 shards on one fabric: OK",
}


@pytest.mark.parametrize("script", sorted(EXAMPLES), ids=str)
def test_example_runs_clean(script):
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True, text=True, timeout=180)
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert EXAMPLES[script] in completed.stdout, \
        completed.stdout[-2000:]


def test_every_example_file_is_covered():
    on_disk = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert on_disk == set(EXAMPLES), \
        "new example? add it (and its marker) to EXAMPLES"
