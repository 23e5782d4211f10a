"""``tools/opcount.py``: per-call counts that repeat exactly.

The meter counts bytecodes (``sys.settrace`` opcode events), Python
calls and C calls (``sys.setprofile``) over a workload's timed region;
the same region measured twice in one process must give the same three
numbers, and the hooks and the collector must be as they were.
"""

import gc
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _opcount():
    spec = importlib.util.spec_from_file_location(
        "opcount", ROOT / "tools" / "opcount.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_minimal_rpc_counts_repeat_exactly_and_the_hooks_come_back():
    opcount = _opcount()
    hooks = (sys.gettrace(), sys.getprofile(), gc.isenabled())
    first, meter = opcount.count("minimal_rpc", 100)
    assert (sys.gettrace(), sys.getprofile(), gc.isenabled()) == hooks
    second, _ = opcount.count("minimal_rpc", 100)
    assert (sys.gettrace(), sys.getprofile(), gc.isenabled()) == hooks
    assert first == second
    assert first["calls"] == 100
    assert 0 < first["c_calls"] < first["py_calls"] < first["bytecodes"]
    assert meter.bytecodes == first["bytecodes"] * 100
    lines = opcount.top(meter, 3, 100)
    assert len(lines) == 3 and "opcount" not in "".join(lines)


def test_by_file_splits_the_counts_over_source_files():
    opcount = _opcount()
    per_call, meter = opcount.count("minimal_rpc", 100)
    lines = opcount.by_file(meter, 100)
    rows = [line.split() for line in lines]
    files = [row[2] for row in rows]
    assert len(files) == len(set(files))
    assert "src/repro/sim/kernel.py" in files
    assert not any(name.startswith("/") or "opcount" in name
                   for name in files)
    ops = [float(row[0]) for row in rows]
    assert ops == sorted(ops, reverse=True)
    assert sum(ops) == pytest.approx(per_call["bytecodes"], abs=len(ops))
    calls = sum(float(row[1]) for row in rows)
    assert calls == pytest.approx(per_call["py_calls"], abs=len(rows))
