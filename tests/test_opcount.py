"""``tools/opcount.py``: per-call counts that repeat exactly.

The meter counts bytecodes (``sys.settrace`` opcode events), Python
calls and C calls (``sys.setprofile``) over a workload's timed region;
the same region measured twice in one process must give the same three
numbers, and the hooks and the collector must be as they were.
``--json`` saves the counts and ``--against`` compares with them.  The
kernel timers armed and purged per call ride along as deltas of the
kernel's own counters.
"""

import gc
import importlib.util
import json
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


def test_json_writes_the_counts_and_against_prints_before_after_delta(
        tmp_path, monkeypatch, capsys):
    opcount = _opcount()
    monkeypatch.setenv("PYTHONHASHSEED", "0")      # no re-exec
    before = tmp_path / "before.json"
    before.write_text(json.dumps({"workloads": {"minimal_rpc": {
        "bytecodes": 4000.0, "py_calls": 200.0, "c_calls": 50.0,
        "calls": 40}}}))
    out = tmp_path / "after.json"
    assert opcount.main(["--workload", "minimal_rpc", "--ops", "40",
                         "--json", str(out), "--against",
                         str(before)]) == 0
    saved = json.loads(out.read_text())
    assert (saved["ops"], saved["seed"]) == (40, opcount.SEED)
    after = saved["workloads"]["minimal_rpc"]
    assert after["calls"] == 40
    assert 0 < after["c_calls"] < after["py_calls"] < after["bytecodes"]
    rows = [line.split() for line in capsys.readouterr().out.splitlines()
            if line.startswith("minimal_rpc ")
            and line.split()[1] in opcount.COUNTS + opcount.TIMERS]
    assert [row[1] for row in rows] == list(opcount.COUNTS)
    for name, row in zip(opcount.COUNTS, rows):
        then, now, delta = map(float, row[2:5])
        assert then == json.loads(before.read_text())[
            "workloads"]["minimal_rpc"][name]
        assert now == pytest.approx(after[name], abs=0.05)
        assert delta == pytest.approx(now - then, abs=0.1)
        assert row[5] == f"{100 * (after[name] - then) / then:+.1f}%"


def test_against_skips_workloads_the_before_file_lacks():
    opcount = _opcount()
    counts = {"bytecodes": 10.0, "py_calls": 4.0, "c_calls": 2.0}
    lines = opcount.against({"a": counts}, {"a": counts, "b": counts})
    assert len(lines) == 1 + len(opcount.COUNTS)
    assert all(line.split()[0] == "a" for line in lines[1:])
    assert all(line.split()[4:] == ["+0.0", "+0.0%"] for line in lines[1:])


def test_timers_are_the_kernels_deltas_over_the_region(monkeypatch):
    opcount = _opcount()
    kernels = []
    build = opcount.workloads.BY_NAME["sharded_put"].build

    def keep(ctx):
        state = build(ctx)
        kernels.append((state.dep.runtime.kernel,
                        state.dep.runtime.kernel.timers_scheduled))
        return state

    monkeypatch.setattr(opcount.workloads.BY_NAME["sharded_put"], "build",
                        keep)
    per_call, _ = opcount.count("sharded_put", 40)
    ((kernel, built),) = kernels
    # Warm-up and timed region together armed what the kernel counted;
    # the region's share is the per-call figure times the calls.
    armed = per_call["timers_armed"] * per_call["calls"]
    assert armed == int(armed) and 0 < armed < kernel.timers_scheduled - built
    assert per_call["timers_purged"] * per_call["calls"] \
        <= kernel.timers_purged


def test_against_compares_timers_and_marks_a_zero_before_share():
    opcount = _opcount()
    then = {"bytecodes": 10.0, "py_calls": 4.0, "c_calls": 2.0,
            "timers_armed": 4.0, "timers_purged": 0.0}
    now = dict(then, timers_armed=3.0, timers_purged=0.5)
    rows = [line.split() for line in opcount.against({"a": then},
                                                     {"a": now})[1:]]
    assert [row[1] for row in rows] == list(opcount.COUNTS + opcount.TIMERS)
    assert rows[3][2:] == ["4.00", "3.00", "-1.00", "-25.0%"]
    assert rows[4][2:] == ["0.00", "0.50", "+0.50", "n/a"]
