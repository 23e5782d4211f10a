"""Unit tests for the benchmark support package."""

import pytest

from repro import LinkSpec
from repro.apps import KVStore
from repro.bench import (
    ClosedLoopWorkload,
    banner,
    kv_workload,
    read_only_workload,
    render_series,
    render_table,
    summarize,
)
from repro.core.config import read_optimized


# ----------------------------------------------------------------------
# Stats
# ----------------------------------------------------------------------

def test_summarize_basic():
    stats = summarize([0.001, 0.002, 0.003, 0.004])
    assert stats.count == 4
    assert stats.mean == pytest.approx(0.0025)
    assert stats.minimum == 0.001
    assert stats.maximum == 0.004
    assert stats.p50 in (0.002, 0.003)


def test_summarize_percentiles_monotone():
    stats = summarize([i / 1000 for i in range(1, 101)])
    assert stats.p50 <= stats.p95 <= stats.p99 <= stats.maximum
    assert stats.p50 == pytest.approx(0.050)
    assert stats.p95 == pytest.approx(0.095)


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([])


def test_scaled_and_str():
    stats = summarize([0.01, 0.02])
    ms = stats.scaled(1000.0)
    assert ms.mean == pytest.approx(15.0)
    assert "mean=" in str(stats)


# ----------------------------------------------------------------------
# Workload generators
# ----------------------------------------------------------------------

def test_kv_workload_is_deterministic_per_seed():
    a = [next(kv_workload(seed=3)) for _ in range(1)]
    gen1 = kv_workload(seed=3)
    gen2 = kv_workload(seed=3)
    assert [next(gen1) for _ in range(20)] == \
        [next(gen2) for _ in range(20)]
    gen3 = kv_workload(seed=4)
    assert [next(gen1) for _ in range(20)] != \
        [next(gen3) for _ in range(20)]


def test_kv_workload_respects_read_ratio():
    gen = kv_workload(read_ratio=1.0, seed=0)
    ops = [next(gen)[0] for _ in range(50)]
    assert set(ops) == {"get"}
    gen = kv_workload(read_ratio=0.0, seed=0)
    ops = [next(gen)[0] for _ in range(50)]
    assert set(ops) == {"put"}


def test_read_only_workload_only_reads():
    gen = read_only_workload(seed=1)
    assert all(next(gen)[0] == "get" for _ in range(20))


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

def test_render_table_alignment_and_floats():
    out = render_table(["name", "value"], [["a", 1.23456], ["long", 2]])
    lines = out.splitlines()
    assert lines[0].startswith("name")
    assert "1.235" in out
    assert len(lines) == 4


def test_render_series_bars_scale():
    out = render_series("x", "y", [(1, 10.0), (2, 20.0)], width=10)
    lines = out.splitlines()
    assert lines[-1].count("#") == 10       # peak gets full width
    assert 4 <= lines[-2].count("#") <= 6   # half peak ~ half width


def test_render_series_empty():
    assert "(no data)" in render_series("x", "y", [])


def test_banner_contains_title():
    out = banner("Figure 9", "sub")
    assert "Figure 9" in out and "sub" in out


# ----------------------------------------------------------------------
# Closed-loop driver
# ----------------------------------------------------------------------


def test_closed_loop_think_time_stretches_duration():
    from repro import ServiceCluster

    def build():
        return ServiceCluster(read_optimized(timebound=5.0), KVStore,
                              n_servers=1,
                              default_link=LinkSpec(delay=0.001,
                                                    jitter=0.0))

    fast = ClosedLoopWorkload(lambda i: read_only_workload(seed=i),
                              calls_per_client=5).run(build())
    slow = ClosedLoopWorkload(lambda i: read_only_workload(seed=i),
                              calls_per_client=5,
                              think_time=0.1).run(build())
    assert slow.duration > fast.duration + 0.4
