"""Smoke test of the benchmark itself (not part of tier-1; run it
explicitly)::

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Runs the whole set at ``--smoke`` sizes and checks what later PRs rely
on: the result schema and metric names, that a seed fixes every exact
figure and changes the generated inputs, that tracing leaves behaviour
alone, and that the ledger accounts for the traced wall.
"""

import json
import pathlib
import re
import subprocess
import sys

import pytest

import catalog

HERE = pathlib.Path(__file__).resolve().parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def run_set(tmp_path, tag, *extra):
    out = tmp_path / f"{tag}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out",
         str(out), *extra],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text()), proc.stdout


def by_key(document):
    return {(run["workload"], run["trace"]): run
            for run in document["runs"]}


def exact_values(run):
    """Every figure a seed must reproduce to the last digit: the exact
    outcomes, the counts, and anything measured in virtual time."""
    exact = {m.name for m in catalog.EXACT}
    exact |= {m.name for m in catalog.LEDGER
              if m.unit == "count" or "virt" in m.name}
    return {name: metric["value"]
            for name, metric in run["metrics"].items() if name in exact}


@pytest.fixture(scope="module")
def full_set(tmp_path_factory):
    return run_set(tmp_path_factory.mktemp("perf"), "full")


def test_schema_and_names(full_set):
    document, stdout = full_set
    assert set(document["host"]) == {"rev", "python", "nproc", "cpu"}
    assert document["seed"] == 17
    runs = by_key(document)
    assert set(runs) == {(name, mode) for name in catalog.WORKLOADS
                         for mode in (0, 1)}
    for (name, mode), run in runs.items():
        assert run["correct"] and run["failed"] == 0, (name, mode)
        assert run["attempted"] >= 1
        wanted = (catalog.PER_LAYER if mode
                  else catalog.END_TO_END + catalog.EXACT)
        assert set(run["metrics"]) == {m.name for m in wanted}, (name, mode)
        for metric in wanted:
            assert run["metrics"][metric.name]["unit"] == metric.unit
    for metric in catalog.END_TO_END + catalog.PER_LAYER:
        assert NAME.match(metric.name), metric.name
        assert UNIT.match(metric.unit), metric
        assert metric.better in ("higher", "lower")
    names = [m.name for m in catalog.END_TO_END + catalog.PER_LAYER]
    assert len(names) == len(set(names))
    for name, why in catalog.WORKLOADS.items():
        assert NAME.match(name) and len(why) <= 200 and "\n" not in why
        assert f"== {name} " in stdout        # printed by name


def test_benchmark_json_matches_catalog():
    manifest = HERE.parent.parent / "BENCHMARK.json"
    assert json.loads(manifest.read_text()) == catalog.benchmark_json()
    assert 1 <= len(catalog.PER_LAYER) <= 128
    assert any(m.name == "setup_s" and m.unit == "s"
               and m.better == "lower" for m in catalog.END_TO_END)
    assert all(0 < m.bound <= 0.25 for m in catalog.END_TO_END)


def test_same_seed_is_byte_identical(full_set, tmp_path):
    document, _ = full_set
    again, _ = run_set(tmp_path, "again", "--trace", "1")
    first, second = by_key(document), by_key(again)
    for name in catalog.WORKLOADS:
        a, b = first[(name, 1)], second[(name, 1)]
        assert a["inputs"] == b["inputs"], name
        assert json.dumps(exact_values(a), sort_keys=True) == \
            json.dumps(exact_values(b), sort_keys=True), name


def test_other_seed_changes_the_keys(full_set, tmp_path):
    document, _ = full_set
    other, _ = run_set(tmp_path, "other", "--seed", "18", "--trace", "0")
    first, second = by_key(document), by_key(other)
    for name in catalog.WORKLOADS:
        assert first[(name, 0)]["inputs"] != second[(name, 0)]["inputs"]


def test_ledger_covers_the_traced_wall(full_set):
    document, _ = full_set
    for (name, mode), run in by_key(document).items():
        if not mode:
            continue
        metrics = run["metrics"]
        assert metrics["trace.ledger_coverage"]["value"] >= 0.95, name

        def bypassed(key):
            return metrics[key]["value"] == 0
        if name != "stub_bulk":
            assert bypassed("stubs.bytes_per_call"), name
        if name != "sharded_put_observed":
            assert bypassed("obs.self_us_per_call"), name
        if name == "minimal_rpc":
            assert bypassed("placement.self_us_per_call")
            assert bypassed("replication.self_us_per_call")
            assert bypassed("membership.self_us_per_call")
