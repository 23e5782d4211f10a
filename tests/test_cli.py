"""The ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "RPC_Main" in out
    assert "micro-protocol catalog" in out
    assert "causal" in out   # extension choices are listed


def test_enumerate(capsys):
    assert main(["enumerate"]) == 0
    out = capsys.readouterr().out
    assert "198" in out and "186" in out and "11" in out


def test_demo(capsys):
    assert main(["demo", "--servers", "2", "--calls", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("OK") >= 2
    assert "keys: ['k0', 'k1']" in out


@pytest.mark.parametrize("ordering", ["none", "total"])
def test_trace(capsys, ordering):
    assert main(["trace", "--ordering", ordering]) == 0
    out = capsys.readouterr().out
    assert "rpc.call" in out and "server.execute" in out
    assert "first execution after" in out and "status OK" in out
    assert ("msg.Order" in out) == (ordering == "total")


def test_trace_config_emits_jsonl(capsys):
    assert main(["trace", "read-optimized", "--calls", "1"]) == 0
    out = capsys.readouterr().out
    lines = [json.loads(line) for line in out.splitlines()]
    spans = [l for l in lines if l["t"] == "span"]
    roots = [l for l in spans if l["parent"] is None]
    assert len(roots) == 1 and roots[0]["name"] == "rpc.call"
    # The tree reconstructs: every parent id exists.
    ids = {l["id"] for l in spans}
    assert all(l["parent"] in ids for l in spans if l["parent"] is not None)
    assert any(l["name"] == "server.execute" for l in spans)
    # Handler timings and the absorbed network counters ride along.
    assert any(l["t"] == "event" and l["kind"] == "handler" for l in lines)
    metrics = {l["name"] for l in lines if l["t"] == "metric"}
    assert "net.send" in metrics
    assert any(m.startswith("handler.") for m in metrics)
    assert any(m.startswith("kernel.") for m in metrics)


def test_trace_config_flame(capsys):
    assert main(["trace", "exactly-once", "--calls", "1", "--flame"]) == 0
    out = capsys.readouterr().out
    assert "rpc.call" in out and "server.execute" in out
    assert "RPC_Main" in out  # per-handler lines carry the owner


def test_trace_rejects_unknown_config():
    with pytest.raises(SystemExit):
        main(["trace", "no-such-config"])


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
