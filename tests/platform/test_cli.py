"""Unit tests for the CLI."""

import json

import pytest

from repro.cli import main


def test_policies_command(capsys):
    assert main(["policies"]) == 0
    out = capsys.readouterr().out
    assert "adaptive" in out
    assert "converged" in out


def test_demo_command(capsys):
    assert main(["demo", "--duration", "600", "--policy", "adaptive"]) == 0
    out = capsys.readouterr().out
    assert "demo" in out
    assert "PLO violations" in out
    assert "cluster: mean usage" in out


def test_demo_static_policy(capsys):
    assert main(["demo", "--duration", "300", "--policy", "static"]) == 0


def test_run_command(tmp_path, capsys):
    config = {
        "seed": 1,
        "duration": 600,
        "cluster": {"nodes": 3},
        "workloads": [
            {
                "kind": "micro",
                "name": "api",
                "trace": {"kind": "constant", "value": 50},
                "demands": {"cpu_seconds": 0.01},
                "allocation": {"cpu": 1, "memory": 1, "disk_bw": 10,
                               "net_bw": 10},
                "plo": {"kind": "latency", "target": 0.1},
            }
        ],
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "api" in out
    assert "alloc cost" in out


def test_run_duration_override(tmp_path, capsys):
    config = {"duration": 86_400, "cluster": {"nodes": 2}}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--duration", "60"]) == 0
    assert "0.02 h" in capsys.readouterr().out


def test_run_missing_file(capsys):
    assert main(["run", "/nonexistent.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_run_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{\"workloads\": [{}]}")
    assert main(["run", str(path)]) == 2


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_trace_command_chrome(tmp_path, capsys):
    out = tmp_path / "run.json"
    assert main(["trace", str(out), "--duration", "600"]) == 0
    doc = json.loads(out.read_text())
    events = doc["traceEvents"]
    assert events
    stdout = capsys.readouterr().out
    assert "trace events" in stdout
    assert "provenance records" in stdout
    # At least one applied actuation chains back to a scrape round.
    by_id = {e["args"]["span_id"]: e for e in events
             if e["ph"] == "X" and "span_id" in e.get("args", {})}
    chained = 0
    for event in by_id.values():
        if (event["name"] != "actuate"
                or event["args"].get("outcome") != "applied"):
            continue
        node = event
        while node is not None and node["name"] != "scrape":
            node = by_id.get(node["args"].get("parent_id"))
        chained += node is not None
    assert chained >= 1


def test_trace_command_jsonl(tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    assert main(["trace", str(out), "--format", "jsonl",
                 "--duration", "600"]) == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    kinds = {line["type"] for line in lines}
    assert "span" in kinds
    assert "provenance" in kinds
    assert "JSONL lines" in capsys.readouterr().out


def test_trace_command_filter_and_since(tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    assert main(["trace", str(out), "--format", "jsonl",
                 "--duration", "600", "--filter", "actuate",
                 "--since", "300"]) == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    spans = [line for line in lines if line["type"] == "span"]
    assert spans
    assert all(line["name"].startswith("actuate") for line in spans)
    assert all(line["start"] >= 300.0 for line in spans)


def test_report_command_calm(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["report", "calm", "--duration", "600",
                 "--output", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "svc_latency" in stdout
    assert "overall attainment" in stdout
    doc = json.loads(out.read_text())
    assert doc["schema"] == "repro.run_report/v1"
    assert doc["slos"]["svc_latency"]["attainment"] == 1.0


def test_report_command_unknown_scenario():
    with pytest.raises(SystemExit):
        main(["report", "atlantis"])
