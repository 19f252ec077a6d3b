"""Tests for the Table-1 runner and its markdown/text renderers."""

import json

from repro.analysis import report
from repro.analysis.report import render_markdown, render_text, run_row


def bench_row(outcome, d_b, iterations, t_l, t_c, t_v, t_e):
    return {
        "outcome": outcome,
        "iterations": iterations,
        "stalled": False,
        "d_B": d_b,
        "timings": {"T_l": t_l, "T_c": t_c, "T_v": t_v, "T_e": t_e,
                    "inclusion": 0.0},
        "audit": None,
    }


def fake_systems():
    return {
        "C1": bench_row("success", 2, 1, 0.5, 0.0, 0.2, 0.7),
        "C9": bench_row("failure", 2, 4, 1.0, 0.5, 0.5, 2.0),
    }


def test_render_markdown():
    text = render_markdown(fake_systems(), "smoke")
    assert "| C1 | 2 | 3 | 2-10-1 |" in text  # static columns from the registry
    assert "| x |" in text  # failed row marked
    assert "1/2" in text
    assert "Mean T_e" in text


def test_render_text():
    text = render_text(fake_systems(), "smoke")
    assert "C1" in text and "C9" in text
    assert "T_e" in text


def test_run_row_single_system(tmp_path):
    row = run_row("C1", "smoke", trace_dir=str(tmp_path))
    assert row["outcome"] == "success"
    assert row["d_B"] == 2
    assert row["soundness"]["ok"]
    for suffix in ("jsonl", "manifest.json", "audit.json"):
        assert (tmp_path / f"C1-smoke.{suffix}").exists(), suffix


def test_cli_main(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(report, "TRACE_DIR", str(tmp_path / "telemetry"))
    md = tmp_path / "report.md"
    bench = tmp_path / "bench.json"
    code = report.main(["--systems", "C1", "--scale", "smoke",
                        "--out", str(bench), "--markdown", str(md)])
    assert code == 0
    assert "| C1 |" in md.read_text()
    doc = json.loads(bench.read_text())
    assert doc["kind"] == "BENCH_table1"
    assert doc["rows"]["C1"]["outcome"] == "success"
    stdout = capsys.readouterr().out
    assert "C1: ok" in stdout
    assert (tmp_path / "telemetry" / "C1-smoke.jsonl").exists()


def test_run_row_records_raise_as_error_row(tmp_path):
    row = run_row("C99", "smoke", trace_dir=str(tmp_path))
    assert row["outcome"] == "error"
    assert row["error"]["kind"] == "KeyError"
    assert row["timings"]["T_e"] == 0.0
