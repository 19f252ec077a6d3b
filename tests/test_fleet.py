"""Tests for the fleet telemetry store and CLI (store.py / fleet.py).

The committed fixtures under ``tests/data/fleet/`` are run artifact
families (the first two copied from real ``results/telemetry/`` runs):

* ``C1-smoke`` — written *after* IPM tracing landed (``sdp.ipm_trace``
  events, audit conditions carrying ``convergence``/``recovery_rung``).
* ``C3-smoke`` — an older-schema trace with none of those fields.
* ``C5-smoke`` — a partially-written family: manifest with no recorded
  outcome plus a stale ``.status.json`` heartbeat (a killed run).

``tests/data/fleet_golden.json`` pins the exact ``fleet_summary``
aggregate over them.
"""

import json
import os

import pytest

from repro.telemetry import fleet_summary, load_run, scan_runs
from repro.telemetry.fleet import main as fleet_main
from repro.telemetry.fleet import render_fleet_text
from repro.telemetry.store import RunRecord, _system_and_scale

FIXTURES = os.path.join(os.path.dirname(__file__), "data", "fleet")
GOLDEN = os.path.join(os.path.dirname(__file__), "data", "fleet_golden.json")


# ----------------------------------------------------------------------
# parsing helpers
# ----------------------------------------------------------------------
def test_system_and_scale_parsing():
    assert _system_and_scale("table1/C1", "results/C1-smoke") == ("C1", "smoke")
    assert _system_and_scale("table1/C7", "x/C7-paper") == ("C7", "paper")
    assert _system_and_scale("unknown", "runs/C3-smoke") == ("C3", "smoke")
    assert _system_and_scale("unknown", "runs/mystery") == ("mystery", "unknown")


# ----------------------------------------------------------------------
# load_run over committed fixtures
# ----------------------------------------------------------------------
def test_load_run_new_schema_fixture():
    rec = load_run(os.path.join(FIXTURES, "C1-smoke.jsonl"), root=FIXTURES)
    assert rec is not None
    assert rec.base == "C1-smoke"
    assert rec.name == "table1/C1"
    assert rec.system == "C1"
    assert rec.scale == "smoke"
    assert rec.outcome == "success"
    assert rec.iterations == 2
    assert rec.n_events > 0
    assert not rec.truncated
    # IPM tracing fields present in the new schema
    assert rec.convergence
    assert sum(rec.convergence.values()) >= 1
    assert set(rec.convergence) <= {
        "healthy", "stalling", "diverging", "ill_conditioned", "unknown"
    }
    assert "verification" in rec.phases and "learning" in rec.phases


def test_load_run_old_schema_fixture_degrades_gracefully():
    rec = load_run(os.path.join(FIXTURES, "C3-smoke.jsonl"), root=FIXTURES)
    assert rec is not None
    assert rec.system == "C3"
    assert rec.outcome == "success"
    # pre-tracing artifacts contribute no convergence classes — and that
    # must not break indexing
    assert rec.convergence == {}


def test_load_run_missing_file_returns_none(tmp_path):
    assert load_run(str(tmp_path / "nope.jsonl")) is None


def test_load_run_all_malformed_returns_none(tmp_path):
    p = tmp_path / "junk.jsonl"
    p.write_text("not json\n{broken\n")
    assert load_run(str(p)) is None


def test_load_run_without_manifest_still_indexes(tmp_path):
    p = tmp_path / "orphan-smoke.jsonl"
    p.write_text('{"type":"span","name":"x","span_id":1,"parent_id":null,'
                 '"duration":0.5,"attrs":{"phase":"learning"}}\n')
    rec = load_run(str(p), root=str(tmp_path))
    assert rec is not None
    assert rec.name == "unknown"
    # no manifest at all == partially-written family: explicit marker
    assert rec.outcome == "incomplete"
    assert rec.incomplete
    assert rec.system == "orphan"
    assert rec.scale == "smoke"
    assert rec.phases == {"learning": 0.5}


def test_load_run_flags_truncated_trace(tmp_path):
    p = tmp_path / "cut-smoke.jsonl"
    p.write_text('{"type":"span","name":"x","span_id":1,"parent_id":null,'
                 '"duration":0.1,"attrs":{}}\n'
                 '{"type":"trace_truncated","max_bytes":100,"dropped_events":7}\n')
    rec = load_run(str(p))
    assert rec is not None
    assert rec.truncated


# ----------------------------------------------------------------------
# scan + aggregate
# ----------------------------------------------------------------------
def test_scan_runs_finds_all_fixtures():
    records = scan_runs(FIXTURES)
    assert [r.base for r in records] == ["C1-smoke", "C3-smoke", "C5-smoke"]


def test_load_run_partial_family_is_incomplete():
    rec = load_run(os.path.join(FIXTURES, "C5-smoke.jsonl"), root=FIXTURES)
    assert rec is not None
    assert rec.name == "table1/C5"
    assert rec.outcome == "incomplete"
    assert rec.incomplete
    assert rec.elapsed_seconds is None
    assert "learning" in rec.phases  # partial trace still contributes


def test_fleet_summary_aggregates_fixtures():
    summary = fleet_summary(scan_runs(FIXTURES))
    assert summary["kind"] == "fleet_summary"
    assert summary["n_runs"] == 3
    assert summary["n_incomplete"] == 1
    assert summary["n_systems"] == 3
    assert summary["outcomes"] == {"incomplete": 1, "success": 2}
    assert set(summary["systems"]) == {"C1", "C3", "C5"}
    assert len(summary["runs"]) == 3
    c1 = summary["systems"]["C1"]
    assert c1["runs"] == 1
    assert c1["scales"] == ["smoke"]
    assert c1["iterations"]["min"] == c1["iterations"]["max"] == 2
    assert c1["phase_seconds"]["verification"]["total"] > 0
    # the all-runs convergence histogram comes from the C1 trace alone
    assert summary["convergence"]
    assert summary["convergence"] == c1["convergence"]
    assert summary["systems"]["C3"]["convergence"] == {}


def test_fleet_summary_matches_committed_golden():
    summary = fleet_summary(scan_runs(FIXTURES))
    golden = json.load(open(GOLDEN))
    assert summary == golden


def test_fleet_summary_is_deterministic():
    a = fleet_summary(scan_runs(FIXTURES))
    b = fleet_summary(scan_runs(FIXTURES))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_fleet_summary_empty_records():
    summary = fleet_summary([])
    assert summary["n_runs"] == 0
    assert summary["systems"] == {}
    assert summary["runs"] == []


def test_run_record_to_dict_rounds_and_sorts():
    rec = RunRecord(base="x", elapsed_seconds=1.23456789,
                    phases={"b": 0.2, "a": float("inf")},
                    convergence={"healthy": 2})
    d = rec.to_dict()
    assert d["elapsed_seconds"] == 1.234568
    assert list(d["phases"]) == ["a", "b"]
    assert d["phases"]["a"] is None  # non-finite scrubbed for JSON
    assert json.dumps(d)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_fleet_cli_text_output(capsys):
    assert fleet_main([FIXTURES]) == 0
    out = capsys.readouterr().out
    assert "3 run(s) across 3 system(s)" in out
    assert "incomplete=1" in out
    assert "C1-smoke" in out and "C3-smoke" in out
    assert "== Systems ==" in out
    assert "IPM convergence classes" in out


def test_fleet_cli_json_matches_golden(capsys):
    assert fleet_main([FIXTURES, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == json.load(open(GOLDEN))


def test_fleet_cli_out_writes_document(tmp_path, capsys):
    out = str(tmp_path / "nested" / "fleet.json")
    assert fleet_main([FIXTURES, "--out", out]) == 0
    capsys.readouterr()
    doc = json.load(open(out))
    assert doc["kind"] == "fleet_summary"
    assert doc["n_runs"] == 3


def test_fleet_cli_empty_root(tmp_path, capsys):
    assert fleet_main([str(tmp_path)]) == 1
    assert "no run traces" in capsys.readouterr().err


def test_fleet_cli_missing_root(tmp_path, capsys):
    assert fleet_main([str(tmp_path / "absent")]) == 2
    assert "not a directory" in capsys.readouterr().err


# ----------------------------------------------------------------------
# partial / stale / empty results trees
# ----------------------------------------------------------------------
def test_scan_tolerates_stale_heartbeat_tree(tmp_path):
    """A tree holding only a mid-run family — trace plus a status
    heartbeat that stopped updating, no finalized manifest — indexes
    without crashing and flags the run ``incomplete``."""
    (tmp_path / "X1-smoke.jsonl").write_text(
        '{"type":"span","name":"snbc.learning","span_id":2,"parent_id":1,'
        '"duration":0.4,"attrs":{"phase":"learning"}}\n'
    )
    (tmp_path / "X1-smoke.status.json").write_text(json.dumps({
        "schema_version": 1, "name": "table1/X1", "pid": 999,
        "started_wall": 1786150000.0, "heartbeat_wall": 1786150002.0,
        "phase": "learning", "outcome": None, "workers": {},
    }))
    records = scan_runs(str(tmp_path))
    assert len(records) == 1  # the status sidecar is not its own run
    assert records[0].incomplete
    assert records[0].outcome == "incomplete"
    summary = fleet_summary(records)
    assert summary["n_incomplete"] == 1
    assert summary["outcomes"] == {"incomplete": 1}
    assert json.dumps(summary)


def test_scan_tolerates_torn_trailing_line(tmp_path):
    """A trace whose writer died mid-line (no trailing newline, torn
    JSON) still indexes from its complete prefix lines."""
    (tmp_path / "Y1-smoke.jsonl").write_text(
        '{"type":"span","name":"snbc.inclusion","span_id":2,"parent_id":1,'
        '"duration":0.2,"attrs":{"phase":"inclusion"}}\n'
        '{"type":"span","name":"snbc.lear'
    )
    records = scan_runs(str(tmp_path))
    assert len(records) == 1
    assert records[0].phases == {"inclusion": 0.2}
    assert records[0].incomplete


def test_render_fleet_text_marks_truncated():
    rec = RunRecord(base="cut-smoke", system="C9", scale="smoke",
                    outcome="error", truncated=True)
    text = render_fleet_text(fleet_summary([rec]))
    row = next(l for l in text.splitlines() if l.startswith("cut-smoke"))
    assert "yes" in row
