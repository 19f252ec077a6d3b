"""Tests for live run-health streaming: status.json heartbeats
(repro.telemetry.status) and the tail CLI (repro.telemetry.tail),
plus crash durability of the line-flushed JSONL sink.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.telemetry import session
from repro.telemetry.status import StatusWriter, read_status
from repro.telemetry.tail import (
    _TraceFollower,
    classify,
    find_status_files,
    format_event,
    heartbeat_age,
    main as tail_main,
    render_fleet_board,
    render_status_line,
    resolve_run_status_path,
)


# ----------------------------------------------------------------------
# StatusWriter
# ----------------------------------------------------------------------
def test_status_writer_creates_file_immediately(tmp_path):
    path = str(tmp_path / "run.status.json")
    writer = StatusWriter(path, name="table1/C1", trace_id="abc")
    status = read_status(path)
    assert status is not None
    assert status["name"] == "table1/C1"
    assert status["trace_id"] == "abc"
    assert status["pid"] == os.getpid()
    assert status["outcome"] is None
    assert isinstance(status["heartbeat_wall"], float)
    writer.finish("success")


def test_status_writer_throttles_but_never_drops(tmp_path):
    path = str(tmp_path / "run.status.json")
    writer = StatusWriter(path, min_interval_s=3600.0)  # never due
    for i in range(20):
        writer.update(ipm_iteration=i)
    # throttled: the file still shows the initial write...
    assert "ipm_iteration" not in (read_status(path) or {})
    # ...but the state rode along and lands with the next forced write
    writer.update(force=True, cegis_iteration=1)
    status = read_status(path)
    assert status["ipm_iteration"] == 19
    assert status["cegis_iteration"] == 1


def test_status_writer_force_fields_bypass_throttle(tmp_path):
    path = str(tmp_path / "run.status.json")
    writer = StatusWriter(path, min_interval_s=3600.0)
    writer.update(phase="learning")  # phase change forces a write
    assert read_status(path)["phase"] == "learning"
    writer.update(phase="learning", learner_epoch=5)  # unchanged: throttled
    assert "learner_epoch" not in read_status(path)
    writer.update(ipm_convergence="diverging")  # health transition forces
    assert read_status(path)["ipm_convergence"] == "diverging"


def test_status_writer_worker_lanes(tmp_path):
    path = str(tmp_path / "run.status.json")
    writer = StatusWriter(path, min_interval_s=0.0)
    writer.worker_update(0, state="submitted", task="init")
    writer.worker_update(1, state="submitted", task="unsafe")
    writer.worker_update(0, state="done")
    lanes = read_status(path)["workers"]
    assert lanes["0"]["state"] == "done"
    assert lanes["1"]["state"] == "submitted"
    assert isinstance(lanes["0"]["heartbeat_wall"], float)


def test_status_writer_finish_is_terminal(tmp_path):
    path = str(tmp_path / "run.status.json")
    writer = StatusWriter(path, min_interval_s=0.0)
    writer.finish("success", cegis_iteration=3)
    writer.update(force=True, phase="zombie")  # ignored after finish
    status = read_status(path)
    assert status["outcome"] == "success"
    assert status["cegis_iteration"] == 3
    assert status["phase"] is None


def test_status_writer_leaves_no_temp_files(tmp_path):
    path = str(tmp_path / "run.status.json")
    writer = StatusWriter(path, min_interval_s=0.0)
    for i in range(10):
        writer.update(force=True, i=i)
    writer.finish("success")
    assert sorted(os.listdir(tmp_path)) == ["run.status.json"]


def test_failed_atomic_writes_leave_no_temp_files(tmp_path, monkeypatch):
    from repro.diagnostics import bench_document, write_bench

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    writer = StatusWriter(str(tmp_path / "run.status.json"),
                          min_interval_s=0.0)  # must not raise
    writer.update(force=True, phase="learning")
    writer.finish("success")
    with pytest.raises(OSError):
        write_bench(str(tmp_path / "BENCH.json"),
                    bench_document("BENCH_table1", "smoke", {}))
    assert list(tmp_path.glob("*.tmp")) == []
    assert list(tmp_path.glob(".*.tmp")) == []


def test_read_status_missing_and_malformed(tmp_path):
    assert read_status(str(tmp_path / "absent.json")) is None
    bad = tmp_path / "bad.json"
    bad.write_text("{torn")
    assert read_status(str(bad)) is None


def test_session_attaches_and_finishes_status(tmp_path):
    trace = str(tmp_path / "run.jsonl")
    with session(trace, name="status-test") as tel:
        tel.status_update(phase="learning", cegis_iteration=2)
        mid = read_status(str(tmp_path / "run.status.json"))
        assert mid["phase"] == "learning"
        assert mid["outcome"] is None
        assert mid["trace_id"] == tel.trace_id
    done = read_status(str(tmp_path / "run.status.json"))
    assert done["outcome"] == "success"


# ----------------------------------------------------------------------
# liveness classification (pure functions)
# ----------------------------------------------------------------------
NOW = 1786150200.0


def test_classify_outcome_wins():
    assert classify({"outcome": "success", "heartbeat_wall": 0.0}, NOW) == "SUCCESS"
    assert classify({"outcome": "error", "heartbeat_wall": NOW}, NOW) == "ERROR"


def test_classify_by_heartbeat_age():
    assert classify({"heartbeat_wall": NOW - 1.0}, NOW) == "RUNNING"
    assert classify({"heartbeat_wall": NOW - 60.0}, NOW) == "STALLED"
    assert classify({"heartbeat_wall": NOW - 600.0}, NOW) == "DEAD"
    assert classify({}, NOW) == "DEAD"  # no heartbeat at all
    # thresholds are parameters
    assert classify({"heartbeat_wall": NOW - 60.0}, NOW,
                    stale_after=90.0, dead_after=120.0) == "RUNNING"


def test_heartbeat_age():
    assert heartbeat_age({"heartbeat_wall": NOW - 5.0}, NOW) == 5.0
    assert heartbeat_age({}, NOW) is None
    assert heartbeat_age({"heartbeat_wall": "?"}, NOW) is None


def test_render_status_line_contents():
    line = render_status_line({
        "name": "table1/C3", "phase": "verification",
        "heartbeat_wall": NOW - 2.0, "cegis_iteration": 4,
        "ipm_iteration": 17, "ipm_convergence": "healthy",
        "cex_total": 9, "recovery_rung": "jitter",
        "budget_remaining_s": 42.5,
        "workers": {"0": {"heartbeat_wall": NOW - 1.0},
                    "1": {"heartbeat_wall": NOW - 500.0}},
    }, NOW)
    assert "RUNNING" in line and "table1/C3" in line
    assert "it=4" in line and "ipm=17/healthy" in line
    assert "cex=9" in line and "rung=jitter" in line
    assert "workers=1/2" in line  # one lane's heartbeat went stale
    assert "budget=42s" in line and "beat=2s" in line


def test_render_fleet_board_orders_running_first():
    statuses = [
        ("a", {"name": "z-done", "outcome": "success",
               "heartbeat_wall": NOW - 900.0}),
        ("b", {"name": "m-stalled", "heartbeat_wall": NOW - 60.0}),
        ("c", {"name": "a-live", "heartbeat_wall": NOW - 1.0}),
    ]
    lines = render_fleet_board(statuses, NOW)
    assert [l.split()[1] for l in lines] == ["a-live", "m-stalled", "z-done"]


def test_render_fleet_board_empty():
    assert render_fleet_board([], NOW) == ["(no status.json heartbeats found)"]


# ----------------------------------------------------------------------
# overlapping in-process runs on one fleet board (acceptance)
# ----------------------------------------------------------------------
def test_fleet_board_shows_two_overlapping_runs(tmp_path):
    with session(str(tmp_path / "A-smoke.jsonl"), name="table1/A") as ta:
        ta.status_update(phase="learning", force=True)
        with session(str(tmp_path / "B-smoke.jsonl"), name="table1/B") as tb:
            tb.status_update(phase="verification", force=True)
            now = time.time()
            statuses = [(p, read_status(p))
                        for p in find_status_files(str(tmp_path))]
            lines = render_fleet_board(statuses, now)
            assert len(lines) == 2
            assert all(l.startswith("RUNNING") for l in lines)
            assert any("table1/A" in l and "learning" in l for l in lines)
            assert any("table1/B" in l and "verification" in l for l in lines)
    # both sessions closed: the same board now shows outcomes
    now = time.time()
    statuses = [(p, read_status(p)) for p in find_status_files(str(tmp_path))]
    assert all(l.startswith("SUCCESS")
               for l in render_fleet_board(statuses, now))


# ----------------------------------------------------------------------
# discovery + event stream helpers
# ----------------------------------------------------------------------
def test_resolve_run_status_path_variants(tmp_path):
    base = tmp_path / "C1-smoke"
    status = tmp_path / "C1-smoke.status.json"
    status.write_text("{}")
    assert resolve_run_status_path(str(status)) == str(status)
    assert resolve_run_status_path(str(base) + ".jsonl") == str(status)
    assert resolve_run_status_path(str(base)) == str(status)
    assert resolve_run_status_path(str(tmp_path)) == str(status)
    assert resolve_run_status_path(str(tmp_path / "nope")) is None


def test_format_event_skips_spans_and_protocol():
    assert format_event({"type": "span", "name": "x"}) is None
    assert format_event({"type": "metrics"}) is None
    assert format_event({"type": "trace_context"}) is None
    line = format_event({"type": "cegis.iteration", "iteration": 2,
                         "wall": 1.0, "nested": {"drop": 1}})
    assert line == "  [cegis.iteration] iteration=2"


def test_trace_follower_incremental_and_torn_lines(tmp_path):
    path = tmp_path / "run.jsonl"
    path.write_text('{"type":"a"}\n{"type":"b"}\n')
    follower = _TraceFollower(str(path))
    assert [e["type"] for e in follower.poll()] == ["a", "b"]
    assert follower.poll() == []  # nothing new
    with open(path, "a") as fh:
        fh.write('{"type":"c"}\n{"type":"d"')  # torn last line
    assert [e["type"] for e in follower.poll()] == ["c"]
    with open(path, "a") as fh:
        fh.write('}\n')  # completes the torn line
    assert [e["type"] for e in follower.poll()] == ["d"]


# ----------------------------------------------------------------------
# tail CLI
# ----------------------------------------------------------------------
def test_tail_cli_single_run_once(tmp_path, capsys):
    with session(str(tmp_path / "C1-smoke.jsonl"), name="table1/C1") as tel:
        tel.event("cegis.iteration", iteration=1)
        tel.status_update(phase="learning", cegis_iteration=1, force=True)
    assert tail_main([str(tmp_path / "C1-smoke"), "--once"]) == 0
    out = capsys.readouterr().out
    assert "table1/C1" in out
    assert "[cegis.iteration]" in out
    assert "SUCCESS" in out


def test_tail_cli_follows_to_outcome(tmp_path, capsys):
    with session(str(tmp_path / "C2-smoke.jsonl"), name="table1/C2") as tel:
        tel.status_update(phase="verification", force=True)
    # run already finished: the follow loop sees the outcome and exits 0
    assert tail_main([str(tmp_path / "C2-smoke"), "--interval", "0.01"]) == 0
    assert "SUCCESS" in capsys.readouterr().out


def test_tail_cli_no_status_found(tmp_path, capsys):
    assert tail_main([str(tmp_path / "ghost"), "--once"]) == 2
    assert "no status.json" in capsys.readouterr().err


def test_tail_cli_fleet_once(tmp_path, capsys):
    with session(str(tmp_path / "C1-smoke.jsonl"), name="table1/C1"):
        pass
    stale = StatusWriter(str(tmp_path / "C9-smoke.status.json"),
                         name="table1/C9")
    stale.state["heartbeat_wall"] = time.time() - 1e6  # ancient heartbeat
    with open(stale.path, "w") as fh:
        json.dump(stale.state, fh)
    assert tail_main(["--fleet", str(tmp_path), "--once"]) == 0
    out = capsys.readouterr().out
    assert "2 run(s)" in out
    assert "SUCCESS" in out and "table1/C1" in out
    assert "DEAD" in out and "table1/C9" in out  # dead-heartbeat detection


# ----------------------------------------------------------------------
# crash durability (satellite: line-granular flush)
# ----------------------------------------------------------------------
def test_sigkilled_run_trace_ends_on_complete_line(tmp_path):
    """SIGKILL a live traced run: with ``flush_every=1`` every emitted
    event is already on disk and the trace ends on a complete JSON line
    (a buffered sink would lose the userspace tail wholesale)."""
    trace = str(tmp_path / "victim.jsonl")
    child = (
        "import sys, time\n"
        "from repro.telemetry import session\n"
        "with session(sys.argv[1], name='victim') as tel:\n"
        "    for i in range(50):\n"
        "        tel.event('tick', i=i)\n"
        "    print('READY', flush=True)\n"
        "    time.sleep(60)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ["src", env.get("PYTHONPATH", "")] if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", child, trace],
        stdout=subprocess.PIPE, cwd=os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), env=env,
    )
    try:
        assert proc.stdout.readline().strip() == b"READY"
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
    with open(trace, "rb") as fh:
        raw = fh.read()
    assert raw.endswith(b"\n")  # ends on a complete line
    events = [json.loads(line) for line in raw.decode().splitlines()]
    ticks = [e for e in events if e.get("type") == "tick"]
    assert len(ticks) == 50  # nothing emitted before the kill was lost
    # killed mid-run: no outcome ever recorded — the run reads incomplete
    status = read_status(trace[:-6] + ".status.json")
    assert status is not None and status["outcome"] is None
    assert classify(status, time.time() + 1e6) == "DEAD"
