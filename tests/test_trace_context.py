"""Tests for cross-process trace propagation (repro.telemetry.context).

Covers the capture → worker_session → merge_shard protocol in-process
(deterministic, no pool): a single merged trace where every worker span
carries the run's ``trace_id`` and resolves to a parent span in the
parent process, and whose self-time totals equal the sum of the
per-process traces'.  The bench driver's ``--jobs`` pool exercises the
same protocol across real processes.
"""

import json
import os

import pytest

from repro.telemetry import session
from repro.telemetry.context import (
    TraceContext,
    capture,
    load_shard_events,
    merge_shard,
    merge_shard_events,
    worker_session,
)
from repro.telemetry.report import span_self_times


def read_trace(path):
    events = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


# ----------------------------------------------------------------------
# TraceContext serialization
# ----------------------------------------------------------------------
def test_trace_context_round_trip():
    ctx = TraceContext(trace_id="abc123", parent_span_id=7,
                       run_name="table1/C1", shard_index=2, profile=True)
    d = ctx.to_dict()
    assert d["schema_version"] == 1
    assert TraceContext.from_dict(d) == ctx
    assert TraceContext.from_dict(json.loads(json.dumps(d))) == ctx


def test_trace_context_from_dict_defaults():
    ctx = TraceContext.from_dict({"trace_id": "x"})
    assert ctx.parent_span_id is None
    assert ctx.shard_index == 0
    assert not ctx.profile


def test_capture_outside_session_returns_none():
    # the default-telemetry path: pool submissions stay exactly what they
    # were before trace propagation existed
    assert capture() is None


def test_capture_inside_session(tmp_path):
    trace = str(tmp_path / "run.jsonl")
    with session(trace, name="cap-test") as tel:
        with tel.span("submitting") as span:
            ctx = capture(shard_index=3)
            assert ctx is not None
            assert ctx.trace_id == tel.trace_id
            assert ctx.parent_span_id == span.span_id
            assert ctx.run_name == "cap-test"
            assert ctx.shard_index == 3


# ----------------------------------------------------------------------
# worker_session + merge, in-process (no pool — fully deterministic)
# ----------------------------------------------------------------------
def test_worker_merge_round_trip(tmp_path):
    trace = str(tmp_path / "run.jsonl")
    shard = str(tmp_path / "shard-0.jsonl")
    with session(trace, name="merge-test") as tel:
        tel.metrics.inc("parent.counter", 2)
        with tel.span("verify.parallel") as sub:
            ctx = capture(shard_index=0)
        submission_id = sub.span_id
        # the "worker": same process, own Telemetry via worker_session
        with worker_session(ctx, shard) as wtel:
            with wtel.span("sdp.solve", rung="base"):
                with wtel.span("ipm.iterate"):
                    pass
            wtel.metrics.inc("parent.counter", 5)
            wtel.metrics.observe("ipm.seconds", 0.25)
        stats = merge_shard(tel, shard)
        assert stats["spans"] == 2
        assert stats["shard"] == 0
        # same-process "worker": skew is (wall-perf) self-difference ~ 0
        assert abs(stats["clock_skew_s"]) < 0.05
        assert not os.path.exists(shard)  # consumed
        # worker metrics folded into the parent registry
        assert tel.metrics.counter_value("parent.counter") == 7
        run_trace_id = tel.trace_id

    events = read_trace(trace)
    spans = [e for e in events if e.get("type") == "span"]
    worker_spans = [e for e in spans if e.get("shard") == 0]
    parent_spans = [e for e in spans if "shard" not in e]
    assert len(worker_spans) == 2 and parent_spans
    by_id = {e["span_id"]: e for e in spans}
    assert len(by_id) == len(spans)  # remapped ids stay unique
    for w in worker_spans:
        assert w["trace_id"] == run_trace_id
        assert w["parent_id"] in by_id  # resolves inside the merged trace
        assert "clock_skew_s" in w and "pid" in w
    # the worker root hangs under the submission span
    root = next(w for w in worker_spans if w["name"] == "sdp.solve")
    assert root["parent_id"] == submission_id
    assert by_id[submission_id].get("shard") is None
    # the child remapped under its own root, not the parent's tree
    child = next(w for w in worker_spans if w["name"] == "ipm.iterate")
    assert child["parent_id"] == root["span_id"]
    # the folded histogram lands in the final metrics summary
    summary = next(e for e in events if e.get("type") == "metrics")["summary"]
    assert summary["histograms"]["ipm.seconds"]["count"] == 1
    # shard-protocol events are consumed, never re-emitted
    assert not any(e.get("type") == "worker_metrics" for e in events)


def test_merge_self_time_totals_match_per_process_sum(tmp_path):
    """Acceptance: self-time totals over the merged trace == sum of the
    per-process traces' totals (workers run concurrently, so a worker
    span must not subtract from its parent-process submission span)."""
    trace = str(tmp_path / "run.jsonl")
    shard = str(tmp_path / "shard-0.jsonl")
    with session(trace, name="selftime") as tel:
        with tel.span("verify.parallel"):
            ctx = capture(shard_index=0)
        with worker_session(ctx, shard) as wtel:
            with wtel.span("sdp.solve"):
                with wtel.span("ipm.iterate"):
                    pass
        shard_events = load_shard_events(shard)
        worker_total = sum(span_self_times(shard_events).values())
        merge_shard(tel, shard)
    merged = read_trace(trace)
    parent_only = [e for e in merged if "shard" not in e]
    parent_total = sum(span_self_times(parent_only).values())
    merged_total = sum(span_self_times(merged).values())
    assert merged_total == pytest.approx(parent_total + worker_total,
                                         rel=1e-9, abs=1e-12)


def test_merge_missing_or_torn_shard_is_harmless(tmp_path):
    trace = str(tmp_path / "run.jsonl")
    with session(trace, name="tolerant") as tel:
        stats = merge_shard(tel, str(tmp_path / "never-written.jsonl"))
        assert stats == {"events": 0, "spans": 0, "shard": None,
                         "clock_skew_s": 0.0}
        torn = tmp_path / "torn.jsonl"
        torn.write_text(
            '{"type":"trace_context","trace_id":"t","shard_index":1,'
            '"parent_span_id":null,"pid":1,"t_perf":0.0,"t_wall":0.0}\n'
            '{"type":"span","name":"ok","span_id":1,"parent_id":null,'
            '"t_start":0.1,"t_end":0.2,"duration":0.1,"attrs":{}}\n'
            '{"type":"span","name":"torn","span_id":2,"par'
        )
        stats = merge_shard(tel, str(torn))
        assert stats["spans"] == 1  # the torn line is skipped, not fatal


def test_merge_events_requires_no_anchor(tmp_path):
    # a shard written by a pre-anchor writer still merges (no remapping
    # guarantees, but no crash); skew defaults to 0
    trace = str(tmp_path / "run.jsonl")
    with session(trace, name="anchorless") as tel:
        stats = merge_shard_events(tel, [
            {"type": "span", "name": "x", "span_id": 1, "parent_id": None,
             "duration": 0.1, "attrs": {}},
        ])
        assert stats["spans"] == 1
        assert stats["clock_skew_s"] == 0.0
