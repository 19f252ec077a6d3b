"""Tests for the telemetry subsystem (spans, metrics, manifest, report)."""

import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.telemetry import (
    InMemorySink,
    JSONLSink,
    MetricsRegistry,
    NullSink,
    RunManifest,
    Telemetry,
    Tracer,
    configure,
    disable,
    get_telemetry,
    load_events,
    platform_info,
    session,
)
from repro.telemetry.metrics import percentile
from repro.telemetry.report import (
    cache_rates,
    ipm_subphase_totals,
    metrics_summary,
    phase_totals,
    render_report,
    report_payload,
    span_aggregates,
    span_self_times,
)
from repro.telemetry.__main__ import main as cli_main


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_nested_spans_record_parent_ids():
    sink = InMemorySink()
    tracer = Tracer(sink)
    with tracer.span("outer") as outer:
        with tracer.span("middle") as middle:
            with tracer.span("inner"):
                pass
        assert middle.parent_id == outer.span_id
    events = sink.spans()
    assert [e["name"] for e in events] == ["inner", "middle", "outer"]
    by_name = {e["name"]: e for e in events}
    assert by_name["inner"]["parent_id"] == by_name["middle"]["span_id"]
    assert by_name["middle"]["parent_id"] == by_name["outer"]["span_id"]
    assert by_name["outer"]["parent_id"] is None


def test_span_durations_and_attrs():
    sink = InMemorySink()
    tracer = Tracer(sink)
    with tracer.span("work", kind="test") as sp:
        time.sleep(0.01)
        sp.set_attr("items", 3)
    event = sink.spans("work")[0]
    assert event["duration"] >= 0.01
    assert event["t_end"] >= event["t_start"]
    assert event["attrs"] == {"kind": "test", "items": 3}


def test_span_records_exceptions_and_reraises():
    sink = InMemorySink()
    tracer = Tracer(sink)
    with pytest.raises(RuntimeError):
        with tracer.span("explodes"):
            raise RuntimeError("boom")
    event = sink.spans("explodes")[0]
    assert "RuntimeError: boom" in event["attrs"]["error"]


def test_disabled_tracer_times_but_emits_nothing():
    sink = InMemorySink()
    tracer = Tracer(sink, enabled=False)
    with tracer.span("quiet") as sp:
        pass
    assert sp.duration >= 0.0
    assert sink.events == []


def test_noop_span_overhead_is_small():
    tel = Telemetry(NullSink(), enabled=False)
    n = 5000
    t0 = time.perf_counter()
    for _ in range(n):
        with tel.span("hot"):
            pass
        tel.metrics.inc("c")
        tel.metrics.observe("h", 1.0)
    per_call = (time.perf_counter() - t0) / n
    # generous CI bound; the actual cost is a few microseconds
    assert per_call < 200e-6


def test_tracer_is_thread_safe():
    sink = InMemorySink()
    tracer = Tracer(sink)

    def worker(tag):
        for _ in range(50):
            with tracer.span(f"w{tag}"):
                pass

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(sink.spans()) == 200
    ids = [e["span_id"] for e in sink.spans()]
    assert len(set(ids)) == len(ids)  # unique ids across threads


# ----------------------------------------------------------------------
# JSONL round-trip
# ----------------------------------------------------------------------
def test_jsonl_round_trip(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    sink = JSONLSink(path)
    tracer = Tracer(sink)
    with tracer.span("phase1", phase="learning"):
        with tracer.span("sub", detail=1):
            pass
    tracer.emit_event("note", text="hello")
    sink.close()

    events = load_events(path)
    assert [e["type"] for e in events] == ["span", "span", "note"]
    spans = [e for e in events if e["type"] == "span"]
    assert spans[0]["name"] == "sub"
    assert spans[1]["attrs"]["phase"] == "learning"
    assert spans[0]["parent_id"] == spans[1]["span_id"]


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def test_percentile_interpolation():
    vals = sorted(float(v) for v in range(1, 101))
    assert percentile(vals, 0.0) == 1.0
    assert percentile(vals, 100.0) == 100.0
    assert percentile(vals, 50.0) == pytest.approx(50.5)
    assert percentile(vals, 95.0) == pytest.approx(95.05)
    assert percentile([7.0], 95.0) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50.0)
    with pytest.raises(ValueError):
        percentile([1.0], 150.0)


def test_metrics_registry_summary():
    reg = MetricsRegistry()
    reg.inc("runs")
    reg.inc("runs", 2)
    reg.gauge("loss", 0.5)
    reg.gauge("loss", 0.25)
    for v in range(1, 101):
        reg.observe("lat", float(v))
    summary = reg.summary()
    assert summary["counters"]["runs"] == 3.0
    assert summary["gauges"]["loss"] == 0.25
    hist = summary["histograms"]["lat"]
    assert hist["count"] == 100
    assert hist["min"] == 1.0
    assert hist["max"] == 100.0
    assert hist["p50"] == pytest.approx(50.5)
    assert hist["p95"] == pytest.approx(95.05)


def test_histogram_p99_max_and_to_dict():
    reg = MetricsRegistry()
    for v in range(1, 101):
        reg.observe("lat", float(v))
    hist = reg.summary()["histograms"]["lat"]
    assert hist["p99"] == pytest.approx(99.01)
    assert hist["max"] == 100.0
    assert hist["p50"] <= hist["p95"] <= hist["p99"] <= hist["max"]
    # to_dict is the JSON-ready alias the diagnostics reports consume
    assert reg.to_dict() == reg.summary()
    assert json.dumps(reg.to_dict())  # serializable as-is


def test_disabled_metrics_record_nothing():
    reg = MetricsRegistry(enabled=False)
    reg.inc("a")
    reg.gauge("b", 1.0)
    reg.observe("c", 2.0)
    summary = reg.summary()
    assert summary == {"counters": {}, "gauges": {}, "histograms": {}}


# ----------------------------------------------------------------------
# manifest
# ----------------------------------------------------------------------
def test_manifest_schema(tmp_path):
    from repro.cegis import SNBCConfig

    manifest = RunManifest.create(
        "unit-test", config=SNBCConfig(seed=7), seed=7, trace_path="t.jsonl"
    )
    manifest.finish("success", iterations=3)
    path = str(tmp_path / "run.manifest.json")
    manifest.write(path)
    loaded = RunManifest.load(path)
    for key in (
        "name", "seed", "config", "trace_path", "git_sha", "platform",
        "started_at", "finished_at", "outcome", "elapsed_seconds",
        "extra", "schema_version",
    ):
        assert key in loaded, key
    assert loaded["name"] == "unit-test"
    assert loaded["seed"] == 7
    assert loaded["outcome"] == "success"
    assert loaded["config"]["seed"] == 7  # dataclass echoed as dict
    assert loaded["extra"]["iterations"] == 3
    assert loaded["elapsed_seconds"] >= 0.0
    assert loaded["platform"]["python"] == platform_info()["python"]


# ----------------------------------------------------------------------
# runtime / session
# ----------------------------------------------------------------------
def test_default_telemetry_is_disabled():
    tel = get_telemetry()
    assert not tel.enabled
    with tel.span("anything") as sp:
        pass
    assert sp.duration >= 0.0


def test_configure_and_disable_swap_default():
    sink = InMemorySink()
    tel = configure(sink)
    try:
        assert get_telemetry() is tel
        with get_telemetry().span("visible"):
            pass
        assert len(sink.spans("visible")) == 1
    finally:
        disable()
    assert not get_telemetry().enabled


def test_session_writes_trace_and_manifest(tmp_path):
    trace = str(tmp_path / "run.jsonl")
    with session(trace, name="sess", config={"k": 1}, seed=42) as tel:
        assert get_telemetry() is tel
        with tel.span("snbc.learning", phase="learning"):
            pass
        tel.metrics.inc("cegis.iterations")
    # default restored, files written
    assert not get_telemetry().enabled
    events = load_events(trace)
    assert any(e["type"] == "span" for e in events)
    assert events[-1]["type"] == "metrics"
    assert events[-1]["summary"]["counters"]["cegis.iterations"] == 1.0
    manifest = RunManifest.load(str(tmp_path / "run.manifest.json"))
    assert manifest["seed"] == 42
    assert manifest["outcome"] == "success"
    assert manifest["config"] == {"k": 1}


def test_concurrent_sessions_do_not_interleave(tmp_path):
    """Two sessions in sibling threads must each get their own sink.

    Before per-context activation this interleaved both runs' events
    into whichever trace was installed last.
    """
    barrier = threading.Barrier(2)
    errors = []

    def run(tag):
        trace = str(tmp_path / f"{tag}.jsonl")
        try:
            with session(trace, name=tag) as tel:
                barrier.wait(timeout=10)  # both sessions open at once
                for i in range(20):
                    with tel.span(f"work.{tag}", i=i):
                        pass
                tel.metrics.inc(f"count.{tag}", 20)
                barrier.wait(timeout=10)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(t,)) for t in ("a", "b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    for tag, other in (("a", "b"), ("b", "a")):
        events = load_events(str(tmp_path / f"{tag}.jsonl"))
        spans = [e for e in events if e.get("type") == "span"]
        assert len(spans) == 20
        assert all(e["name"] == f"work.{tag}" for e in spans)
        counters = events[-1]["summary"]["counters"]
        assert counters == {f"count.{tag}": 20.0}
        assert f"count.{other}" not in counters


def test_session_is_context_scoped_not_global(tmp_path):
    """A thread spawned outside any session keeps the disabled default
    even while another thread has a session open."""
    seen = {}
    started = threading.Event()
    release = threading.Event()

    def outsider():
        started.wait(timeout=10)
        seen["enabled"] = get_telemetry().enabled
        release.set()

    t = threading.Thread(target=outsider)
    t.start()
    with session(str(tmp_path / "scoped.jsonl"), name="scoped"):
        started.set()
        release.wait(timeout=10)
    t.join()
    assert seen["enabled"] is False


def test_session_marks_errors(tmp_path):
    trace = str(tmp_path / "bad.jsonl")
    with pytest.raises(ValueError):
        with session(trace, name="boom"):
            raise ValueError("nope")
    manifest = RunManifest.load(str(tmp_path / "bad.manifest.json"))
    assert manifest["outcome"] == "error"
    assert "nope" in manifest["extra"]["error"]
    assert not get_telemetry().enabled


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
def _sample_trace(tmp_path):
    trace = str(tmp_path / "t.jsonl")
    with session(trace, name="report-test", seed=0) as tel:
        for phase, secs in (("learning", 0.0), ("verification", 0.0)):
            with tel.span(f"snbc.{phase}", phase=phase):
                pass
        with tel.span("sdp.solve"):
            pass
        tel.metrics.inc("cegis.iterations", 2)
        tel.metrics.gauge("cegis.loss", 0.01)
        tel.metrics.observe("sdp.iterations", 12.0)
    return trace


def test_phase_totals_skip_unphased_spans(tmp_path):
    events = load_events(_sample_trace(tmp_path))
    totals = phase_totals(events)
    assert set(totals) == {"learning", "verification"}
    aggregates = {name for name, *_ in span_aggregates(events)}
    assert "sdp.solve" in aggregates
    assert metrics_summary(events)["counters"]["cegis.iterations"] == 2.0


def test_render_report_text_and_markdown(tmp_path):
    events = load_events(_sample_trace(tmp_path))
    text = render_report(report_payload(events), "text")
    assert "Phases" in text and "learning" in text and "cegis.iterations" in text
    md = render_report(report_payload(events), "markdown")
    assert "## Phases" in md and "| phase |" in md


def test_cache_rates_pairs_hit_miss_counters():
    rows = cache_rates({
        "verifier.workspace.hits": 3.0,
        "verifier.workspace.misses": 1.0,
        "poly.compile_cache.misses": 2.0,  # cold cache: misses only
        "cegis.iterations": 5.0,           # not a cache counter
    })
    assert rows == [
        ("poly.compile_cache", 0, 2, 0.0),
        ("verifier.workspace", 3, 1, 0.75),
    ]
    assert cache_rates({"cegis.iterations": 5.0}) == []


def test_render_report_caches_section(tmp_path):
    trace = str(tmp_path / "caches.jsonl")
    with session(trace, name="cache-test") as tel:
        tel.metrics.inc("verifier.workspace.hits", 3)
        tel.metrics.inc("verifier.workspace.misses")
    events = load_events(trace)
    text = render_report(report_payload(events), "text")
    assert "Caches" in text and "verifier.workspace" in text and "75.0%" in text


def test_report_cli_main(tmp_path, capsys):
    trace = _sample_trace(tmp_path)
    assert cli_main(["report", trace]) == 0
    out = capsys.readouterr().out
    # manifest auto-detected next to the trace
    assert "report-test" in out
    assert "learning" in out
    assert "sdp.iterations" in out


def test_report_cli_json_format(tmp_path, capsys):
    trace = _sample_trace(tmp_path)
    assert cli_main(["report", trace, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"manifest", "phases", "spans", "metrics",
                            "caches", "ipm_subphases", "convergence",
                            "audit"}
    assert payload["manifest"]["name"] == "report-test"
    assert set(payload["phases"]) == {"learning", "verification"}
    assert payload["metrics"]["counters"]["cegis.iterations"] == 2.0
    assert any(s["name"] == "sdp.solve" for s in payload["spans"])


def test_report_cli_all_lines_malformed_fails(tmp_path, capsys):
    trace = str(tmp_path / "garbage.jsonl")
    with open(trace, "w") as fh:
        fh.write("not json\n{also broken\n")
    assert cli_main(["report", trace]) == 1
    assert "malformed" in capsys.readouterr().err


def test_report_cli_unreadable_trace(tmp_path, capsys):
    assert cli_main(["report", str(tmp_path / "absent.jsonl")]) == 2
    assert "cannot read trace" in capsys.readouterr().err


def test_report_cli_partial_corruption_warns(tmp_path, capsys):
    trace = _sample_trace(tmp_path)
    with open(trace, "a") as fh:
        fh.write('{"type": "span", "name": "tru')  # crash mid-write
    assert cli_main(["report", trace]) == 0
    captured = capsys.readouterr()
    assert "skipped 1 malformed line" in captured.err
    assert "learning" in captured.out


def test_import_telemetry_stays_stdlib_only():
    """The package and its CLI module load neither numpy nor
    repro.diagnostics: each subcommand imports those when it runs."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    child = (
        "import sys, repro.telemetry, repro.telemetry.__main__\n"
        "bad = [m for m in ('numpy', 'repro.diagnostics') if m in sys.modules]\n"
        "print(','.join(bad))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def _span_event(name, span_id, parent_id, duration):
    return {"type": "span", "name": name, "span_id": span_id,
            "parent_id": parent_id, "duration": duration, "attrs": {}}


def test_span_self_times_subtract_direct_children():
    events = [
        _span_event("leaf", 3, 2, 0.2),
        _span_event("mid", 2, 1, 0.5),
        _span_event("root", 1, None, 1.0),
    ]
    selfs = span_self_times(events)
    assert selfs[3] == pytest.approx(0.2)   # leaf: no children
    assert selfs[2] == pytest.approx(0.3)   # 0.5 - 0.2
    assert selfs[1] == pytest.approx(0.5)   # 1.0 - 0.5 (direct child only)


def test_span_self_times_floor_at_zero():
    # clock jitter: children sum past the parent
    events = [
        _span_event("kid", 2, 1, 0.6),
        _span_event("kid", 3, 1, 0.6),
        _span_event("root", 1, None, 1.0),
    ]
    assert span_self_times(events)[1] == 0.0


def test_span_aggregates_include_self_column():
    events = [
        _span_event("inner", 2, 1, 0.4),
        _span_event("outer", 1, None, 1.0),
    ]
    rows = {name: (count, total, self_total, mean, mx)
            for name, count, total, self_total, mean, mx
            in span_aggregates(events)}
    assert rows["outer"][1] == pytest.approx(1.0)   # total is inclusive
    assert rows["outer"][2] == pytest.approx(0.6)   # self excludes child
    assert rows["inner"][2] == pytest.approx(0.4)
    text = render_report(report_payload(events), "text")
    assert "self s" in text


def test_report_payload_span_rows_carry_self(tmp_path):
    events = load_events(_sample_trace(tmp_path))
    payload = report_payload(events)
    assert payload["spans"]
    for row in payload["spans"]:
        assert set(row) == {"name", "count", "total", "self", "mean", "max"}
        assert 0.0 <= row["self"] <= row["total"] + 1e-12


# ----------------------------------------------------------------------
# JSONLSink max_bytes
# ----------------------------------------------------------------------
def test_jsonl_sink_unbounded_by_default(tmp_path):
    path = str(tmp_path / "unbounded.jsonl")
    sink = JSONLSink(path)
    for i in range(100):
        sink.emit({"type": "note", "i": i})
    sink.close()
    assert not sink.truncated
    assert len(load_events(path)) == 100


def test_jsonl_sink_max_bytes_truncates_with_markers(tmp_path):
    path = str(tmp_path / "bounded.jsonl")
    sink = JSONLSink(path, max_bytes=200)
    for i in range(50):
        sink.emit({"type": "note", "i": i, "pad": "x" * 20})
    assert sink.truncated
    dropped = sink.dropped_events
    assert dropped > 0
    sink.close()

    events = load_events(path)
    # some real events were written before the bound
    assert any(e.get("type") == "note" for e in events)
    markers = [e for e in events if e.get("type") == "trace_truncated"]
    assert len(markers) == 2  # cut-point marker + closing total
    assert markers[0]["max_bytes"] == 200
    assert markers[0]["bytes_written"] <= 200
    assert markers[-1]["dropped_events"] == dropped
    # the bound holds for everything before the closing marker
    assert sum(
        len(json.dumps(e, separators=(",", ":")).encode()) + 1
        for e in events[:-1]
    ) <= 200 + len(json.dumps(markers[0], separators=(",", ":"))) + 1


def test_jsonl_sink_emit_after_close_is_noop(tmp_path):
    path = str(tmp_path / "closed.jsonl")
    sink = JSONLSink(path, max_bytes=10_000)
    sink.emit({"type": "note"})
    sink.close()
    sink.emit({"type": "late"})  # must not raise or write
    assert [e["type"] for e in load_events(path)] == ["note"]


def test_session_passes_max_bytes_through(tmp_path):
    trace = str(tmp_path / "tight.jsonl")
    with session(trace, name="tight", max_bytes=300) as tel:
        for i in range(200):
            with tel.span("filler", i=i, pad="y" * 30):
                pass
    events = load_events(trace)
    assert any(e.get("type") == "trace_truncated" for e in events)


# ----------------------------------------------------------------------
# JSONLSink flush_every (line-granular durability)
# ----------------------------------------------------------------------
def test_jsonl_sink_flushes_every_line_by_default(tmp_path):
    path = str(tmp_path / "live.jsonl")
    sink = JSONLSink(path)
    sink.emit({"type": "a"})
    sink.emit({"type": "b"})
    # visible on disk immediately, without close(): this is what lets
    # `tail` follow a live trace and crash post-mortems see everything
    assert [e["type"] for e in load_events(path)] == ["a", "b"]
    sink.close()


def test_jsonl_sink_flush_every_zero_buffers_until_close(tmp_path):
    path = str(tmp_path / "buffered.jsonl")
    sink = JSONLSink(path, flush_every=0)
    sink.emit({"type": "a"})  # small enough to sit in the IO buffer
    assert load_events(path) == []
    sink.close()
    assert [e["type"] for e in load_events(path)] == ["a"]


def test_jsonl_sink_flush_every_n(tmp_path):
    path = str(tmp_path / "batched.jsonl")
    sink = JSONLSink(path, flush_every=3)
    sink.emit({"type": "a"})
    sink.emit({"type": "b"})
    assert load_events(path) == []  # batch not full yet
    sink.emit({"type": "c"})  # third line triggers the flush
    assert [e["type"] for e in load_events(path)] == ["a", "b", "c"]
    sink.close()


def test_ipm_subphase_totals_aggregates_trace_events():
    nan = float("nan")
    events = [
        {"type": "sdp.ipm_trace", "records": [
            {"iteration": 1, "t_z_factor": 0.01, "t_schur_assembly": 0.02,
             "t_schur_factor": 0.005, "t_line_search": 0.03},
            {"iteration": 2, "t_z_factor": 0.01, "t_schur_assembly": nan,
             "t_schur_factor": 0.005, "t_line_search": nan},
        ]},
        {"type": "metric_snapshot"},  # ignored
        {"type": "sdp.ipm_trace", "records": [
            {"iteration": 1, "t_z_factor": 0.02},
        ]},
    ]
    rows = ipm_subphase_totals(events)
    by_phase = {r["phase"]: r for r in rows}
    assert by_phase["z_factor"]["iterations"] == 3
    assert by_phase["z_factor"]["seconds"] == pytest.approx(0.04)
    # nan timers (early-exit iterations) are skipped, not counted
    assert by_phase["schur_assembly"]["iterations"] == 1
    assert by_phase["line_search"]["seconds"] == pytest.approx(0.03)
    for r in rows:
        assert r["mean_s"] == pytest.approx(r["seconds"] / r["iterations"])


def test_ipm_subphase_totals_empty_without_trace_events():
    assert ipm_subphase_totals([]) == []
    assert ipm_subphase_totals([{"type": "span"}]) == []
