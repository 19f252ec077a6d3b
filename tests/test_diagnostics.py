"""Tests for the CEGIS flight recorder (repro.diagnostics)."""

import json
import math

import pytest

from repro.benchmarks import get_benchmark
from repro.cegis import SNBC, SNBCConfig
from repro.diagnostics import (
    audit_certificate,
    bench_document,
    bench_entry,
    convergence_summary,
    detect_stall,
    load_audit,
    load_bench,
    write_audit,
    write_bench,
)
from repro.diagnostics.regress import compare
from repro.diagnostics.regress import main as regress_main
from repro.diagnostics.report import main as report_main
from repro.diagnostics.report import resolve_run
from repro.dynamics import CCDS, ControlAffineSystem
from repro.learner import LearnerConfig
from repro.poly import Polynomial
from repro.sets import Box
from repro.telemetry import InMemorySink, Telemetry


# ----------------------------------------------------------------------
# shared runs (module-scoped: real SNBC runs are the expensive part)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def c1_run():
    """The Table-1 C1 instance: succeeds after >= 2 CEGIS rounds, so the
    lineage has counterexamples that the final certificate resolves."""
    spec = get_benchmark("C1")
    problem = spec.make_problem()
    controller = spec.make_controller()
    sink = InMemorySink()
    result = SNBC(
        problem,
        controller=controller,
        learner_config=spec.learner_config(),
        config=spec.snbc_config("smoke"),
        telemetry=Telemetry(sink),
    ).run()
    return result, problem, sink


@pytest.fixture(scope="module")
def infeasible_run():
    """Unsafe set inside the initial set: no BC exists, every round
    produces counterexamples, and the loop eventually stalls."""
    xs = Polynomial.variables(2)
    sys2 = ControlAffineSystem.autonomous([-1.0 * x for x in xs])
    problem = CCDS(
        sys2,
        theta=Box.cube(2, -1.0, 1.0),
        psi=Box.cube(2, -2.0, 2.0),
        xi=Box.cube(2, -0.2, 0.2),
    )
    result = SNBC(
        problem,
        learner_config=LearnerConfig(b_hidden=(4,), epochs=50, seed=0),
        config=SNBCConfig(
            max_iterations=6, n_samples=100, seed=0, stall_window=2
        ),
    ).run()
    return result, problem


# ----------------------------------------------------------------------
# counterexample lineage
# ----------------------------------------------------------------------
def test_lineage_resolved_on_success(c1_run):
    result, _, _ = c1_run
    assert result.success
    assert result.iterations >= 2
    assert result.counterexamples, "C1 must need at least one retraining round"
    for rec in result.counterexamples:
        assert 1 <= rec.iteration < result.iterations
        assert rec.condition in ("init", "unsafe", "lie")
        assert rec.paper_condition in (13, 14, 15)
        assert rec.worst_violation > 0
        assert rec.n_points >= 1
        # the certified barrier must satisfy every recorded counterexample
        assert rec.satisfied_by_final is True
        assert rec.final_violation is not None
        assert rec.final_violation <= 0
    assert result.resolved_counterexamples() == len(result.counterexamples)


def test_lineage_spans_iterations_on_failure(infeasible_run):
    result, _ = infeasible_run
    assert not result.success
    origin_iters = {rec.iteration for rec in result.counterexamples}
    assert len(origin_iters) >= 2  # lineage across multiple CEGIS rounds
    # finalization ran even though the run failed (against the last candidate)
    assert all(
        rec.satisfied_by_final is not None for rec in result.counterexamples
    )
    # the unsafe-inside-init conflict can never be fully resolved
    assert any(not rec.satisfied_by_final for rec in result.counterexamples)


def test_iteration_records_carry_loss_breakdown(c1_run):
    result, _, _ = c1_run
    for rec in result.history:
        assert math.isfinite(rec.loss_init)
        assert math.isfinite(rec.loss_unsafe)
        assert math.isfinite(rec.loss_domain)
        assert len(rec.dataset_sizes) == 3
        assert all(s > 0 for s in rec.dataset_sizes)
    # counterexamples are appended to the training sets: sizes never shrink
    sizes = [sum(rec.dataset_sizes) for rec in result.history]
    assert sizes == sorted(sizes)
    d = result.history[0].to_dict()
    assert d["iteration"] == 1
    assert isinstance(d["dataset_sizes"], list)


# ----------------------------------------------------------------------
# stall detection
# ----------------------------------------------------------------------
def test_detect_stall_unit():
    assert detect_stall([3.0, 2.0, 1.0, 0.5]) is None
    assert detect_stall([3.0, 1.0, 1.0, 1.2, 1.1], window=3) == 3
    assert detect_stall([1.0, 1.0], window=2) == 1
    # non-finite entries break the chain
    assert detect_stall([1.0, float("nan"), 1.0, 1.0], window=3) is None
    assert detect_stall([], window=2) is None
    with pytest.raises(ValueError):
        detect_stall([1.0, 2.0], window=1)


def test_stall_flagged_on_infeasible_run(infeasible_run):
    result, _ = infeasible_run
    assert result.stalled
    assert result.stall_iteration is not None
    assert 1 <= result.stall_iteration <= result.iterations


def test_no_stall_on_quick_success(c1_run):
    result, _, _ = c1_run
    assert not result.stalled
    assert result.stall_iteration is None


# ----------------------------------------------------------------------
# trace events -> convergence summary
# ----------------------------------------------------------------------
def test_trace_events_reconstruct_run(c1_run):
    result, _, sink = c1_run
    summary = convergence_summary(sink.events)
    assert summary["n_iterations"] == result.iterations
    assert summary["converged"] is True
    assert summary["n_counterexamples"] == len(result.counterexamples)
    assert summary["n_resolved"] == len(result.counterexamples)
    assert summary["stall"] is None
    row = summary["iterations"][0]
    assert row["iteration"] == 1
    for key in ("loss", "loss_init", "loss_unsafe", "loss_domain",
                "worst_violation", "dataset_sizes", "verified"):
        assert key in row


# ----------------------------------------------------------------------
# certificate audit
# ----------------------------------------------------------------------
def test_audit_artifact_schema(c1_run, tmp_path):
    result, problem, _ = c1_run
    audit = audit_certificate(result, problem, max_grid_points=512, seed=0)
    assert audit["schema_version"] == 1
    assert audit["kind"] == "certificate_audit"
    assert audit["success"] is True
    assert audit["barrier_degree"] == 2
    assert audit["counterexamples"]["total"] == len(result.counterexamples)
    assert audit["counterexamples"]["resolved"] == len(result.counterexamples)

    names = {c["name"] for c in audit["conditions"]}
    assert any(n == "init" for n in names)
    assert any(n == "unsafe" for n in names)
    assert any(n.startswith("lie") for n in names)
    for c in audit["conditions"]:
        assert c["paper_condition"] in (13, 14, 15)
        assert c["feasible"] and c["validated"]
        assert math.isfinite(c["min_gram_eigenvalue"])
        assert c["residual_bound"] >= 0
        assert c["sdp"]["status"]
        assert c["sdp"]["iterations"] > 0
        assert math.isfinite(c["sdp"]["gap"])

    # independent recheck: a certified barrier holds strictly on the grid
    for name in ("init", "unsafe", "lie"):
        m = audit["grid_margins"][name]
        assert m["margin"] > 0, f"{name} margin not positive"
        assert m["n_points"] > 0
    # C1 carries a nonzero inclusion error: both sign endpoints checked
    assert audit["grid_margins"]["lie"]["n_endpoints"] >= 2

    s = audit["summary"]
    assert s["min_grid_margin"] > 0
    assert math.isfinite(s["min_gram_eigenvalue"])
    assert s["max_sdp_gap"] < 1e-6

    path = str(tmp_path / "c1.audit.json")
    write_audit(path, audit)
    assert load_audit(path) == json.loads(json.dumps(audit, default=str))


def test_audit_of_failed_run_shows_negative_margin(infeasible_run, tmp_path):
    result, problem = infeasible_run
    audit = audit_certificate(result, problem, max_grid_points=256)
    assert audit["success"] is False
    assert audit["stalled"] is True
    # the last candidate cannot separate Theta from a Xi inside it
    assert audit["summary"]["min_grid_margin"] < 0


def test_load_audit_rejects_wrong_schema(tmp_path):
    path = str(tmp_path / "bad.audit.json")
    with open(path, "w") as fh:
        json.dump({"schema_version": 99}, fh)
    with pytest.raises(ValueError):
        load_audit(path)


# ----------------------------------------------------------------------
# BENCH document + regression gate
# ----------------------------------------------------------------------
def _bench_row(outcome="success", iterations=1, t=1.0, margin=0.5):
    return {
        "outcome": outcome,
        "iterations": iterations,
        "stalled": False,
        "d_B": 2,
        "timings": {"T_l": t, "T_c": t / 10, "T_v": t / 2, "T_e": 2 * t,
                    "inclusion": t / 20},
        "audit": {"min_gram_eigenvalue": 1e-9, "max_residual_bound": 1e-8,
                  "max_sdp_gap": 1e-9, "min_grid_margin": margin},
    }


def test_bench_entry_from_result(c1_run):
    result, problem, _ = c1_run
    audit = audit_certificate(result, problem, max_grid_points=256)
    entry = bench_entry(result, audit=audit)
    assert entry["outcome"] == "success"
    assert entry["iterations"] == result.iterations
    assert entry["d_B"] == 2
    assert set(entry["timings"]) == {"T_l", "T_c", "T_v", "T_e", "inclusion"}
    assert entry["timings"]["T_e"] == pytest.approx(
        result.timings.total, abs=1e-5
    )
    assert entry["audit"]["min_grid_margin"] > 0


def _table1_doc(rows, scale="smoke"):
    return bench_document("BENCH_table1", scale, rows)


def test_bench_write_load_roundtrip(tmp_path):
    path = str(tmp_path / "BENCH_table1.json")
    doc = write_bench(path, _table1_doc({"C1": _bench_row()}))
    loaded = load_bench(path)
    assert loaded["kind"] == "BENCH_table1"
    assert loaded["schema_version"] == 2
    assert loaded["scale"] == "smoke"
    assert loaded["rows"]["C1"]["outcome"] == "success"
    assert doc["rows"] == loaded["rows"]
    assert loaded["invariants"] == {} and loaded["config"] == {}
    with open(path, "w") as fh:
        json.dump({"kind": "something_else"}, fh)
    with pytest.raises(ValueError):
        load_bench(path)


def test_compare_benches_pure():
    no_timings = float("inf")
    old = _table1_doc({"C1": _bench_row(t=1.0)})
    same = _table1_doc({"C1": _bench_row(t=1.0)})
    assert compare(old, same) == {"regressions": [], "warnings": []}

    slow = _table1_doc({"C1": _bench_row(t=3.0)})
    out = compare(old, slow, max_slowdown=1.3)
    assert any("T_e" in r for r in out["regressions"])
    assert compare(old, slow, max_slowdown=no_timings)["regressions"] == []

    failed = _table1_doc({"C1": _bench_row(outcome="failure", t=1.0)})
    out = compare(old, failed)
    assert any("outcome regressed" in r for r in out["regressions"])

    more_iters = _table1_doc({"C1": _bench_row(iterations=3, t=1.0)})
    out = compare(old, more_iters, max_slowdown=no_timings)
    assert any("iterations" in r for r in out["regressions"])

    missing = _table1_doc({})
    assert compare(old, missing)["regressions"]
    out = compare(old, missing, allow_missing=True)
    assert out["regressions"] == [] and out["warnings"]

    flipped = _table1_doc({"C1": _bench_row(t=1.0, margin=-0.1)}, "paper")
    out = compare(old, flipped, max_slowdown=no_timings)
    assert out["regressions"] == []
    assert any("scale changed" in w for w in out["warnings"])
    assert any("flipped sign" in w for w in out["warnings"])


def test_regress_cli_exit_codes(tmp_path, capsys):
    old = str(tmp_path / "old.json")
    write_bench(old, _table1_doc({"C1": _bench_row(t=1.0)}))

    assert regress_main([old, old]) == 0
    assert "no regressions" in capsys.readouterr().out

    slow = str(tmp_path / "slow.json")
    write_bench(slow, _table1_doc({"C1": _bench_row(t=3.0)}))
    assert regress_main([old, slow, "--max-slowdown", "1.3"]) == 1
    assert "FAIL" in capsys.readouterr().out
    # generous threshold lets the same document pass
    assert regress_main([old, slow, "--max-slowdown", "10"]) == 0
    capsys.readouterr()

    garbage = str(tmp_path / "garbage.json")
    with open(garbage, "w") as fh:
        fh.write("{not json")
    assert regress_main([old, garbage]) == 2
    assert regress_main([str(tmp_path / "missing.json"), old]) == 2

    # mixing document kinds is a usage error, not a comparison
    service = str(tmp_path / "service.json")
    write_bench(service, bench_document("BENCH_service", "smoke", {}))
    assert regress_main([old, service]) == 2
    assert regress_main([service, old]) == 2


def test_regress_only_filters_every_kind(tmp_path, capsys):
    rows = {"C1": _bench_row(t=1.0), "C3": _bench_row(t=1.0)}
    old = str(tmp_path / "old.json")
    write_bench(old, _table1_doc(rows))
    new = str(tmp_path / "new.json")
    write_bench(new, _table1_doc({"C1": _bench_row(t=1.0)}))
    assert regress_main([old, new]) == 1
    assert regress_main([old, new, "--only", "C1"]) == 0
    assert regress_main([old, new, "--only", "C1,C9"]) == 0
    assert "C9: not in OLD baseline" in capsys.readouterr().out

    # the same filter applies to service job keys
    svc_old = str(tmp_path / "svc_old.json")
    write_bench(svc_old, _service_doc())
    svc_new = str(tmp_path / "svc_new.json")
    write_bench(svc_new, _service_doc(statuses=("success", "dead_letter")))
    assert regress_main([svc_old, svc_new]) == 1
    assert regress_main([svc_old, svc_new, "--only", f"{0:064x}"]) == 0


def test_committed_bench_documents_load_and_self_compare(capsys):
    import os
    import subprocess

    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    tracked = subprocess.run(
        ["git", "ls-files", "results/BENCH_*.json"], cwd=root,
        capture_output=True, text=True,
    )
    if tracked.returncode != 0:
        pytest.skip("not a git checkout")
    paths = tracked.stdout.split()
    assert paths
    for rel in paths:
        path = os.path.join(root, rel)
        assert load_bench(path)["rows"], rel
        assert regress_main([path, path]) == 0, rel
    capsys.readouterr()


# ----------------------------------------------------------------------
# BENCH_service gate
# ----------------------------------------------------------------------
def _service_doc(statuses=("success", "success"), hit_rate=1.0, retries=0,
                 all_terminal=True, no_corrupt_served=True,
                 serial_identical=True):
    jobs = {
        f"{i:064x}": {"status": status, "attempts": 1, "redeliveries": 0,
                      "from_cache": False}
        for i, status in enumerate(statuses)
    }
    return bench_document(
        "BENCH_service", "chaos", jobs,
        invariants={"all_terminal": all_terminal,
                    "no_corrupt_served": no_corrupt_served,
                    "serial_identical": serial_identical},
        counts={"retries": retries, "redeliveries": 0},
        cache={"hit_rate": hit_rate, "evictions": 0},
    )


def test_service_gate_identical_passes():
    doc = _service_doc()
    assert compare(doc, doc) == {"regressions": [], "warnings": []}


def test_service_gate_dead_letter_is_regression():
    out = compare(_service_doc(),
                  _service_doc(statuses=("success", "dead_letter")))
    assert len(out["regressions"]) == 1
    # a job that dead-lettered before may succeed now
    out = compare(_service_doc(statuses=("success", "dead_letter")),
                  _service_doc())
    assert out["regressions"] == []


def test_service_gate_corrupt_serve_is_regression():
    out = compare(_service_doc(),
                  _service_doc(no_corrupt_served=False))
    assert len(out["regressions"]) == 1
    out = compare(_service_doc(), _service_doc(all_terminal=False))
    assert len(out["regressions"]) == 1


def test_service_gate_serial_identity_held_before():
    out = compare(_service_doc(),
                  _service_doc(serial_identical=False))
    assert len(out["regressions"]) == 1
    # no serial check on either side: nothing to hold
    none = _service_doc(serial_identical=None)
    assert compare(none, none)["regressions"] == []


def test_service_gate_hit_rate_drop_is_regression():
    out = compare(_service_doc(hit_rate=1.0),
                  _service_doc(hit_rate=0.5))
    assert len(out["regressions"]) == 1
    assert compare(_service_doc(hit_rate=0.5),
                   _service_doc(hit_rate=1.0))["regressions"] == []


def test_service_gate_retries_change_only_warns():
    out = compare(_service_doc(retries=0), _service_doc(retries=3))
    assert out["regressions"] == []
    assert len(out["warnings"]) == 1


def test_service_gate_missing_key():
    old = _service_doc()
    new = _service_doc(statuses=("success",))
    out = compare(old, new)
    assert len(out["regressions"]) == 1 and not out["warnings"]
    out = compare(old, new, allow_missing=True)
    assert out["regressions"] == [] and len(out["warnings"]) == 1


# ----------------------------------------------------------------------
# report CLI
# ----------------------------------------------------------------------
def _write_run_family(tmp_path, name="run"):
    """A minimal but complete artifact family for the report CLI."""
    base = str(tmp_path / name)
    events = [
        {"type": "span", "name": "snbc.learning", "duration": 0.5,
         "attrs": {"phase": "learning"}},
        {"type": "cegis.iteration", "iteration": 1, "loss": 0.2,
         "loss_init": 0.1, "loss_unsafe": 0.05, "loss_domain": 0.05,
         "worst_violation": 0.3, "n_counterexamples": 2,
         "dataset_sizes": [10, 10, 10], "verified": False,
         "failed_conditions": ["lie"]},
        {"type": "cegis.iteration", "iteration": 2, "loss": 0.0,
         "loss_init": 0.0, "loss_unsafe": 0.0, "loss_domain": 0.0,
         "worst_violation": 0.0, "n_counterexamples": 0,
         "dataset_sizes": [12, 10, 10], "verified": True,
         "failed_conditions": []},
        {"type": "cegis.lineage", "records": [
            {"iteration": 1, "condition": "lie", "paper_condition": 15,
             "worst_violation": 0.3, "gamma": 0.1, "n_points": 2,
             "worst_point": [0.5], "satisfied_by_final": True,
             "final_violation": -0.2}]},
    ]
    with open(base + ".jsonl", "w") as fh:
        for e in events:
            fh.write(json.dumps(e) + "\n")
    with open(base + ".manifest.json", "w") as fh:
        json.dump({"name": "unit/run", "outcome": "success", "seed": 0,
                   "elapsed_seconds": 1.0}, fh)
    return base


def test_report_cli_renders_and_writes_dashboard(tmp_path, capsys):
    base = _write_run_family(tmp_path)
    assert report_main([base]) == 0
    out = capsys.readouterr().out
    assert "unit/run" in out
    assert "Convergence" in out and "lineage" in out.lower()
    page = open(base + ".report.html").read()
    assert "<svg" in page and "</html>" in page
    assert "http" not in page.replace("http://www.w3.org", "")  # offline

    # .jsonl path spells the same family
    assert resolve_run(base + ".jsonl")["base"] == base


def test_report_cli_no_html(tmp_path, capsys):
    import os

    base = _write_run_family(tmp_path, "nohtml")
    assert report_main([base, "--no-html"]) == 0
    capsys.readouterr()
    assert not os.path.exists(base + ".report.html")


def test_report_cli_missing_trace(tmp_path, capsys):
    assert report_main([str(tmp_path / "nope")]) == 2
    assert "cannot read trace" in capsys.readouterr().err


def test_report_cli_all_malformed(tmp_path, capsys):
    base = str(tmp_path / "junk")
    with open(base + ".jsonl", "w") as fh:
        fh.write("not json at all\n{still: not json\n")
    assert report_main([base]) == 1
    assert "malformed" in capsys.readouterr().err


def test_report_cli_truncated_line_warns(tmp_path, capsys):
    base = _write_run_family(tmp_path, "trunc")
    with open(base + ".jsonl", "a") as fh:
        fh.write('{"type": "cegis.iter')  # crash mid-write
    assert report_main([base, "--no-html"]) == 0
    err = capsys.readouterr().err
    assert "skipped 1 malformed line" in err


def test_report_cli_missing_manifest_warns(tmp_path, capsys):
    import os

    base = _write_run_family(tmp_path, "noman")
    os.remove(base + ".manifest.json")
    assert report_main([base, "--no-html"]) == 0
    assert "no manifest" in capsys.readouterr().err
