"""Tests of the ledger benchmark's own machinery.

Run with ``pytest benchmarks/ledger``.  None of them runs a workload:
span arithmetic, wrapper install/restore, the failure accounting and
the printed names are checked on synthetic or millisecond-sized inputs.
"""

import json
import re
import shutil
import subprocess
import sys

import pytest

import run_ledger

assert run_ledger.bootstrap() is None

from ledger_trace import (  # noqa: E402
    TARGETS,
    SpanRecorder,
    TraceInstallError,
    Tracer,
    layer_metrics,
    self_times,
    unrestored,
)
from ledger_workloads import ItemResult, PassResult, Workload, make_workloads  # noqa: E402

BENCHMARK = json.loads((run_ledger.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def span(name, start, end, parent=None, **attrs):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "pass": 0, "attrs": attrs}


def test_self_time_subtracts_merged_children_only():
    spans = [
        span("item", 0.0, 10.0),
        span("verifier.verify", 1.0, 3.0, parent=0),
        span("verifier.verify", 2.0, 5.0, parent=0),  # overlaps the first
        span("sdp.solve", 1.5, 2.5, parent=1),        # grandchild of 0
        span("learner.fit", 8.0, 12.0, parent=0),     # clipped at 10
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 1.0, 4.0])


def test_layer_metrics_split_verify_into_assembly_and_sdp():
    spans = [
        span("item", 0.0, 10.0, label="C1"),
        span("verifier.verify", 1.0, 9.0, parent=0, ok=True),
        span("sdp.solve", 2.0, 8.0, parent=1, solves=1, ipm_iterations=7,
             max_block_dim=6, recovered=0, warm_started=0, z_factor=0.5,
             schur_assembly=2.0, schur_factor=0.5, line_search=1.0),
        span("verifier.verify", 9.0, 9.5, parent=0, ok=False),
    ]
    out = layer_metrics(spans, pass_wall_s=10.0)
    assert out["sos.assembly_s"] == pytest.approx(2.5)
    assert out["verifier.verify_s"] == pytest.approx(8.5)
    assert out["sdp.solve_s"] == pytest.approx(6.0)
    assert out["sdp.unattributed_s"] == pytest.approx(2.0)
    assert out["sdp.ipm_iterations"] == 7
    assert out["verifier.accept_ratio"] == pytest.approx(0.5)
    assert out["trace.unattributed_s"] == pytest.approx(1.5)
    assert out["trace.coverage"] == pytest.approx(0.85)


def test_tracer_wraps_every_target_and_restores_the_originals():
    import importlib

    def current():
        out = []
        for module, path, _span, _reads in TARGETS:
            owner = importlib.import_module(module)
            for part in path.split(".")[:-1]:
                owner = getattr(owner, part)
            out.append(vars(owner)[path.split(".")[-1]])
        return out

    before = current()
    tracer = Tracer(SpanRecorder())
    tracer.install()
    try:
        assert len(unrestored()) == len(TARGETS)
    finally:
        tracer.restore()
    assert unrestored() == []
    assert all(a is b for a, b in zip(before, current()))


def test_wrappers_record_nested_spans_of_a_real_verification():
    from repro.poly import Polynomial
    from repro.service import make_verify_request, problem_for
    from repro.verifier import SOSVerifier

    problem = problem_for(make_verify_request(seed=0))
    x, y = Polynomial.variables(2)
    barrier = Polynomial.constant(2, 1.0) - 0.5 * (x * x + y * y)
    recorder = SpanRecorder()
    with Tracer(recorder):
        with recorder.span("item", label="decay"):
            assert SOSVerifier(problem, []).verify(barrier).ok
    names = [s["name"] for s in recorder.spans]
    assert names[:2] == ["item", "verifier.verify"]
    solves = [s for s in recorder.spans if s["name"] == "sdp.solve"]
    assert solves and all(s["parent"] == 1 for s in solves)
    out = layer_metrics(recorder.spans, recorder.spans[0]["end"] - recorder.spans[0]["start"])
    assert out["sdp.solves"] == len(solves)
    assert out["sdp.ipm_iterations"] > 0 and out["sdp.max_block_dim"] > 0
    assert out["verifier.accept_ratio"] == 1.0
    assert unrestored() == []


def test_a_renamed_target_fails_at_install():
    tracer = Tracer(SpanRecorder(), targets=[
        ("repro.verifier", "SOSVerifier.verify_renamed", "verifier.verify", None),
    ])
    with pytest.raises(TraceInstallError):
        tracer.install()
    assert unrestored() == []


class _Fake(Workload):
    name = "fake"
    setup_reps = 1

    def __init__(self, outcomes, errors=()):
        self.outcomes = outcomes
        self.errors = list(errors)

    def setup(self, seed):
        return None

    def run_pass(self, state, recorder):
        items = [ItemResult(f"i{k}", o, "verified", (o,), wall_s=0.1)
                 for k, o in enumerate(self.outcomes)]
        return PassResult(0.1 * len(items), items, extras={"T_e_s": (0.2, "s")},
                          errors=self.errors)

    def expected_spans(self, state):
        return {}


def test_a_missed_item_sets_fail_ratio_and_a_nonzero_exit():
    m = run_ledger.measure(_Fake(["verified", "not_verified"]), 0, 0.0, False)
    summary = run_ledger.summarize(m)
    assert summary["correct"]  # an honest miss is not a broken check
    assert summary["failed"] == 1 and summary["attempted"] == 2
    assert summary["extras"]["fail_ratio"][0] == pytest.approx(0.5)
    assert run_ledger.exit_code(summary) == 1
    clean = run_ledger.summarize(run_ledger.measure(_Fake(["verified"]), 0, 0.0, False))
    assert run_ledger.exit_code(clean) == 0


def test_a_broken_check_or_a_changed_identity_is_an_error():
    broken = run_ledger.summarize(
        run_ledger.measure(_Fake(["verified"], errors=["proof missing"]), 0, 0.0, False)
    )
    assert not broken["correct"] and run_ledger.exit_code(broken) == 1
    first = _Fake(["verified"]).run_pass(None, None)
    second = _Fake(["verified"]).run_pass(None, None)
    second.items[0].identity = ("other hash",)
    errors = run_ledger.check({
        "passes": [first, second], "traced": None, "spans": None,
        "expected_spans": {}, "in_process": True, "leftover_processes": 0,
    })
    assert len(errors) == 1 and "i0" in errors[0]


def _printed(trace):
    layers = layer_metrics([], 1.0)
    layers["trace.overhead_ratio"] = 0.01
    summary = {
        "correct": True, "attempted": 1, "failed": 0,
        "metrics": {"wall_s": 1.5, "setup_s": 0.5, "peak_rss_mb": 100.0},
        "extras": {"fail_ratio": (0.0, "ratio")},
        "layers": layers,
    }
    lines = run_ledger.report_lines(summary, trace)
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace,key", [(False, "end_to_end"), (True, "per_layer")])
def test_printed_names_match_benchmark_json(trace, key):
    lines, result = _printed(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for line in lines:
        name, value, unit = line.split(" ")
        float(value)
        assert NAME.match(name) and UNIT.match(unit)
    for name, unit in declared.items():
        assert f"{name} {result['metrics'][name]['value']} {unit}" in lines


def test_benchmark_json_matches_the_workloads_and_its_limits():
    workloads = make_workloads("unused")
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in workloads.values()
    ]
    assert BENCHMARK["command"] == ["python3", "benchmarks/ledger/run_ledger.py"]
    assert BENCHMARK["paths"] == ["benchmarks/ledger"]
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_a_checkout_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(run_ledger.HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run_ledger.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run_ledger.py", "--workload",
         "table1", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
