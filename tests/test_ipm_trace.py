"""Tests for IPM convergence tracing (repro.sdp.trace + ipm integration)."""

import json
import math

import numpy as np
import pytest

from repro.sdp import (
    InteriorPointOptions,
    IPMTrace,
    SDPProblem,
    SDPStatus,
    classify_convergence,
    solve_sdp,
)
from repro.sdp.trace import (
    CONVERGENCE_CLASSES,
    DEFAULT_TRACE_CAPACITY,
    make_record,
)
from repro.telemetry import InMemorySink, Telemetry, configure, disable


def _min_trace_problem():
    # min tr(X) s.t. X_11 = 2, X 2x2 PSD  ->  X = diag(2, 0)
    E = np.zeros((2, 2))
    E[0, 0] = 1.0
    prob = SDPProblem([2])
    prob.set_trace_objective()
    prob.add_constraint([E], 2.0)
    return prob


def _rec(iteration, mu, rel_gap=1.0, prim=1.0, dual=1.0, **overrides):
    rec = make_record(iteration, mu, rel_gap, prim, dual, 0.0, 0.0, t=0.0)
    rec.update(overrides)
    return rec


# ----------------------------------------------------------------------
# ring buffer
# ----------------------------------------------------------------------
def test_trace_ring_buffer_keeps_trailing_window():
    trace = IPMTrace(capacity=4)
    for i in range(10):
        trace.add(_rec(i + 1, mu=1.0 / (i + 1)))
    assert len(trace) == 4
    assert trace.total == 10
    assert trace.dropped == 6
    assert [r["iteration"] for r in trace.records()] == [7, 8, 9, 10]


def test_trace_capacity_floor_is_one():
    trace = IPMTrace(capacity=0)
    trace.add(_rec(1, 1.0))
    trace.add(_rec(2, 0.5))
    assert len(trace) == 1
    assert trace.records()[0]["iteration"] == 2


def test_make_record_defaults_mark_early_exit():
    rec = make_record(3, 0.1, 0.2, 0.3, 0.4, 1.5, 1.4, t=0.01)
    assert rec["iteration"] == 3
    assert math.isnan(rec["step_primal"])
    assert math.isnan(rec["sigma"])
    assert rec["z_cholesky_ok"] and rec["schur_cholesky_ok"]
    assert math.isnan(rec["schur_diag_ratio"])


# ----------------------------------------------------------------------
# classifier on synthetic residual sequences
# ----------------------------------------------------------------------
def test_classifier_empty_is_unknown():
    assert classify_convergence([]) == "unknown"


def test_classifier_converged_is_healthy():
    records = [
        _rec(1, 1.0),
        _rec(2, 1e-4, rel_gap=1e-4, prim=1e-5, dual=1e-5),
        _rec(3, 1e-10, rel_gap=1e-10, prim=1e-10, dual=1e-10),
    ]
    assert classify_convergence(records, tolerance=1e-8) == "healthy"


def test_classifier_progress_without_convergence_is_healthy():
    # steadily shrinking mu, good steps, gap still above tolerance
    records = [
        _rec(i + 1, mu=10.0 ** -i, rel_gap=10.0 ** -i,
             step_primal=0.9, step_dual=0.9)
        for i in range(5)
    ]
    assert classify_convergence(records, tolerance=1e-12) == "healthy"


def test_classifier_cholesky_failure_is_ill_conditioned():
    records = [_rec(1, 1.0), _rec(2, 0.5, z_cholesky_ok=False)]
    assert classify_convergence(records) == "ill_conditioned"
    records = [_rec(1, 1.0), _rec(2, 0.5, schur_cholesky_ok=False)]
    assert classify_convergence(records) == "ill_conditioned"


def test_classifier_diag_ratio_is_ill_conditioned():
    records = [_rec(1, 1.0, schur_diag_ratio=1e15), _rec(2, 0.5)]
    assert classify_convergence(records) == "ill_conditioned"


def test_classifier_nonfinite_mu_is_ill_conditioned():
    assert classify_convergence([_rec(1, float("nan"))]) == "ill_conditioned"
    assert classify_convergence([_rec(1, float("inf"))]) == "ill_conditioned"
    assert classify_convergence([_rec(1, -1.0)]) == "ill_conditioned"


def test_classifier_mu_blowup_is_diverging():
    records = [
        _rec(1, 1.0, step_primal=0.9, step_dual=0.9),
        _rec(2, 0.5, step_primal=0.9, step_dual=0.9),
        _rec(3, 500.0, step_primal=0.9, step_dual=0.9),
    ]
    assert classify_convergence(records) == "diverging"


def test_classifier_collapsed_steps_are_stalling():
    records = [
        _rec(i + 1, mu=1.0, step_primal=1e-3, step_dual=1e-3)
        for i in range(4)
    ]
    assert classify_convergence(records) == "stalling"


def test_classifier_slow_mu_decay_is_stalling():
    # mu shrinking by 0.99/iter: far slower than the 0.85 stall threshold
    records = [
        _rec(i + 1, mu=0.99 ** i, step_primal=0.5, step_dual=0.5)
        for i in range(8)
    ]
    assert classify_convergence(records) == "stalling"


def test_classifier_severity_order_breakdown_beats_convergence():
    # a converged-looking final record still classifies as ill_conditioned
    # when a factorization failed along the way
    records = [
        _rec(1, 1.0, z_cholesky_ok=False),
        _rec(2, 1e-12, rel_gap=1e-12, prim=1e-12, dual=1e-12),
    ]
    assert classify_convergence(records) == "ill_conditioned"


def test_classifier_certified_infeasible_is_diverging():
    # trajectories that alone read ill_conditioned, healthy and stalling:
    # a solve stopped at a dual ray is diverging whatever its mu did
    sequences = [
        [_rec(1, 1.0, schur_cholesky_ok=False), _rec(2, 0.5)],
        [_rec(1, 1.0, step_primal=0.9, step_dual=0.9),
         _rec(2, 0.01, step_primal=0.9, step_dual=0.9)],
        [_rec(i + 1, mu=1.0, step_primal=1e-3, step_dual=1e-3)
         for i in range(4)],
    ]
    for records in sequences:
        assert classify_convergence(records) != "diverging"
        assert classify_convergence(
            records, status=SDPStatus.PRIMAL_INFEASIBLE
        ) == "diverging"
    assert classify_convergence(
        [], status=SDPStatus.PRIMAL_INFEASIBLE
    ) == "unknown"


def test_classifier_only_emits_known_classes():
    sequences = [
        [],
        [_rec(1, 1.0)],
        [_rec(1, float("inf"))],
        [_rec(i + 1, mu=1.0, step_primal=1e-4, step_dual=1e-4)
         for i in range(5)],
    ]
    for records in sequences:
        assert classify_convergence(records) in CONVERGENCE_CLASSES


# ----------------------------------------------------------------------
# solver integration
# ----------------------------------------------------------------------
def test_solve_sdp_attaches_trace_and_class():
    res = solve_sdp(_min_trace_problem())
    assert res.status == SDPStatus.OPTIMAL
    assert res.convergence_class == "healthy"
    assert res.recovery_rung == "base"
    assert res.ipm_trace_dropped == 0
    assert len(res.ipm_trace) == res.iterations
    for i, rec in enumerate(res.ipm_trace):
        assert rec["iteration"] == i + 1
        assert set(rec) == set(make_record(1, 0, 0, 0, 0, 0, 0, 0.0))
    # a completed iteration has its step lengths filled in
    assert math.isfinite(res.ipm_trace[0]["step_primal"])
    assert math.isfinite(res.ipm_trace[0]["schur_diag_ratio"])


def test_solve_sdp_trace_capacity_option(monkeypatch):
    import repro.sdp.ipm as ipm

    monkeypatch.setattr(ipm, "DEFAULT_TRACE_CAPACITY", 2)
    res = solve_sdp(_min_trace_problem())
    assert len(res.ipm_trace) <= 2
    assert res.ipm_trace_dropped == max(0, res.iterations - 2)
    assert res.ipm_trace[-1]["iteration"] == res.iterations


def test_default_trace_capacity_covers_default_max_iterations():
    assert DEFAULT_TRACE_CAPACITY >= InteriorPointOptions().max_iterations


def test_trace_is_deterministic_modulo_wall_clock():
    def canon(res):
        # "t" and the "t_*" sub-phase timers are wall-clock (excluded);
        # everything else must match bitwise.  json.dumps also normalizes
        # NaN comparison (nan != nan in dicts).
        return json.dumps(
            [{k: v for k, v in rec.items() if not k.startswith("t")}
             for rec in res.ipm_trace],
            sort_keys=True,
        )

    a = solve_sdp(_min_trace_problem())
    b = solve_sdp(_min_trace_problem())
    assert canon(a) == canon(b)
    assert a.convergence_class == b.convergence_class


def test_rung_passthrough_stamps_result():
    res = solve_sdp(_min_trace_problem(), rung="jitter")
    assert res.recovery_rung == "jitter"


def test_solve_sdp_emits_ipm_trace_event():
    sink = InMemorySink()
    configure(sink)
    try:
        res = solve_sdp(_min_trace_problem())
    finally:
        disable()
    events = [e for e in sink.events if e.get("type") == "sdp.ipm_trace"]
    assert len(events) == 1
    ev = events[0]
    assert ev["convergence"] == "healthy"
    assert ev["rung"] == "base"
    assert ev["n_records"] == len(res.ipm_trace)
    assert ev["records"][-1]["iteration"] == res.iterations
    spans = sink.spans("sdp.solve")
    assert spans and spans[0]["attrs"]["convergence"] == "healthy"


def test_primal_infeasible_solve_reports_diverging():
    # X_11 = -1: the solve stops at a dual ray, and every surface that
    # reports the convergence class calls it diverging
    E = np.zeros((2, 2))
    E[0, 0] = 1.0
    prob = SDPProblem([2])
    prob.set_trace_objective()
    prob.add_constraint([E], -1.0)
    sink = InMemorySink()
    tel = configure(sink)
    try:
        res = solve_sdp(prob)
    finally:
        disable()
    assert res.status == SDPStatus.PRIMAL_INFEASIBLE
    assert res.convergence_class == "diverging"
    assert tel.metrics.counter_value("sdp.convergence.diverging") == 1
    (event,) = [e for e in sink.events if e.get("type") == "sdp.ipm_trace"]
    assert event["convergence"] == "diverging"
    assert sink.spans("sdp.solve")[0]["attrs"]["convergence"] == "diverging"


def test_solve_sdp_times_every_subphase():
    sink = InMemorySink()
    configure(sink)
    try:
        res = solve_sdp(_min_trace_problem())
    finally:
        disable()
    phases = ("t_residuals", "t_z_factor", "t_schur_assembly",
              "t_schur_factor", "t_direction", "t_line_search")
    # every iteration but the converged last one runs every sub-phase
    for rec in res.ipm_trace[:-1]:
        for key in phases:
            assert math.isfinite(rec[key]) and rec[key] >= 0.0, key
    last = res.ipm_trace[-1]
    assert math.isfinite(last["t_residuals"])
    assert math.isnan(last["t_direction"])
    t_presolve = sink.spans("sdp.solve")[0]["attrs"]["t_presolve"]
    assert math.isfinite(t_presolve) and t_presolve >= 0.0


def test_solve_sdp_counts_convergence_metric():
    sink = InMemorySink()
    tel = configure(sink)
    try:
        solve_sdp(_min_trace_problem())
        counters = tel.metrics.summary()["counters"]
    finally:
        disable()
    assert counters.get("sdp.convergence.healthy") == 1.0


def test_resilient_retry_stamps_strategy_rung():
    from repro.diagnostics import faultinject as fi
    from repro.resilience import solve_sdp_resilient

    # fail the base solve once so the ladder's first strategy runs
    with fi.inject(fi.solver_nonconvergence(at_call=1, times=1)):
        res = solve_sdp_resilient(_min_trace_problem())
    assert res.status == SDPStatus.OPTIMAL
    assert res.recovery_rung == "rescale"


def test_nan_mu_fault_classifies_ill_conditioned():
    from repro.diagnostics import faultinject as fi

    with fi.inject(fi.nan_mu(at_call=1, times=1)):
        res = solve_sdp(_min_trace_problem())
    assert res.status == SDPStatus.NUMERICAL_ERROR
    assert res.convergence_class == "ill_conditioned"
    assert res.ipm_trace  # the poisoned iteration still left a record
