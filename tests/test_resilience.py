"""Tests for the resilience layer: taxonomy, budgets, recovery ladder,
checkpoints, and bit-identical CEGIS resume."""

import json
import os

import numpy as np
import pytest

from repro.cegis import SNBC, SNBCConfig
from repro.dynamics import CCDS, ControlAffineSystem
from repro.learner import BarrierLearner, LearnerConfig, TrainingData
from repro.nn import Adam, SGD
from repro.nn.layers import Parameter
from repro.poly import Polynomial
from repro.resilience import (
    BudgetExhausted,
    CheckpointError,
    InclusionError,
    LearnerDivergence,
    RecoveryPolicy,
    ReproError,
    SolverNumericalError,
    TimeBudget,
    WorkerCrash,
    load_checkpoint,
    restore_rng,
    rng_state,
    save_checkpoint,
    solve_sdp_resilient,
)
from repro.sdp import InteriorPointOptions, SDPProblem, SDPStatus, solve_sdp
from repro.sets import Box
from repro.telemetry import get_telemetry
from repro.telemetry import session as telemetry_session


def unit(n, i, j):
    E = np.zeros((n, n))
    E[i, j] += 0.5
    E[j, i] += 0.5
    if i == j:
        E[i, i] = 1.0
    return E


def min_trace_problem():
    prob = SDPProblem([2])
    prob.set_trace_objective()
    prob.add_constraint([unit(2, 0, 0)], 2.0)
    return prob


def impossible_problem():
    """Unsafe set inside the initial set: no barrier certificate exists,
    so every CEGIS iteration fails — ideal for checkpoint/resume tests."""
    xs = Polynomial.variables(2)
    sys2 = ControlAffineSystem.autonomous([-1.0 * x for x in xs])
    return CCDS(
        sys2,
        theta=Box.cube(2, -1.0, 1.0),
        psi=Box.cube(2, -2.0, 2.0),
        xi=Box.cube(2, -0.2, 0.2),
    )


def snbc_for(problem, **config_kwargs):
    defaults = dict(max_iterations=2, n_samples=100, seed=0)
    defaults.update(config_kwargs)
    return SNBC(
        problem,
        learner_config=LearnerConfig(b_hidden=(4,), epochs=40, seed=0),
        config=SNBCConfig(**defaults),
    )


# ----------------------------------------------------------------------
# error taxonomy
# ----------------------------------------------------------------------
def test_error_defaults_and_to_dict():
    exc = SolverNumericalError("cholesky blew up", condition="lie")
    assert isinstance(exc, ReproError)
    assert exc.kind == "SolverNumericalError"
    assert exc.phase == "verification"
    d = exc.to_dict()
    assert d["kind"] == "SolverNumericalError"
    assert d["message"] == "cholesky blew up"
    assert d["details"] == {"condition": "lie"}
    assert "[verification] cholesky blew up" == str(exc)


def test_error_cause_and_phase_override():
    cause = np.linalg.LinAlgError("singular")
    exc = WorkerCrash("worker died", phase="bench", cause=cause, system="C3")
    assert exc.phase == "bench"
    assert exc.__cause__ is cause
    d = exc.to_dict()
    assert d["cause"] == "LinAlgError: singular"
    assert d["details"]["system"] == "C3"
    json.dumps(d)  # must be JSON-safe for BENCH rows


def test_error_details_render_jsonable():
    exc = InclusionError("bad", array=np.zeros(2))
    json.dumps(exc.to_dict())  # non-primitive details stringified


def test_taxonomy_default_phases():
    assert LearnerDivergence("x").phase == "learning"
    assert InclusionError("x").phase == "inclusion"
    assert BudgetExhausted("x").phase == "run"
    assert WorkerCrash("x").phase == "parallel"
    assert CheckpointError("x").phase == "checkpoint"


# ----------------------------------------------------------------------
# time budgets
# ----------------------------------------------------------------------
def test_unarmed_budget_never_raises():
    budget = TimeBudget()
    assert not budget.armed
    assert budget.remaining() is None
    budget.check("anywhere")  # no-op


def test_total_budget_overrun_raises():
    now = [0.0]
    budget = TimeBudget(total_s=10.0, clock=lambda: now[0])
    budget.check("learning")
    now[0] = 9.0
    budget.check("learning")
    assert budget.remaining() == pytest.approx(1.0)
    now[0] = 10.5
    with pytest.raises(BudgetExhausted) as err:
        budget.check("verification")
    assert err.value.phase == "verification"
    assert err.value.details["budget_s"] == 10.0


def test_iteration_budget_resets_each_iteration():
    now = [0.0]
    budget = TimeBudget(iteration_s=5.0, clock=lambda: now[0])
    budget.start_iteration(1)
    now[0] = 4.0
    budget.check()
    budget.start_iteration(2)  # window resets at 4.0
    now[0] = 8.0
    budget.check()
    now[0] = 9.5
    with pytest.raises(BudgetExhausted) as err:
        budget.check()
    assert err.value.details["iteration"] == 2


def test_remaining_is_tightest_window():
    now = [0.0]
    budget = TimeBudget(total_s=100.0, iteration_s=5.0, clock=lambda: now[0])
    budget.start_iteration(1)
    now[0] = 3.0
    assert budget.remaining() == pytest.approx(2.0)  # iteration window


def test_budget_rejects_nonpositive():
    with pytest.raises(ValueError):
        TimeBudget(total_s=0.0)
    with pytest.raises(ValueError):
        TimeBudget(iteration_s=-1.0)


# ----------------------------------------------------------------------
# SDP recovery ladder
# ----------------------------------------------------------------------
def test_resilient_solve_is_bit_identical_on_healthy_instance():
    base = solve_sdp(min_trace_problem())
    res = solve_sdp_resilient(min_trace_problem())
    assert res.status == SDPStatus.OPTIMAL
    assert res.message == base.message
    assert res.primal_objective == base.primal_objective  # bitwise
    assert np.array_equal(res.X[0], base.X[0])


def test_recovery_ladder_recovers_injected_nonconvergence(tmp_path):
    from repro.diagnostics import faultinject as fi

    with telemetry_session(str(tmp_path / "t.jsonl")) as tel:
        # base solve fails; the first ladder strategy solves untouched
        with fi.inject(fi.solver_nonconvergence(at_call=1, times=1)) as plan:
            res = solve_sdp_resilient(min_trace_problem())
        assert plan.fired_sites() == ["sdp.nonconvergence"]
        assert res.status == SDPStatus.OPTIMAL
        assert "recovered via rescale" in res.message
        assert res.primal_objective == pytest.approx(2.0, abs=1e-5)
        assert tel.metrics.counter_value("sdp.recovery.engaged") == 1
        assert tel.metrics.counter_value("sdp.recovery.rescale.attempts") == 1
        assert tel.metrics.counter_value("sdp.recovery.rescale.successes") == 1


def test_recovery_ladder_exhausts_on_persistent_fault(tmp_path):
    from repro.diagnostics import faultinject as fi

    with telemetry_session(str(tmp_path / "t.jsonl")) as tel:
        with fi.inject(fi.solver_nonconvergence(times=100)) as plan:
            res = solve_sdp_resilient(min_trace_problem())
        assert len(plan.fired_sites()) == 5  # base + 4 ladder attempts
        assert res.status == SDPStatus.MAX_ITERATIONS
        assert "recovery ladder exhausted" in res.message
        assert tel.metrics.counter_value("sdp.recovery.exhausted") == 1


def test_recovery_policy_disabled_returns_base_failure():
    from repro.diagnostics import faultinject as fi

    with fi.inject(fi.solver_nonconvergence(times=100)) as plan:
        res = solve_sdp_resilient(
            min_trace_problem(), policy=RecoveryPolicy(enabled=False)
        )
    assert plan.fired_sites() == ["sdp.nonconvergence"]  # no retries ran
    assert res.status == SDPStatus.MAX_ITERATIONS


def test_recovery_ladder_not_engaged_on_infeasible():
    # a definitive infeasibility verdict must not be retried
    prob = SDPProblem([2])
    prob.set_trace_objective()
    prob.add_constraint([unit(2, 0, 0)], -1.0)
    opts = InteriorPointOptions(max_iterations=200)
    base = solve_sdp(prob, opts)
    res = solve_sdp_resilient(prob, opts)
    assert res.status == base.status
    assert res.message == base.message


# ----------------------------------------------------------------------
# checkpoint envelope
# ----------------------------------------------------------------------
def test_checkpoint_round_trip(tmp_path):
    path = str(tmp_path / "ck.json")
    save_checkpoint(path, {"iteration": 3, "x": [1.5, 2.25]})
    doc = load_checkpoint(path)
    assert doc["iteration"] == 3
    assert doc["x"] == [1.5, 2.25]
    assert doc["kind"] == "SNBC_checkpoint"


def test_checkpoint_envelope_rejects_wrong_kind(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump({"kind": "something_else"}, fh)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_envelope_rejects_wrong_version(tmp_path):
    path = str(tmp_path / "old.json")
    with open(path, "w") as fh:
        json.dump({"kind": "SNBC_checkpoint", "schema_version": 999}, fh)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_missing_file_raises_typed_error(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(str(tmp_path / "nope.json"))


def test_checkpoint_write_failure_is_typed(tmp_path):
    target = tmp_path / "afile"
    target.write_text("not a directory")
    with pytest.raises(CheckpointError):
        save_checkpoint(str(target / "ck.json"), {})


def test_rng_state_round_trip_is_bit_exact():
    gen = np.random.default_rng(42)
    gen.normal(size=7)  # advance
    state = rng_state(gen)
    json_state = json.loads(json.dumps(state))  # survives JSON
    expected = gen.normal(size=5)
    fresh = np.random.default_rng(0)
    restore_rng(fresh, json_state)
    assert np.array_equal(fresh.normal(size=5), expected)


# ----------------------------------------------------------------------
# optimizer / learner state
# ----------------------------------------------------------------------
def test_adam_state_dict_round_trip():
    p1 = [Parameter(np.ones((2, 2))), Parameter(np.zeros(3))]
    opt1 = Adam(p1, lr=0.1)
    for _ in range(3):
        for p in p1:
            p.grad = np.full_like(p.data, 0.5)
        opt1.step()
    p2 = [Parameter(p.data.copy()) for p in p1]
    opt2 = Adam(p2, lr=0.1)
    opt2.load_state_dict(json.loads(json.dumps(opt1.state_dict())))
    for p in p1 + p2:
        p.grad = np.full_like(p.data, 0.25)
    opt1.step()
    opt2.step()
    for a, b in zip(p1, p2):
        assert np.array_equal(a.data, b.data)


def test_sgd_state_dict_round_trip():
    p1 = [Parameter(np.ones(4))]
    opt1 = SGD(p1, lr=0.1, momentum=0.9)
    p1[0].grad = np.full(4, 1.0)
    opt1.step()
    p2 = [Parameter(p1[0].data.copy())]
    opt2 = SGD(p2, lr=0.1, momentum=0.9)
    opt2.load_state_dict(opt1.state_dict())
    p1[0].grad = np.full(4, 1.0)
    p2[0].grad = np.full(4, 1.0)
    opt1.step()
    opt2.step()
    assert np.array_equal(p1[0].data, p2[0].data)


def test_optimizer_state_size_mismatch_rejected():
    opt = Adam([Parameter(np.zeros(2))])
    with pytest.raises(ValueError):
        opt.load_state_dict({"t": 1, "m": [], "v": []})


def test_learner_snapshot_restore_is_bit_exact():
    prob = impossible_problem()
    rng = np.random.default_rng(0)
    data = TrainingData.sample(prob, 50, rng=rng)
    learner = BarrierLearner(
        2, LearnerConfig(b_hidden=(4,), epochs=10, seed=0)
    )
    field = prob.system.closed_loop([])
    learner.fit(data, field, epochs=5)
    snap = json.loads(json.dumps(learner.snapshot()))
    before = [p.data.copy() for p in learner._params]
    learner.fit(data, field, epochs=5)  # mutate further
    learner.restore(snap)
    for p, b in zip(learner._params, before):
        assert np.array_equal(p.data, b)


def test_learner_restore_rejects_mismatched_snapshot():
    learner = BarrierLearner(2, LearnerConfig(b_hidden=(4,), seed=0))
    with pytest.raises(ValueError):
        learner.restore({"params": [], "optimizer": {}})


# ----------------------------------------------------------------------
# SNBC outcomes, budgets, checkpoint/resume
# ----------------------------------------------------------------------
def test_snbc_result_outcome_backfills_from_success():
    from repro.cegis.snbc import PhaseTimings, SNBCResult

    ok = SNBCResult(True, None, None, 1, PhaseTimings(), [], None, None)
    bad = SNBCResult(False, None, None, 1, PhaseTimings(), [], None, None)
    assert ok.outcome == "verified"
    assert bad.outcome == "not_verified"


def test_snbc_time_budget_yields_clean_timeout():
    res = snbc_for(impossible_problem(), time_budget_s=1e-9).run()
    assert res.outcome == "timeout"
    assert res.timed_out
    assert not res.success
    assert res.error["kind"] == "BudgetExhausted"


def test_budgeted_run_leaves_callers_verifier_config_unchanged():
    """The run caps each SDP at its remaining budget on its own copy of
    the verifier config, not on the object the caller passed in."""
    from repro.verifier import VerifierConfig

    mine = VerifierConfig()
    snbc = SNBC(
        impossible_problem(),
        learner_config=LearnerConfig(b_hidden=(4,), epochs=40, seed=0),
        verifier_config=mine,
        config=SNBCConfig(
            max_iterations=1, n_samples=100, seed=0, time_budget_s=600.0
        ),
    )
    snbc.run()
    assert snbc.verifier_config.sdp_options.time_limit_s is not None
    assert mine.sdp_options.time_limit_s is None
    assert mine == VerifierConfig()


def test_snbc_iteration_budget_yields_clean_timeout():
    res = snbc_for(
        impossible_problem(), max_iterations=3, iteration_budget_s=1e-9
    ).run()
    assert res.outcome == "timeout"
    assert res.error["details"]["budget_s"] == 1e-9


def test_snbc_checkpoint_resume_bit_identical(tmp_path):
    ck_full = str(tmp_path / "full.json")
    ck_part = str(tmp_path / "part.json")

    full = snbc_for(
        impossible_problem(), max_iterations=4, checkpoint_path=ck_full
    ).run()
    # "interrupted" run: stop after 2 iterations, then resume to 4
    snbc_for(
        impossible_problem(), max_iterations=2, checkpoint_path=ck_part
    ).run()
    resumed = snbc_for(impossible_problem(), max_iterations=4).run(
        resume_from=ck_part
    )

    assert resumed.resumed_from_iteration == 2
    assert resumed.iterations == full.iterations
    assert resumed.outcome == full.outcome
    # bit-identical trajectory: losses, violations, lineage, certificate
    assert [r.loss for r in resumed.history] == [r.loss for r in full.history]
    assert [r.worst_violation for r in resumed.history] == [
        r.worst_violation for r in full.history
    ]
    assert len(resumed.counterexamples) == len(full.counterexamples)
    for a, b in zip(full.counterexamples, resumed.counterexamples):
        assert a.to_dict() == b.to_dict()
    assert str(resumed.barrier) == str(full.barrier)
    assert str(resumed.lambda_poly) == str(full.lambda_poly)


def test_snbc_resume_rejects_mismatched_checkpoint(tmp_path):
    ck = str(tmp_path / "seed0.json")
    snbc_for(impossible_problem(), checkpoint_path=ck).run()
    res = snbc_for(impossible_problem(), seed=1).run(resume_from=ck)
    assert res.outcome == "error"
    assert res.error["kind"] == "CheckpointError"


def test_snbc_resume_missing_checkpoint_is_clean_error(tmp_path):
    res = snbc_for(impossible_problem()).run(
        resume_from=str(tmp_path / "missing.json")
    )
    assert res.outcome == "error"
    assert res.error["kind"] == "CheckpointError"


def test_checkpoint_survives_json_reload(tmp_path):
    ck = str(tmp_path / "ck.json")
    snbc_for(impossible_problem(), checkpoint_path=ck).run()
    doc = load_checkpoint(ck)
    assert doc["iteration"] == 2
    assert doc["problem"] == impossible_problem().name
    assert set(doc["rng"]) == {"sampling", "learner", "cex"}
    assert len(doc["history"]) == 2


# ----------------------------------------------------------------------
# bench rows / regression gate
# ----------------------------------------------------------------------
def test_bench_entry_maps_new_outcomes():
    from repro.diagnostics import bench_entry

    res = snbc_for(impossible_problem(), time_budget_s=1e-9).run()
    row = bench_entry(res)
    assert row["outcome"] == "timeout"
    assert row["error"]["kind"] == "BudgetExhausted"
    json.dumps(row)


def test_error_entry_records_exception_class():
    from repro.diagnostics import error_entry

    row = error_entry(WorkerCrash("worker died", system="C9"))
    assert row["outcome"] == "error"
    assert row["error"]["kind"] == "WorkerCrash"
    assert row["error"]["details"]["system"] == "C9"
    assert row["iterations"] == 0
    row2 = error_entry(RuntimeError("boom"))
    assert row2["error"] == {"kind": "RuntimeError", "message": "boom"}


def test_regress_flags_new_failure_class():
    from repro.diagnostics import bench_document
    from repro.diagnostics.regress import compare

    def doc(outcome, error=None):
        row = {
            "outcome": outcome,
            "iterations": 1,
            "timings": {k: 0.0 for k in ("T_l", "T_c", "T_v", "T_e", "inclusion")},
        }
        if error:
            row["error"] = error
        return bench_document("BENCH_table1", "smoke", {"C1": row})

    # failure -> timeout is a NEW failure class: the outcome rank falls
    out = compare(doc("failure"), doc("timeout"))
    assert any("outcome regressed" in r for r in out["regressions"])
    # failure -> error likewise, and the kind is named
    out = compare(
        doc("failure"), doc("error", {"kind": "LearnerDivergence"})
    )
    assert any("LearnerDivergence" in r for r in out["regressions"])
    # success -> timeout caught by the outcome check
    out = compare(doc("success"), doc("timeout"))
    assert any("outcome regressed" in r for r in out["regressions"])
    # timeout -> timeout is stable, not a regression
    out = compare(doc("timeout"), doc("timeout"))
    assert out["regressions"] == []
    # failure -> failure unchanged
    out = compare(doc("failure"), doc("failure"))
    assert out["regressions"] == []
