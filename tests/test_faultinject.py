"""Fault-injection suite: every injected fault must terminate in a
documented typed outcome — never an unhandled traceback, and never a
``verified`` result on a faulted path.

Also covers each ``SDPStatus.NUMERICAL_ERROR`` exit path in
``repro.sdp.ipm`` individually (satellite d of the robustness issue).
"""

import json
import os

import numpy as np
import pytest

from repro.cegis import SNBC, SNBCConfig
from repro.diagnostics import faultinject as fi
from repro.dynamics import CCDS, ControlAffineSystem
from repro.learner import LearnerConfig
from repro.poly import Polynomial
from repro.resilience.faults import FaultSpec, active_plan, clear, fault_point
from repro.sdp import SDPProblem, SDPStatus, solve_sdp
from repro.sets import Box


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
    xs = Polynomial.variables(2)
    sys2 = ControlAffineSystem.autonomous([-1.0 * x for x in xs])
    return CCDS(
        sys2,
        theta=Box.cube(2, -1.0, 1.0),
        psi=Box.cube(2, -2.0, 2.0),
        xi=Box.cube(2, -0.2, 0.2),
    )


def run_snbc(problem, **config_kwargs):
    defaults = dict(max_iterations=2, n_samples=100, seed=0)
    defaults.update(config_kwargs)
    return SNBC(
        problem,
        learner_config=LearnerConfig(b_hidden=(4,), epochs=40, seed=0),
        config=SNBCConfig(**defaults),
    ).run()


# ----------------------------------------------------------------------
# fault-point core
# ----------------------------------------------------------------------
def test_fault_point_noop_without_plan():
    assert active_plan() is None
    fault_point("sdp.solve")  # silent when nothing is injected


def test_spec_window_at_call_and_times():
    spec = FaultSpec("s", at_call=2, times=2)
    assert [spec.should_fire(n) for n in (1, 2, 3, 4)] == [
        False,
        True,
        True,
        False,
    ]


def test_inject_window_fires_then_stops():
    with fi.inject(FaultSpec("site.x", at_call=2)) as plan:
        fault_point("site.x")  # call 1: below window
        with pytest.raises(RuntimeError):
            fault_point("site.x")  # call 2: fires
        fault_point("site.x")  # call 3: window exhausted
    assert plan.fired_sites() == ["site.x"]
    assert plan.calls["site.x"] == 3
    assert active_plan() is None


def test_inject_refuses_nesting():
    with fi.inject(FaultSpec("a")):
        with pytest.raises(RuntimeError, match="already active"):
            with fi.inject(FaultSpec("b")):
                pass
    clear()


def test_clear_removes_plan():
    with fi.inject(FaultSpec("a")):
        clear()
        fault_point("a")  # no longer fires
    assert active_plan() is None


# ----------------------------------------------------------------------
# satellite (d): every NUMERICAL_ERROR exit path in ipm.py
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "spec_factory, message_part",
    [
        (fi.nan_mu, "mu became invalid"),
        (fi.cholesky_failure, "Z lost positive definiteness"),
        (fi.nan_direction, "non-finite search direction"),
        (fi.step_collapse, "step lengths collapsed"),
        (fi.solver_exception, "solver exception"),
    ],
)
def test_ipm_numerical_error_exit_paths(spec_factory, message_part):
    with fi.inject(spec_factory()) as plan:
        res = solve_sdp(min_trace_problem())
    assert plan.fired_sites(), "fault never reached its site"
    assert res.status == SDPStatus.NUMERICAL_ERROR
    assert message_part in res.message


def test_ipm_injected_nonconvergence_is_max_iterations():
    with fi.inject(fi.solver_nonconvergence()) as plan:
        res = solve_sdp(min_trace_problem())
    assert plan.fired_sites() == ["sdp.nonconvergence"]
    assert res.status == SDPStatus.MAX_ITERATIONS
    assert "injected non-convergence" in res.message


def test_ipm_healthy_solve_unaffected_by_other_sites():
    # a plan for an unrelated site must not perturb the solve
    base = solve_sdp(min_trace_problem())
    with fi.inject(FaultSpec("unrelated.site")):
        res = solve_sdp(min_trace_problem())
    assert res.status == SDPStatus.OPTIMAL
    assert res.primal_objective == base.primal_objective


# ----------------------------------------------------------------------
# SNBC-level typed outcomes (times=100 outlasts every recovery ladder)
# ----------------------------------------------------------------------
def test_nan_gradients_once_is_recovered():
    with fi.inject(fi.nan_gradients()) as plan:
        res = run_snbc(impossible_problem())
    assert plan.fired_sites() == ["learner.gradients"]
    assert res.outcome == "not_verified"  # recovered, ran to completion
    assert res.error is None


def test_nan_gradients_persistent_is_learner_divergence():
    with fi.inject(fi.nan_gradients(times=100)) as plan:
        res = run_snbc(impossible_problem())
    assert plan.fired_sites()
    assert res.outcome == "error"
    assert res.error["kind"] == "LearnerDivergence"
    assert not res.success


def test_persistent_solver_faults_never_verify():
    for spec_factory in (fi.cholesky_failure, fi.solver_nonconvergence):
        with fi.inject(spec_factory(times=100)) as plan:
            res = run_snbc(impossible_problem())
        assert plan.fired_sites(), spec_factory.__name__
        assert res.outcome != "verified", spec_factory.__name__
        assert not res.success


def test_deadline_overrun_is_clean_timeout():
    with fi.inject(fi.deadline_overrun()) as plan:
        res = run_snbc(impossible_problem())
    assert plan.fired_sites() == ["budget.deadline"]
    assert res.outcome == "timeout"
    assert res.timed_out
    assert res.error["kind"] == "BudgetExhausted"
    assert res.error["details"].get("injected") is True


def test_lp_failure_is_inclusion_error():
    from repro.benchmarks import get_benchmark

    spec = get_benchmark("C1")
    problem = spec.make_problem()
    controller = spec.make_controller()
    snbc = SNBC(
        problem,
        controller=controller,
        learner_config=spec.learner_config(),
        config=spec.snbc_config("smoke"),
    )
    with fi.inject(fi.lp_failure()) as plan:
        res = snbc.run()
    assert plan.fired_sites() == ["inclusion.lp"]
    assert res.outcome == "error"
    assert res.error["kind"] == "InclusionError"
    assert not res.success


# ----------------------------------------------------------------------
# the Table-1 runner continues past bad rows
# ----------------------------------------------------------------------
def test_bench_serial_records_error_row_and_continues(tmp_path, monkeypatch):
    from repro.analysis import report

    monkeypatch.setattr(report, "TRACE_DIR", str(tmp_path / "telemetry"))
    out = tmp_path / "b.json"
    # the C1 row hits the LP fault, the next system still runs clean
    with fi.inject(fi.lp_failure()) as plan:
        code = report.main(["--systems", "C1,C3", "--out", str(out)])
    assert plan.fired_sites() == ["inclusion.lp"]
    assert code == 1
    rows = json.loads(out.read_text())["rows"]
    assert rows["C1"]["outcome"] == "error"
    assert rows["C1"]["error"]["kind"] == "InclusionError"
    assert rows["C3"]["outcome"] == "success"


# -- certification-service sites (PR 9) ----------------------------------
def test_service_worker_kill_spec_builds():
    spec = fi.service_worker_kill(at_call=3, times=2)
    assert spec.site == "service.worker_kill_mid_job"
    assert spec.at_call == 3 and spec.times == 2


def test_service_worker_kill_fires_in_worker_and_is_survived(tmp_path):
    from repro.service import CertificationRequest, ServiceConfig, run_service

    reqs = [
        CertificationRequest(
            kind="custom", system="test", seed=i, config={},
            entry="repro.service.testing:echo_job",
        )
        for i in range(3)
    ]
    spec = fi.service_worker_kill(at_call=1)
    config = ServiceConfig(
        workers=1,
        worker_faults=(
            {"site": spec.site, "at_call": spec.at_call,
             "times": spec.times},
        ),
    )
    out = run_service(str(tmp_path / "root"), reqs, config)
    # the kill happened (a redelivery proves it) and every job still
    # reached success — a typed recovery, not a hang or a traceback
    assert out["counts"]["redeliveries"] >= 1
    assert all(r["status"] == "success" for r in out["jobs"].values())


def test_service_cache_corruption_evicts_never_serves(tmp_path):
    from repro.service import (
        CertificateCache,
        ServiceConfig,
        make_verify_request,
        run_service,
    )

    root = str(tmp_path / "root")
    req = make_verify_request(seed=0)
    run_service(root, [req], ServiceConfig(workers=0))
    cache = CertificateCache(os.path.join(root, "cache"))
    with fi.inject(fi.service_cache_corruption()) as plan:
        assert cache.get(req) is None  # rejected by the exact recheck
    assert plan.fired_sites() == ["service.cache_corrupt_bundle"]
    assert cache.eviction_log[-1][1] == "recheck"


def test_service_torn_journal_write_loses_one_record(tmp_path):
    from repro.service import JobJournal, replay_journal

    path = str(tmp_path / "journal.jsonl")
    journal = JobJournal(path)
    journal.append("submit", "k1", request={"kind": "custom"})
    with fi.inject(fi.service_torn_journal_write()) as plan:
        journal.append("complete", "k1")
    journal.close()
    assert plan.fired_sites() == ["service.journal_torn_write"]
    state = replay_journal(path)
    assert state.torn_records == 1
    assert state.jobs["k1"]["status"] == "pending"  # torn, not applied
