"""The Lie pair: the inclusion-error endpoints of one condition (15).

Within one :meth:`SOSVerifier.verify` call, the Lie SDPs of one Psi cell
at the endpoints ``w = +-sigma*`` have the same constraint matrix and
objective; only ``b`` differs.  The later endpoints reuse the first
one's compile, presolve and IPM operator and start from its solution.
These tests pin the premise, the equality guard on the reuse, the
bitwise contract (every solve but a later endpoint's is unchanged), and
the rhs consistency test under the shared presolve.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.sdp.problem as problem_module
import repro.verifier.sos_verifier as sos_verifier
from repro.benchmarks import get_benchmark
from repro.cegis import SNBC
from repro.dynamics import CCDS, ControlAffineSystem
from repro.poly import Polynomial
from repro.sdp import SDPProblem, SDPStatus, WarmStart, solve_sdp
from repro.sdp.ipm import _constraint_operator
from repro.sets import Box, DifferenceSet
from repro.sos import SOSExpr
from repro.sos.workspace import ConditionWorkspace, lambda_expr
from repro.soundness.checker import check_certificate
from repro.verifier import SOSVerifier

from tests.test_perf_identity import FreshProgramVerifier, assert_results_identical
from tests.test_sdp_solver import assert_sdp_results_identical


# ----------------------------------------------------------------------
# instances
# ----------------------------------------------------------------------
def _quadratic_barrier(n, c=1.0, scale=0.4):
    B = Polynomial.constant(n, c)
    for i in range(n):
        B = B - scale * Polynomial.variable(n, i) ** 2
    return B


@pytest.fixture(scope="module")
def c6_case():
    """C6 with a one-round SNBC candidate: one input, two endpoints."""
    spec = get_benchmark("C6")
    problem = spec.make_problem()
    snbc = SNBC(
        problem,
        controller=spec.make_controller(),
        learner_config=spec.learner_config(),
        config=dataclasses.replace(
            spec.snbc_config("paper"), max_iterations=1, soundness_check=False
        ),
    )
    result = snbc.run()
    assert result.barrier is not None
    inc = result.inclusion
    assert len(inc.sigma_star) == 1 and inc.sigma_star[0] > 0
    return problem, inc.polynomials, inc.sigma_star, result.barrier


def two_input_case():
    """Two inputs with nonzero inclusion error: four endpoints."""
    x1, x2 = Polynomial.variables(2)
    system = ControlAffineSystem(
        [0.5 * x1, 0.5 * x2], [[1.0, 0.0], [0.0, 1.0]]
    )
    problem = CCDS(
        system,
        theta=Box.cube(2, -0.4, 0.4, name="theta"),
        psi=Box.cube(2, -2.0, 2.0, name="psi"),
        xi=Box([1.4, 1.4], [1.8, 1.8], name="xi"),
        name="two-input",
    )
    return problem, [-2.0 * x1, -2.0 * x2], [0.05, 0.05], _quadratic_barrier(2)


def decomposed_psi_case():
    """One input, Psi a box minus a box obstacle: four cells, two
    endpoints each."""
    x1, x2 = Polynomial.variables(2)
    system = ControlAffineSystem([0.5 * x1, -1.0 * x2], [[1.0], [0.0]])
    problem = CCDS(
        system,
        theta=Box.cube(2, -0.4, 0.4, name="theta"),
        psi=DifferenceSet(
            Box([-2.0, -2.0], [2.0, 2.0]), [Box([0.6, 0.6], [1.2, 1.2])]
        ),
        xi=Box([1.4, 1.4], [1.8, 1.8], name="xi"),
        name="holed-psi",
    )
    assert len(problem.psi.decompose()) == 4
    return problem, [-2.0 * x1], [0.05], _quadratic_barrier(2)


CASES = {
    "two-input": two_input_case,
    "decomposed-psi": decomposed_psi_case,
}


@pytest.fixture(params=["C6", "two-input", "decomposed-psi"])
def case(request, c6_case):
    if request.param == "C6":
        return c6_case
    return CASES[request.param]()


def _recording(monkeypatch):
    """Record every (problem, result) the verifier hands to and gets
    from ``solve_sdp_resilient``, in call order."""
    calls = []
    original = sos_verifier.solve_sdp_resilient

    def wrapper(problem, *args, **kwargs):
        result = original(problem, *args, **kwargs)
        calls.append((problem, result))
        return result

    monkeypatch.setattr(sos_verifier, "solve_sdp_resilient", wrapper)
    return calls


def _lie_solves(verdict, calls):
    """The Lie conditions' (name, problem, result), in verification order."""
    assert len(verdict.conditions) == len(calls)
    return [
        (rep.name, problem, result)
        for rep, (problem, result) in zip(verdict.conditions, calls)
        if rep.name.startswith("lie")
    ]


def _by_cell(lie, n_cells):
    """Lie solves grouped per Psi cell, endpoints in order."""
    return [lie[c::n_cells] for c in range(n_cells)]


# ----------------------------------------------------------------------
# the premise, and that the pair is solved through one shared matrix
# ----------------------------------------------------------------------
def test_endpoint_sdps_differ_only_in_rhs(case, monkeypatch):
    problem, h, sigma, B = case
    calls = _recording(monkeypatch)
    verdict = FreshProgramVerifier(problem, h, sigma).verify(B)
    assert verdict.ok
    n_cells = len(problem.psi.decompose())
    n_endpoints = 2 ** sum(s > 0 for s in sigma)
    lie = _lie_solves(verdict, calls)
    assert len(lie) == n_cells * n_endpoints
    for cell in _by_cell(lie, n_cells):
        _, first, _ = cell[0]
        for _, later, _ in cell[1:]:
            assert later.constraint_matrix().tobytes() == (
                first.constraint_matrix().tobytes()
            )
            assert all(
                a.tobytes() == c.tobytes() for a, c in zip(later.C, first.C)
            )
            assert not np.array_equal(later.rhs(), first.rhs())


def test_later_endpoints_share_the_first_ones_matrix(case, monkeypatch):
    problem, h, sigma, B = case
    calls = _recording(monkeypatch)
    verdict = SOSVerifier(problem, h, sigma).verify(B)
    assert verdict.ok
    n_cells = len(problem.psi.decompose())
    cells = _by_cell(_lie_solves(verdict, calls), n_cells)
    matrices = []
    for cell in cells:
        _, first, first_result = cell[0]
        assert not first_result.warm_started
        A = first.constraint_matrix()
        matrices.append(A)
        for _, later, result in cell[1:]:
            assert later.constraint_matrix() is A
            assert _constraint_operator(later) is _constraint_operator(first)
            assert result.warm_started
            assert result.status == SDPStatus.OPTIMAL
    # one share per cell: cells have different constraint polynomials
    assert len({id(A) for A in matrices}) == n_cells


# ----------------------------------------------------------------------
# the eliminated Lie SDP keeps sparse rows
# ----------------------------------------------------------------------
def test_lie_sdp_keeps_sparse_rows(c6_case, monkeypatch):
    problem, h, sigma, B = c6_case
    compiled = []
    original = ConditionWorkspace.compile

    def recording(self, varying, like=None):
        out = original(self, varying, like=like)
        compiled.append(out)
        return out

    with monkeypatch.context() as mp:
        fresh_calls = _recording(mp)
        FreshProgramVerifier(problem, h, sigma).verify(B)
    monkeypatch.setattr(ConditionWorkspace, "compile", recording)
    calls = _recording(monkeypatch)
    assert SOSVerifier(problem, h, sigma).verify(B).ok
    lie = [c for c in compiled if c.Bf.shape[1]]
    assert lie
    for c in lie:
        elim = c.elimination
        assert elim.pivots.size == np.linalg.matrix_rank(c.Bf)
        # row i is G_i - C_i G_P: only the pivot rows' nonzeros are added
        touched = np.count_nonzero(np.any(elim.C, axis=1))
        bound = np.count_nonzero(c.G) + touched * np.count_nonzero(c.G[elim.pivots])
        assert np.count_nonzero(c.sdp.constraint_matrix()) <= bound
    # the fresh SOSProgram compile eliminates lambda the same way
    assert len(calls) == len(fresh_calls)
    for (got, _), (ref, _) in zip(calls, fresh_calls):
        assert got.constraint_matrix().tobytes() == ref.constraint_matrix().tobytes()
        assert got.rhs().tobytes() == ref.rhs().tobytes()


# ----------------------------------------------------------------------
# the bitwise contract
# ----------------------------------------------------------------------
def _reference_lie(problem, h, sigma, B, monkeypatch):
    """Fresh compile, presolve and cold solve per endpoint."""
    with monkeypatch.context() as mp:
        calls = _recording(mp)
        verdict = FreshProgramVerifier(problem, h, sigma).verify(B)
    return verdict, [res for _, _, res in _lie_solves(verdict, calls)]


def test_first_endpoint_bitwise_and_later_endpoints_warm(case, monkeypatch):
    problem, h, sigma, B = case
    ref_verdict, ref = _reference_lie(problem, h, sigma, B, monkeypatch)
    calls = _recording(monkeypatch)
    verdict = SOSVerifier(problem, h, sigma).verify(B)
    got = [res for _, _, res in _lie_solves(verdict, calls)]
    assert len(got) == len(ref)
    n_cells = len(problem.psi.decompose())
    for got_cell, ref_cell in zip(_by_cell(got, n_cells), _by_cell(ref, n_cells)):
        assert_sdp_results_identical(got_cell[0], ref_cell[0])
        for res in got_cell[1:]:
            assert res.warm_started and res.status == SDPStatus.OPTIMAL
    # the first endpoint supplies the reported lambda
    assert verdict.lambda_poly.coeffs == ref_verdict.lambda_poly.coeffs
    assert verdict.ok and verdict.certificate is not None
    assert check_certificate(problem, verdict.certificate).ok


def test_all_endpoints_bitwise_when_cold(case, monkeypatch):
    problem, h, sigma, B = case
    monkeypatch.setattr(WarmStart, "from_result", classmethod(lambda cls, r: None))
    ref_verdict, ref = _reference_lie(problem, h, sigma, B, monkeypatch)
    calls = _recording(monkeypatch)
    verdict = SOSVerifier(problem, h, sigma).verify(B)
    got = [res for _, _, res in _lie_solves(verdict, calls)]
    assert len(got) == len(ref) > 1
    for a, b in zip(got, ref):
        assert not a.warm_started
        assert_sdp_results_identical(a, b)
    assert_results_identical(verdict, ref_verdict)


def test_nothing_shared_across_verify_calls(monkeypatch):
    problem, h, sigma, B = two_input_case()
    calls = _recording(monkeypatch)
    verifier = SOSVerifier(problem, h, sigma)
    first = verifier.verify(B)
    n_first = len(calls)
    second = verifier.verify(B)
    assert_results_identical(first, second)
    again = [p for p, _ in calls[n_first:]]
    for p, _ in calls[:n_first]:
        assert all(p.constraint_matrix() is not q.constraint_matrix() for q in again)
    # each call's first endpoint starts cold
    lie_second = _lie_solves(second, calls[n_first:])
    assert not lie_second[0][2].warm_started


# ----------------------------------------------------------------------
# the guard: a changed template shares nothing
# ----------------------------------------------------------------------
def test_changed_template_rows_share_nothing(monkeypatch):
    problem, h, sigma, B = two_input_case()
    ref_verdict, ref = _reference_lie(problem, h, sigma, B, monkeypatch)
    original = ConditionWorkspace._ensure_slack

    def rebuild_every_time(self, slack_half):
        # a fresh template-rows dict on every compile
        self._slack_half = None
        original(self, slack_half)

    monkeypatch.setattr(ConditionWorkspace, "_ensure_slack", rebuild_every_time)
    calls = _recording(monkeypatch)
    verdict = SOSVerifier(problem, h, sigma).verify(B)
    lie = _lie_solves(verdict, calls)
    first = lie[0][1].constraint_matrix()
    for _, later, _ in lie[1:]:
        assert later.constraint_matrix() is not first
    got = [res for _, _, res in lie]
    assert len(got) == len(ref) == 4
    for a, b in zip(got, ref):
        assert not a.warm_started
        assert_sdp_results_identical(a, b)
    assert_results_identical(verdict, ref_verdict)


def _workspace_and_varyings():
    n = 2
    x1, x2 = Polynomial.variables(n)
    ws = ConditionWorkspace(
        n, Box.cube(n, -2.0, 2.0).constraints, [0, 0, 0, 0], lambda_degree=1
    )
    B = _quadratic_barrier(n)
    lam = lambda_expr(n, 1)

    def varying(known, barrier=B):
        return SOSExpr.from_polynomial(known) - lam * barrier

    lie = 1.2 * x1 * x1 + 1.2 * x2 * x2 - 1e-4
    return ws, varying, lie, x1, B


def _assert_compiled_equal(a, b):
    for field in ("Bf", "r", "G"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert np.array_equal(a.sdp.constraint_matrix(), b.sdp.constraint_matrix())
    assert np.array_equal(a.sdp.rhs(), b.sdp.rhs())


@pytest.mark.parametrize("change", ["none", "rhs", "Bf", "degree", "rows"])
def test_workspace_reuse_is_guarded_by_exact_equality(change):
    ws, varying, lie, x1, B = _workspace_and_varyings()
    first = ws.compile(varying(lie))
    if change == "none":
        v = varying(lie)
    elif change == "rhs":
        v = varying(lie + 0.05 * x1)
    elif change == "Bf":
        v = varying(lie, barrier=B + 1e-9 * x1)
    elif change == "degree":
        # beyond the slack degree: a larger slack block, more rows
        v = varying(lie + 0.05 * x1 ** 5)
    else:
        ws._slack_half = None  # the same rows, in a rebuilt dict
        v = varying(lie)
    reused = ws.compile(v, like=first)
    fresh = ws.compile(v)
    _assert_compiled_equal(reused, fresh)
    shares = change in ("none", "rhs")
    assert reused.reused is shares
    assert (reused.G is first.G) is shares
    assert (
        reused.sdp.constraint_matrix() is first.sdp.constraint_matrix()
    ) is shares


# ----------------------------------------------------------------------
# the shared presolve keeps testing rhs consistency
# ----------------------------------------------------------------------
def _rank_deficient(b):
    """Three rows on a 2x2 block; the third is the sum of the first two."""
    A = np.array([
        [1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0],
        [1.0, 0.0, 1.0],
    ])
    prob = SDPProblem([2])
    prob.set_trace_objective(1.0)
    prob.add_constraints_from_matrix(A, np.asarray(b, dtype=float))
    return prob


def test_shared_presolve_detects_inconsistent_rhs():
    first = _rank_deficient([1.0, 2.0, 3.0])
    res = solve_sdp(first)
    assert res.status == SDPStatus.OPTIMAL
    assert first.presolved()[1].dropped_rows == [2]
    # the third row is dropped; this rhs contradicts it
    second = first.with_rhs(np.array([1.0, 2.0, 4.0]))
    assert second.constraint_matrix() is first.constraint_matrix()
    assert solve_sdp(second).status == SDPStatus.INCONSISTENT
    # and a consistent one solves
    third = first.with_rhs(np.array([2.0, 1.0, 3.0]))
    assert solve_sdp(third).status == SDPStatus.OPTIMAL


def test_full_rank_presolve_is_shared(monkeypatch):
    A = np.eye(3)
    first = SDPProblem([2])
    first.set_trace_objective(1.0)
    first.add_constraints_from_matrix(A, np.array([1.0, 0.0, 1.0]))
    assert solve_sdp(first).status == SDPStatus.OPTIMAL
    second = first.with_rhs(np.array([2.0, 0.1, 1.0]))
    with monkeypatch.context() as mp:
        # a zero block size makes the Gram-Schmidt loop raise: the
        # recorded presolve is not run again
        mp.setattr(problem_module, "PRESOLVE_BLOCK", 0)
        reduced, info = second.presolved()
    assert info.kept_rows == [0, 1, 2] and not info.dropped_rows
    assert reduced.constraint_matrix() is first.constraint_matrix()
    assert np.array_equal(reduced.rhs(), [2.0, 0.1, 1.0])
    # the record holds for that matrix object only
    shared = first.constraint_matrix()
    assert first.memo.get("presolve.full_rank_tol", shared) == 1e-10
    assert first.memo.get("presolve.full_rank_tol", shared.copy()) is None
    cold = SDPProblem([2])
    cold.set_trace_objective(1.0)
    cold.add_constraints_from_matrix(A.copy(), np.array([2.0, 0.1, 1.0]))
    assert_sdp_results_identical(solve_sdp(second), solve_sdp(cold))
