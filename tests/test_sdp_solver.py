"""Tests for the interior-point SDP solver on problems with known answers.

Also home of the solver's reference oracle: the textbook IPM kernels
over scipy's wrappers, which the raw-LAPACK/GEMM kernels must match bit
for bit.
"""

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, cholesky, solve_triangular

from repro.sdp import (
    InteriorPointOptions,
    SDPProblem,
    SDPStatus,
    solve_sdp,
)
from repro.sdp import ipm
from repro.sdp.svec import smat_batch, svec, sym


def unit(n, i, j):
    """Symmetric unit matrix E_ij + E_ji (or E_ii)."""
    E = np.zeros((n, n))
    E[i, j] += 0.5
    E[j, i] += 0.5
    if i == j:
        E[i, i] = 1.0
    return E


# ----------------------------------------------------------------------
# basic problems
# ----------------------------------------------------------------------
def test_min_trace_with_fixed_entry():
    # min tr(X) s.t. X_11 = 2, X 2x2 PSD  ->  X = diag(2, 0), value 2
    prob = SDPProblem([2])
    prob.set_trace_objective()
    prob.add_constraint([unit(2, 0, 0)], 2.0)
    res = solve_sdp(prob)
    assert res.status == SDPStatus.OPTIMAL
    assert res.primal_objective == pytest.approx(2.0, abs=1e-5)
    assert res.X[0][0, 0] == pytest.approx(2.0, abs=1e-5)


def test_min_eigenvalue_formulation():
    # min <A, X> s.t. tr X = 1, X PSD  ->  lambda_min(A)
    rng = np.random.default_rng(5)
    A = rng.normal(size=(4, 4))
    A = 0.5 * (A + A.T)
    prob = SDPProblem([4])
    prob.set_objective([A])
    prob.add_constraint([np.eye(4)], 1.0)
    res = solve_sdp(prob)
    assert res.status == SDPStatus.OPTIMAL
    lam_min = np.linalg.eigvalsh(A)[0]
    assert res.primal_objective == pytest.approx(lam_min, abs=1e-5)


def test_two_blocks():
    # min tr(X1) + tr(X2) with X1_11 = 1, X2_22 = 3
    prob = SDPProblem([2, 3])
    prob.set_trace_objective()
    prob.add_constraint([unit(2, 0, 0), None], 1.0)
    prob.add_constraint([None, unit(3, 1, 1)], 3.0)
    res = solve_sdp(prob)
    assert res.status == SDPStatus.OPTIMAL
    assert res.primal_objective == pytest.approx(4.0, abs=1e-5)


def test_feasibility_recovers_psd_completion():
    # X_12 = 1 with min trace => X = [[1,1],[1,1]] (rank-1, trace 2)
    prob = SDPProblem([2])
    prob.set_trace_objective()
    prob.add_constraint([unit(2, 0, 1)], 1.0)
    res = solve_sdp(prob)
    assert res.status == SDPStatus.OPTIMAL
    assert res.primal_objective == pytest.approx(2.0, abs=1e-4)
    assert np.linalg.eigvalsh(res.X[0])[0] >= -1e-7


def test_primal_infeasible_detected():
    # X_11 = -1 impossible for PSD X
    prob = SDPProblem([2])
    prob.set_trace_objective()
    prob.add_constraint([unit(2, 0, 0)], -1.0)
    res = solve_sdp(prob, InteriorPointOptions(max_iterations=200))
    assert res.status in (
        SDPStatus.PRIMAL_INFEASIBLE,
        SDPStatus.MAX_ITERATIONS,
        SDPStatus.NUMERICAL_ERROR,
    )
    assert not res.feasible


def test_inconsistent_constraints_detected():
    prob = SDPProblem([2])
    prob.add_constraint([unit(2, 0, 0)], 1.0)
    prob.add_constraint([unit(2, 0, 0)], 2.0)
    res = solve_sdp(prob)
    assert res.status == SDPStatus.INCONSISTENT


def test_redundant_constraints_presolved():
    prob = SDPProblem([2])
    prob.set_trace_objective()
    prob.add_constraint([unit(2, 0, 0)], 1.0)
    prob.add_constraint([unit(2, 0, 0)], 1.0)  # duplicate
    prob.add_constraint([2.0 * unit(2, 0, 0)], 2.0)  # scaled duplicate
    res = solve_sdp(prob)
    assert res.status == SDPStatus.OPTIMAL
    assert res.X[0][0, 0] == pytest.approx(1.0, abs=1e-5)
    assert res.y is not None and res.y.shape == (3,)


def test_no_constraints():
    prob = SDPProblem([3])
    res = solve_sdp(prob)
    assert res.status == SDPStatus.OPTIMAL
    np.testing.assert_allclose(res.X[0], np.zeros((3, 3)))


# ----------------------------------------------------------------------
# randomized problems with a constructed KKT-optimal pair
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n,m,seed", [(3, 4, 0), (5, 8, 1), (6, 10, 2), (8, 12, 3)])
def test_random_sdp_with_known_optimum(n, m, seed):
    rng = np.random.default_rng(seed)
    # strictly complementary optimal pair: X* = U diag(p, 0) U^T, Z* = U diag(0, q) U^T
    U, _ = np.linalg.qr(rng.normal(size=(n, n)))
    r = n // 2
    p = rng.uniform(0.5, 2.0, size=r)
    q = rng.uniform(0.5, 2.0, size=n - r)
    X_star = U @ np.diag(np.concatenate([p, np.zeros(n - r)])) @ U.T
    Z_star = U @ np.diag(np.concatenate([np.zeros(r), q])) @ U.T
    y_star = rng.normal(size=m)
    A_mats = []
    for _ in range(m):
        Ai = rng.normal(size=(n, n))
        A_mats.append(0.5 * (Ai + Ai.T))
    C = Z_star + sum(y_star[i] * A_mats[i] for i in range(m))
    prob = SDPProblem([n])
    prob.set_objective([C])
    for Ai in A_mats:
        prob.add_constraint([Ai], float(np.sum(Ai * X_star)))
    res = solve_sdp(prob)
    assert res.status == SDPStatus.OPTIMAL
    expected = float(np.sum(C * X_star))
    assert res.primal_objective == pytest.approx(expected, abs=1e-4 * (1 + abs(expected)))
    assert res.dual_objective == pytest.approx(expected, abs=1e-4 * (1 + abs(expected)))


def test_result_diagnostics():
    prob = SDPProblem([2])
    prob.set_trace_objective()
    prob.add_constraint([unit(2, 0, 0)], 1.0)
    res = solve_sdp(prob)
    eigs = res.min_eigenvalues()
    assert len(eigs) == 1
    assert eigs[0] >= -1e-8
    assert res.gap < 1e-6
    assert res.iterations > 0


# ----------------------------------------------------------------------
# problem container validation
# ----------------------------------------------------------------------
def test_problem_validation():
    with pytest.raises(ValueError):
        SDPProblem([])
    with pytest.raises(ValueError):
        SDPProblem([0])
    prob = SDPProblem([2])
    with pytest.raises(ValueError):
        prob.add_constraint([np.zeros((3, 3))], 0.0)
    with pytest.raises(ValueError):
        prob.add_constraint([np.zeros((2, 2)), np.zeros((2, 2))], 0.0)
    with pytest.raises(ValueError):
        prob.set_objective([np.zeros((3, 3))])
    with pytest.raises(ValueError):
        prob.add_constraint_svec([np.zeros(5)], 0.0)


def test_constraint_matrix_and_split():
    prob = SDPProblem([2, 2])
    prob.add_constraint([unit(2, 0, 0), unit(2, 1, 1)], 1.0)
    mat = prob.constraint_matrix()
    assert mat.shape == (1, 6)
    parts = prob.split_svec(mat[0])
    assert len(parts) == 2 and parts[0].shape == (3,)


# ----------------------------------------------------------------------
# solver kernels vs the reference oracle, warm starts
# ----------------------------------------------------------------------
class _ReferenceIPMState(ipm._IPMState):
    """The IPM loop over scipy's Cholesky wrappers and per-block
    batched matmuls: the kernels the raw-LAPACK/GEMM path replaced, kept
    here as the oracle that path must match bit for bit."""

    def _phase_z_factor(self, rec):
        self.Zinv = []
        for Zk in self.Z:
            try:
                cf = cho_factor(Zk)
            except np.linalg.LinAlgError:
                rec["z_cholesky_ok"] = False
                self._stop(SDPStatus.NUMERICAL_ERROR, "Z lost positive definiteness")
                return False
            self.Zinv.append(cho_solve(cf, np.eye(Zk.shape[0])))
        return True

    def _schur_block(self, k, blk):
        dense = smat_batch(blk.svecs, blk.n)
        U = self.X[k][None, :, :] @ dense @ self.Zinv[k][None, :, :]
        U = 0.5 * (U + np.transpose(U, (0, 2, 1)))
        return svec(U) @ blk.svecs.T

    def _phase_schur_factor(self, M, rec):
        jitter = ipm._schur_regularization(M, self.m)
        try:
            return cho_factor(M + jitter * np.eye(self.m))
        except np.linalg.LinAlgError:
            rec["schur_cholesky_ok"] = False
            return None

    def _solve_M(self, M, M_factor, rhs_vec):
        if M_factor is not None:
            return cho_solve(M_factor, rhs_vec)
        return np.linalg.lstsq(M, rhs_vec, rcond=None)[0]

    def _max_step(self, which, dMb):
        alpha = np.inf
        for Mk, dMk in zip(self.X if which == "X" else self.Z, dMb):
            if not np.all(np.isfinite(dMk)):
                return 0.0
            try:
                L = cholesky(Mk, lower=True)
            except (np.linalg.LinAlgError, ValueError):
                return 0.0
            W = solve_triangular(L, dMk, lower=True)
            W = solve_triangular(L, W.T, lower=True)
            lam_min = float(np.linalg.eigvalsh(sym(W))[0])
            if lam_min < 0:
                alpha = min(alpha, -1.0 / lam_min)
        return float(alpha)


def _random_feasible_sdp(n, m, seed):
    """Strictly feasible random SDP built from a known interior pair."""
    rng = np.random.default_rng(seed)
    X0 = rng.normal(size=(n, n))
    X0 = X0 @ X0.T + n * np.eye(n)
    Z0 = rng.normal(size=(n, n))
    Z0 = Z0 @ Z0.T + n * np.eye(n)
    y0 = rng.normal(size=m)
    A_mats = []
    for _ in range(m):
        Ai = rng.normal(size=(n, n))
        A_mats.append(0.5 * (Ai + Ai.T))
    C = Z0 + sum(y0[i] * A_mats[i] for i in range(m))
    prob = SDPProblem([n])
    prob.set_objective([C])
    for Ai in A_mats:
        prob.add_constraint([Ai], float(np.sum(Ai * X0)))
    return prob


def assert_sdp_results_identical(a, b):
    """Bitwise SDPResult equality (wall-clock trace timers aside)."""
    assert a.status == b.status
    assert a.iterations == b.iterations
    assert a.message == b.message
    assert a.convergence_class == b.convergence_class
    for fa, fb in (
        (a.primal_objective, b.primal_objective),
        (a.dual_objective, b.dual_objective),
        (a.gap, b.gap),
        (a.primal_residual, b.primal_residual),
        (a.dual_residual, b.dual_residual),
    ):
        assert (np.isnan(fa) and np.isnan(fb)) or fa == fb
    for pa, pb in ((a.X, b.X), (a.Z, b.Z)):
        if pa is None or pb is None:
            assert pa is pb
        else:
            assert len(pa) == len(pb)
            for Ma, Mb in zip(pa, pb):
                assert np.array_equal(Ma, Mb)
    if a.y is None or b.y is None:
        assert a.y is b.y
    else:
        assert np.array_equal(a.y, b.y)


@pytest.mark.parametrize("n,m,seed", [(3, 4, 0), (6, 9, 1), (8, 12, 2)])
def test_fast_kernels_bitwise_identical_to_legacy(n, m, seed, monkeypatch):
    prob = _random_feasible_sdp(n, m, seed)
    fast = solve_sdp(prob)
    monkeypatch.setattr(ipm, "_IPMState", _ReferenceIPMState)
    legacy = solve_sdp(prob)
    assert fast.status == SDPStatus.OPTIMAL
    assert_sdp_results_identical(fast, legacy)


def test_warm_start_reduces_iterations():
    from repro.sdp import WarmStart

    prob = _random_feasible_sdp(6, 9, 20)
    cold = solve_sdp(prob)
    assert cold.status == SDPStatus.OPTIMAL
    assert not cold.warm_started
    ws = WarmStart.from_result(cold)
    assert ws is not None
    warm = solve_sdp(prob, warm_start=ws)
    assert warm.status == SDPStatus.OPTIMAL
    assert warm.warm_started
    assert warm.iterations <= cold.iterations


def test_warm_start_shape_mismatch_falls_back_to_cold():
    from repro.sdp import WarmStart

    donor = solve_sdp(_random_feasible_sdp(4, 5, 21))
    ws = WarmStart.from_result(donor)
    prob = _random_feasible_sdp(6, 9, 22)
    cold = solve_sdp(prob)
    mismatched = solve_sdp(prob, warm_start=ws)
    assert not mismatched.warm_started
    assert_sdp_results_identical(mismatched, cold)


def test_warm_start_from_failed_result_is_none():
    from repro.sdp import WarmStart
    from repro.sdp.result import SDPResult

    failed = SDPResult(status=SDPStatus.NUMERICAL_ERROR, message="boom")
    assert WarmStart.from_result(failed) is None


def test_schur_regularization_guards():
    from repro.sdp.ipm import _schur_regularization

    # healthy: exact legacy float-op order
    M = np.diag([1.0, 2.0, 3.0])
    assert _schur_regularization(M, 3) == 1e-14 * np.trace(M) / 3
    # m == 0 (fully presolved constraint set)
    assert _schur_regularization(np.zeros((0, 0)), 0) == 0.0
    # nan / zero / negative trace fall back to a positive jitter
    bad = np.diag([np.nan, 1.0])
    assert _schur_regularization(bad, 2) > 0.0
    assert np.isfinite(_schur_regularization(bad, 2))
    assert _schur_regularization(np.zeros((2, 2)), 2) > 0.0
    assert _schur_regularization(np.diag([-1.0, -2.0]), 2) > 0.0


def test_smat_batch_matches_scalar_smat():
    from repro.sdp import smat, smat_batch, svec

    rng = np.random.default_rng(7)
    n = 5
    mats = []
    for _ in range(4):
        A = rng.normal(size=(n, n))
        mats.append(0.5 * (A + A.T))
    vecs = np.stack([svec(A) for A in mats])
    out = smat_batch(vecs, n)
    assert out.shape == (4, n, n)
    for k, A in enumerate(mats):
        assert np.array_equal(out[k], smat(vecs[k], n))
