"""Tests for the interior-point SDP solver on problems with known answers.

Also home of the solver's reference oracles: the textbook IPM kernels
over scipy's wrappers, which the raw-LAPACK kernels must match bit for
bit; the textbook per-pair Schur complement, which the sparse Schur
contraction must match to a stated tolerance; and the row-by-row
Gram-Schmidt presolve, whose kept rows the blocked presolve must match.
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
from repro.sdp import problem as problem_mod
from repro.sdp.svec import smat_batch, sym
from repro.sdp.trace import make_record


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


def _dual_operator(prob, y):
    """``A^T y`` of ``prob`` as one matrix per block."""
    from repro.sdp import smat

    parts = prob.split_svec(prob.constraint_matrix().T @ y)
    return [smat(v, n) for v, n in zip(parts, prob.block_dims)]


def _is_dual_ray(prob, y, tolerance):
    """The Farkas-ray test by eigenvalues: ``b^T y > 0`` and
    ``lambda_max(A^T y) <= tolerance * ||A^T y||_F``."""
    ATy = _dual_operator(prob, y)
    norm = np.sqrt(sum(np.sum(a * a) for a in ATy))
    lam_max = max(np.linalg.eigvalsh(a)[-1] for a in ATy)
    return float(prob.rhs() @ y) > 0.0 and lam_max <= tolerance * norm


def test_primal_infeasible_detected():
    # X_11 = -1 impossible for PSD X; the returned y is the certificate
    prob = SDPProblem([2])
    prob.set_trace_objective()
    prob.add_constraint([unit(2, 0, 0)], -1.0)
    res = solve_sdp(prob)
    assert res.status == SDPStatus.PRIMAL_INFEASIBLE
    assert res.message == "dual ray certifies primal infeasibility"
    assert res.convergence_class == "diverging"
    assert not res.feasible
    assert _is_dual_ray(prob, res.y, InteriorPointOptions().tolerance)


def _thin_feasible_sdp():
    # X_11 = 1e-6: feasible, but the feasible set hugs the PSD boundary
    prob = SDPProblem([2])
    prob.set_trace_objective()
    prob.add_constraint([unit(2, 0, 0)], 1e-6)
    return prob


@pytest.mark.parametrize(
    "make",
    [
        lambda: _random_feasible_sdp(3, 4, 0),
        lambda: _random_feasible_sdp(6, 9, 1),
        lambda: _random_feasible_sdp(8, 12, 2),
        _thin_feasible_sdp,
    ],
    ids=["random-3", "random-6", "random-8", "thin"],
)
def test_dual_ray_test_has_no_false_positive(make, monkeypatch):
    prob = make()
    tolerance = InteriorPointOptions().tolerance
    seen = []

    class _Recording(ipm._IPMState):
        def _phase_residuals(self, rec):
            seen.append(_is_dual_ray(prob, self.y, tolerance))
            return super()._phase_residuals(rec)

    monkeypatch.setattr(ipm, "_IPMState", _Recording)
    res = solve_sdp(prob)
    assert res.status == SDPStatus.OPTIMAL
    assert len(seen) == res.iterations
    assert not any(seen)


def test_dual_ray_matches_eigenvalue_test():
    # y = (t, s): the first row, <-P, X> = 1 with P PD on every block, is
    # infeasible with ray y = (1, 0); the second is a random perturbation.
    # At s = 3.5 every block trace is negative but the 4x4 block has a
    # positive eigenvalue, so the Cholesky decides
    rng = np.random.default_rng(40)
    dims = [1, 2, 4]
    prob = SDPProblem(dims)
    prob.add_constraint([-_random_pd(n, rng) for n in dims], 1.0)
    prob.add_constraint([sym(rng.normal(size=(n, n))) for n in dims], 0.5)
    state = ipm._IPMState(prob, ipm.InteriorPointOptions())
    verdicts = []
    for y in ([1.0, 0.0], [2.0, 1e-12], [1.0, 1e-3], [1.0, 3.5], [1.0, 10.0],
              [-1.0, 0.0]):
        state.y = np.array(y)
        ATy = state._operator_AT(state.y)
        verdict = state.b @ state.y > 0.0 and state._dual_ray(ATy)
        assert verdict == _is_dual_ray(prob, state.y, state.opts.tolerance)
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts


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
    """The IPM loop over scipy's Cholesky wrappers: the kernels the
    raw-LAPACK path replaced, kept here as the oracle that path must
    match bit for bit.  The Schur assembly is shared (it reorders float
    sums, so it has its own tolerance test against the textbook
    formula: ``test_schur_assembly_matches_textbook_*``)."""

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


# ----------------------------------------------------------------------
# Schur assembly vs the textbook per-pair formula
# ----------------------------------------------------------------------
def _random_pd(n, rng):
    G = rng.normal(size=(n, n))
    return G @ G.T + n * np.eye(n)


def _assert_schur_matches_textbook(prob, seed):
    """The kernel's ``M`` against ``tr(A_i X A_j Z^{-1})`` pair by pair,
    at random interior X and Z: the sparse contraction reorders float
    sums, so agreement is to ``1e-12 * max|M|``, not bitwise."""
    state = ipm._IPMState(prob, ipm.InteriorPointOptions())
    rng = np.random.default_rng(seed)
    state.X = [_random_pd(n, rng) for n in state.dims]
    state.Z = [_random_pd(n, rng) for n in state.dims]
    rec = make_record(1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, t=0.0)
    assert state._phase_z_factor(rec)
    M = state._phase_schur_assembly(rec)
    m = prob.n_constraints
    ref = np.zeros((m, m))
    parts = prob.split_svec(prob.constraint_matrix().T)
    for part, n, Xk, Zk in zip(parts, state.dims, state.X, state.Z):
        Ab = smat_batch(part.T, n)
        Zinv = np.linalg.inv(Zk)
        for i in range(m):
            for j in range(m):
                ref[i, j] += np.trace(Ab[i] @ Xk @ Ab[j] @ Zinv)
    assert M.shape == (m, m)
    assert np.max(np.abs(M - ref)) <= 1e-12 * np.max(np.abs(M))


def test_schur_assembly_matches_textbook_dense_single_block():
    _assert_schur_matches_textbook(_random_feasible_sdp(7, 11, 30), seed=1)


def test_schur_assembly_matches_textbook_mixed_blocks():
    rng = np.random.default_rng(31)
    dims = [1, 3, 6, 2]
    prob = SDPProblem(dims)
    for i in range(14):
        blocks = []
        for k, n in enumerate(dims):
            if (i + k) % 3 == 0:
                blocks.append(None)  # this row leaves block k empty
            else:
                blocks.append(sym(rng.normal(size=(n, n))))
        prob.add_constraint(blocks, float(rng.normal()))
    _assert_schur_matches_textbook(prob, seed=2)


# ----------------------------------------------------------------------
# presolve: the blocked CGS2 keeps the rows the row-by-row loop kept
# ----------------------------------------------------------------------
def _reference_presolve(prob, tol=1e-10):
    """The row-by-row modified Gram-Schmidt presolve the blocked CGS2
    replaced: (kept_rows, dropped_rows, inconsistent)."""
    A = prob.constraint_matrix()
    b = prob.rhs()
    kept, dropped, basis = [], [], []
    inconsistent = False
    scale = max(1.0, float(np.max(np.abs(A))))
    for i in range(A.shape[0]):
        r = A[i].copy()
        rhs_i = b[i]
        for q, bi in basis:
            proj = q @ r
            r = r - proj * q
            rhs_i = rhs_i - proj * bi
        nrm = np.linalg.norm(r)
        if nrm > tol * scale:
            basis.append((r / nrm, rhs_i / nrm))
            kept.append(i)
        else:
            dropped.append(i)
            if abs(rhs_i) > 1e-6 * max(1.0, float(np.max(np.abs(b)))):
                inconsistent = True
    return kept, dropped, inconsistent


PRESOLVE_BLOCKS = (1, 3, problem_mod.PRESOLVE_BLOCK)


def _assert_presolve_matches_reference(probs, monkeypatch):
    expected = [_reference_presolve(p) for p in probs]
    for block in PRESOLVE_BLOCKS:
        monkeypatch.setattr(problem_mod, "PRESOLVE_BLOCK", block)
        for prob, (kept, dropped, inconsistent) in zip(probs, expected):
            reduced, info = prob.presolved()
            assert info.kept_rows == kept, (block, prob.n_constraints)
            assert info.dropped_rows == dropped
            assert info.inconsistent == inconsistent
            # the reduced problem holds the original rows, memo seeded
            assert reduced.n_constraints == len(kept)
            assert np.array_equal(
                reduced.constraint_matrix(), prob.constraint_matrix()[kept]
            )
            assert np.array_equal(reduced.rhs(), prob.rhs()[kept])


def _svec_problem(A, b, n):
    prob = SDPProblem([n])
    prob.add_constraints_from_matrix(np.asarray(A, float), np.asarray(b, float))
    return prob


def _rank_deficient_families():
    """Exactly rank-deficient constraint sets (integer data, so every
    dependent row is dependent to the last bit)."""
    rng = np.random.default_rng(40)
    n, S = 4, 10
    base = rng.integers(-3, 4, size=(6, S)).astype(float)
    x = rng.integers(-2, 3, size=S).astype(float)
    fams = {}
    # duplicate rows interleaved with fresh ones
    A = np.vstack([base[0], base[1], base[0], base[2], base[1], base[3]])
    fams["duplicates"] = (A, A @ x)
    # small-integer combinations of earlier rows
    rows = list(base[:4])
    for _ in range(5):
        coef = rng.integers(-3, 4, size=len(rows)).astype(float)
        rows.append(coef @ np.array(rows))
    A = np.array(rows)
    fams["combinations"] = (A, A @ x)
    # zero rows (first, middle, last)
    A = np.vstack([np.zeros(S), base[0], np.zeros(S), base[1], np.zeros(S)])
    fams["zero_rows"] = (A, A @ x)
    # more rows than the svec dimension
    A = rng.integers(-3, 4, size=(25, S)).astype(float)
    fams["m_gt_S"] = (A, A @ x)
    # a dependent row whose rhs is not the same combination
    A = np.vstack([base[0], base[1], base[0] + 2.0 * base[1]])
    b = A @ x
    b[2] += 1.0
    fams["inconsistent"] = (A, b)
    return {k: _svec_problem(A, b, n) for k, (A, b) in fams.items()}


def test_presolve_matches_reference_on_rank_deficient_families(monkeypatch):
    fams = _rank_deficient_families()
    _assert_presolve_matches_reference(list(fams.values()), monkeypatch)
    info = {k: p.presolved()[1] for k, p in fams.items()}
    assert info["duplicates"].dropped_rows == [2, 4]
    assert info["combinations"].kept_rows == [0, 1, 2, 3]
    assert info["zero_rows"].kept_rows == [1, 3]
    assert len(info["m_gt_S"].kept_rows) == 10
    assert info["inconsistent"].inconsistent
    assert not any(info[k].inconsistent for k in info if k != "inconsistent")


def _capture_condition_sdps(run):
    """Every SDP built while ``run()`` executes (captured at presolve)."""
    captured = []
    original = SDPProblem.presolved

    def recording(self, *args, **kwargs):
        captured.append(self)
        return original(self, *args, **kwargs)

    SDPProblem.presolved = recording
    try:
        run()
    finally:
        SDPProblem.presolved = original
    return captured


def _snbc_condition_sdps(name, scale, **config):
    import dataclasses

    from repro.benchmarks import get_benchmark
    from repro.cegis import SNBC

    spec = get_benchmark(name)
    snbc = SNBC(
        spec.make_problem(),
        controller=spec.make_controller(),
        learner_config=spec.learner_config(),
        config=dataclasses.replace(spec.snbc_config(scale), **config),
    )
    return _capture_condition_sdps(snbc.run)


@pytest.fixture(scope="module")
def smoke_condition_sdps():
    """Every condition SDP the verify calls of a smoke-scale SNBC run
    build, for C1, C6, C9 and Q1."""
    return {
        name: _snbc_condition_sdps(name, "smoke", soundness_check=False)
        for name in ("C1", "C6", "C9", "Q1")
    }


def test_presolve_matches_reference_on_condition_sdps(
    smoke_condition_sdps, monkeypatch
):
    for name, probs in smoke_condition_sdps.items():
        assert probs, name
        _assert_presolve_matches_reference(probs, monkeypatch)


@pytest.mark.slow
@pytest.mark.parametrize("name", ["C12", "C13"])
def test_presolve_matches_reference_on_paper_scale_lie_sdp(name, monkeypatch):
    probs = _snbc_condition_sdps(
        name, "paper", max_iterations=1, soundness_check=False
    )
    m_lie = max(p.n_constraints for p in probs)
    lie = [p for p in probs if p.n_constraints == m_lie]
    assert m_lie > 300 and lie
    _assert_presolve_matches_reference(lie, monkeypatch)


def test_schur_assembly_matches_textbook_sos_rows(smoke_condition_sdps):
    # SOS-shaped sparse rows: C6's conditions, Lie included
    probs = smoke_condition_sdps["C6"]
    assert max(p.n_constraints for p in probs) > 20
    for seed, prob in enumerate(probs):
        _assert_schur_matches_textbook(prob.presolved()[0], seed=seed)


def _near_dependent_family(seed, S=10, m=20):
    """Rows that are small-integer combinations of earlier rows plus
    1e-13..1e-7 noise, with a fresh integer row now and then."""
    rng = np.random.default_rng(seed)
    rows = list(rng.integers(-3, 4, size=(int(rng.integers(1, 4)), S)).astype(float))
    while len(rows) < m:
        if rng.random() < 0.3:
            rows.append(rng.integers(-3, 4, size=S).astype(float))
            continue
        prev = np.array(rows)
        coef = rng.integers(-2, 3, size=len(prev)).astype(float)
        noise = 10.0 ** rng.uniform(-13, -7)
        rows.append(coef @ prev / max(1.0, np.abs(coef).sum())
                    + noise * rng.normal(size=S))
    A = np.array(rows)
    return A, A @ rng.normal(size=S)


def _distance_to_span(r, rows):
    """Distance from ``r`` to the row span of ``rows`` through a
    Householder QR, projected twice."""
    if len(rows) == 0:
        return float(np.linalg.norm(r))
    Q, _ = np.linalg.qr(np.asarray(rows).T)
    for _ in range(2):
        r = r - Q @ (Q.T @ r)
    return float(np.linalg.norm(r))


def test_presolve_never_keeps_more_rows_than_the_svec_dimension():
    S, tol = 10, 1e-10
    reference_overflows = 0
    for seed in range(40):
        A, b = _near_dependent_family(seed, S=S)
        prob = _svec_problem(A, b, 4)
        kept = prob.presolved(tol=tol)[1].kept_rows
        assert len(kept) <= min(A.shape[0], S), seed
        scale = max(1.0, float(np.max(np.abs(A))))
        for t, i in enumerate(kept):
            assert _distance_to_span(A[i], A[kept[:t]]) > tol * scale, (seed, i)
        reference_overflows += len(_reference_presolve(prob, tol)[0]) > S
    # the row-by-row loop loses orthogonality on these families and
    # keeps a dependent set (the defect the blocked CGS2 fixes)
    assert reference_overflows > 0
