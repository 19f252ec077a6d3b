"""End-to-end tests for SOS feasibility programs."""

import numpy as np
import pytest
from scipy.linalg import null_space, orth

from repro.poly import Polynomial, lie_derivative
from repro.sos import SOSExpr, SOSProgram, validate_sos_identity
from repro.sos.program import eliminate_free


def x_var(n=1, i=0):
    return Polynomial.variable(n, i)


# ----------------------------------------------------------------------
# plain SOS membership
# ----------------------------------------------------------------------
def test_x2_plus_1_is_sos():
    prog = SOSProgram(1)
    x = x_var()
    expr = SOSExpr.from_polynomial(x * x + 1.0)
    block = prog.require_sos(expr)
    sol = prog.solve()
    assert sol.feasible
    Q = sol.gram(block.block_id)
    assert np.linalg.eigvalsh(Q)[0] >= -1e-7
    realized = sol.slack_polynomial(block)
    assert realized.is_close(x * x + 1.0, tol=1e-5)


def test_sos_decomposition_of_shifted_square():
    # 2x^2 - 2x + 1 = x^2 + (x - 1)^2 is SOS
    prog = SOSProgram(1)
    x = x_var()
    p = 2.0 * x * x - 2.0 * x + 1.0
    prog.require_sos(SOSExpr.from_polynomial(p))
    assert prog.solve().feasible


def test_odd_polynomial_not_sos():
    prog = SOSProgram(1)
    prog.require_sos(SOSExpr.from_polynomial(x_var()), half_degree=1)
    sol = prog.solve()
    assert not sol.feasible


def test_negative_constant_not_sos():
    prog = SOSProgram(1)
    x = x_var()
    prog.require_sos(SOSExpr.from_polynomial(-1.0 * x * x - 1.0))
    assert not prog.solve().feasible


def test_motzkin_not_sos():
    # Motzkin polynomial: nonnegative but NOT a sum of squares.
    x, y = Polynomial.variables(2)
    m = (x ** 4) * (y ** 2) + (x ** 2) * (y ** 4) - 3.0 * (x ** 2) * (y ** 2) + 1.0
    prog = SOSProgram(2)
    prog.require_sos(SOSExpr.from_polynomial(m))
    assert not prog.solve().feasible


def test_bivariate_sos():
    # (x + y)^2 + (x - 2y)^2
    x, y = Polynomial.variables(2)
    p = (x + y) ** 2 + (x - 2.0 * y) ** 2
    prog = SOSProgram(2)
    block = prog.require_sos(SOSExpr.from_polynomial(p))
    sol = prog.solve()
    assert sol.feasible
    assert sol.slack_polynomial(block).is_close(p, tol=1e-5)


# ----------------------------------------------------------------------
# Putinar certificates with SOS multipliers
# ----------------------------------------------------------------------
def test_positivity_on_box_with_multiplier():
    # show 2 - x >= 0.5 on [-1, 1]: (2 - x) - 0.5 - sigma * (1 - x^2) in SOS
    prog = SOSProgram(1)
    x = x_var()
    sigma = prog.sos_poly(0)
    g = 1.0 - x * x
    expr = SOSExpr.from_polynomial(2.0 - x - 0.5) - sigma * g
    prog.require_sos(expr)
    sol = prog.solve()
    assert sol.feasible
    sig_poly = sol.value(sigma)
    assert sig_poly((0.0,)) >= -1e-7


def test_positivity_fails_when_false():
    # x >= 0.5 on [-1, 1] is false
    prog = SOSProgram(1)
    x = x_var()
    sigma = prog.sos_poly(2)
    expr = SOSExpr.from_polynomial(x - 0.5) - sigma * (1.0 - x * x)
    prog.require_sos(expr)
    assert not prog.solve().feasible


def test_free_multiplier_lie_condition():
    # xdot = -x; B = 1 - x^2. Need L_f B - lambda * B - eps in SOS on R
    # with free lambda. L_f B = 2x^2; lambda = -1 gives x^2 + 1 - eps.
    prog = SOSProgram(1)
    x = x_var()
    B = 1.0 - x * x
    lfb = lie_derivative(B, [-1.0 * x])
    lam = prog.free_poly(0)
    expr = SOSExpr.from_polynomial(lfb) - lam * B - 0.5
    prog.require_sos(expr)
    sol = prog.solve()
    assert sol.feasible
    lam_poly = sol.value(lam)
    # realized identity should hold pointwise
    realized = lfb - lam_poly * B - 0.5
    xs = np.linspace(-2, 2, 41)[:, None]
    assert np.all(realized(xs) >= -1e-5)


def test_multiple_constraints_share_variables():
    # find free scalar c with: (x^2 + c) SOS and (x^2 + 2 - c) SOS -> any c in [0, 2]
    prog = SOSProgram(1)
    x = x_var()
    c = prog.free_scalar()
    prog.require_sos(SOSExpr.from_polynomial(x * x) + c)
    prog.require_sos(SOSExpr.from_polynomial(x * x + 2.0) - c)
    sol = prog.solve()
    assert sol.feasible
    c_val = sol.value(c)((0.0,))
    assert -1e-6 <= c_val <= 2.0 + 1e-6


def test_require_zero():
    # free poly f with f - (1 + x) == 0 forces f = 1 + x, then x^2 + f - 1 SOS
    prog = SOSProgram(1)
    x = x_var()
    f = prog.free_poly(1)
    prog.require_zero(f - (1.0 + x))
    prog.require_sos(f * x - x)  # (1 + x) x - x = x^2
    sol = prog.solve()
    assert sol.feasible
    assert sol.value(f).is_close(1.0 + x, tol=1e-5)


# ----------------------------------------------------------------------
# free-variable elimination against the dense null-space oracle
# ----------------------------------------------------------------------
def _elimination_cases():
    rng = np.random.default_rng(7)
    sparse8 = rng.standard_normal((30, 8))
    # zero rows, as most monomials of a Lie SDP have no lambda term
    sparse8[rng.choice(30, 10, replace=False)] = 0.0
    dup = rng.standard_normal((20, 3))
    return {
        "k=1": (rng.standard_normal((12, 1)), 1),
        "k=8": (sparse8, 8),
        "duplicated-column": (np.column_stack([dup, dup[:, 1]]), 3),
        "all-zero": (np.zeros((9, 2)), 0),
        "m==rank": (rng.standard_normal((5, 5)), 5),
    }


def _same_row_space(A, B, tol=1e-9):
    """Equal row spaces: equal ranks and each projects onto the other."""
    for X, Y in ((A, B), (B, A)):
        Q = orth(Y.T)
        assert np.linalg.norm(X - (X @ Q) @ Q.T) <= tol * max(1.0, np.linalg.norm(X))
    assert np.linalg.matrix_rank(A) == np.linalg.matrix_rank(B)


@pytest.mark.parametrize("case", list(_elimination_cases()))
def test_free_elimination_matches_null_space_projection(case):
    Bf, rank = _elimination_cases()[case]
    m = Bf.shape[0]
    rng = np.random.default_rng(11)
    G = rng.standard_normal((m, 40)) * (rng.random((m, 40)) < 0.2)
    r = rng.standard_normal(m)
    elim = eliminate_free(Bf)
    assert elim.C.shape == (m - rank, rank)
    assert np.abs(elim.C).max(initial=0.0) <= 1.0 + 1e-9
    A = elim.apply(G)
    assert A.shape == (m - rank, G.shape[1])
    assert np.abs(elim.apply(Bf)).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(Bf).max())
    # the system with its right-hand side spans the oracle's rows
    Gr = np.column_stack([G, r])
    N = null_space(Bf.T)
    assert N.shape[1] == m - rank
    if m > rank:
        _same_row_space(elim.apply(Gr), N.T @ Gr)
    else:
        assert elim.apply(Gr).shape == (0, Gr.shape[1])
    # a zero row of Bf keeps its G row unchanged
    zero = np.flatnonzero(~np.any(Bf, axis=1))
    kept = np.searchsorted(elim.keep, zero)
    assert np.array_equal(A[kept], G[zero])


def test_free_elimination_of_a_determined_program_solves():
    # lambda has one coefficient per row: the eliminated SDP has no rows
    prog = SOSProgram(1)
    x = x_var()
    lam = prog.free_poly(2)
    block = prog.require_sos(SOSExpr.from_polynomial(x * x + 1.0) - lam)
    sdp, Bf, _r, _G = prog.compile()
    assert Bf.shape == (3, 3) and sdp.n_constraints == 0
    sol = prog.solve()
    assert sol.feasible
    realized = x * x + 1.0 - sol.value(lam)
    assert realized.is_close(sol.slack_polynomial(block), tol=1e-6)


# ----------------------------------------------------------------------
# validation layer
# ----------------------------------------------------------------------
def test_validation_accepts_good_certificate():
    prog = SOSProgram(1)
    x = x_var()
    p = x * x + 1.0
    expr = SOSExpr.from_polynomial(p)
    block = prog.require_sos(expr)
    sol = prog.solve()
    report = validate_sos_identity(
        p, block, sol.gram(block.block_id), [-2.0], [2.0], margin=0.5
    )
    assert report.ok
    assert report.residual_bound < 0.5


def test_validation_rejects_corrupted_gram():
    prog = SOSProgram(1)
    x = x_var()
    p = x * x + 1.0
    block = prog.require_sos(SOSExpr.from_polynomial(p))
    sol = prog.solve()
    bad = sol.gram(block.block_id).copy()
    bad[0, 0] -= 1.0  # corrupt: identity now off by 1 > margin
    report = validate_sos_identity(p, block, bad, [-2.0], [2.0], margin=0.5)
    assert not report.ok


def test_validation_rejects_nonpsd_gram():
    prog = SOSProgram(1)
    x = x_var()
    p = x * x + 1.0
    block = prog.require_sos(SOSExpr.from_polynomial(p))
    sol = prog.solve()
    bad = sol.gram(block.block_id) - 2.0 * np.eye(block.size)
    report = validate_sos_identity(p, block, bad, [-2.0], [2.0], margin=100.0)
    assert not report.ok
    assert report.min_eigenvalue < 0


# ----------------------------------------------------------------------
# misc API
# ----------------------------------------------------------------------
def test_program_errors():
    prog = SOSProgram(1)
    with pytest.raises(ValueError):
        prog.compile()  # no constraints
    with pytest.raises(ValueError):
        prog.sos_poly(-1)
    with pytest.raises(ValueError):
        prog.free_poly(-1)
    with pytest.raises(ValueError):
        SOSProgram(0)
    with pytest.raises(ValueError):
        prog.require_sos(SOSExpr.zero(2))
    with pytest.raises(ValueError):
        prog.require_zero(SOSExpr.zero(2))


def test_value_requires_feasible():
    prog = SOSProgram(1)
    s = prog.sos_poly(2)
    prog.require_sos(SOSExpr.from_polynomial(-1.0 * x_var() * x_var() - 1.0) + s * 0.0)
    sol = prog.solve()
    if not sol.feasible:
        with pytest.raises(RuntimeError):
            sol.value(s)
