"""Tests for NN controllers, LQR cloning and the polynomial inclusion."""

import numpy as np
import pytest
from scipy.optimize import linprog

from repro.controllers import (
    NNController,
    behavior_clone,
    linear_feedback_fn,
    linearize,
    lqr_gain,
    polynomial_inclusion,
)
from repro.controllers import inclusion as inclusion_mod
from repro.dynamics import ControlAffineSystem
from repro.poly import Polynomial
from repro.resilience.errors import InclusionError
from repro.resilience.faults import FaultSpec, inject
from repro.sets import Box


def double_integrator():
    x, v = Polynomial.variables(2)
    return ControlAffineSystem.single_input([v, Polynomial.zero(2)], [0.0, 1.0])


# ----------------------------------------------------------------------
# controller wrapper
# ----------------------------------------------------------------------
def test_controller_shapes():
    k = NNController(3, 1, hidden=(8,), rng=np.random.default_rng(0))
    single = k(np.zeros(3))
    assert single.shape == (1,)
    batch = k(np.zeros((5, 3)))
    assert batch.shape == (5, 1)
    assert k.lipschitz_bound() > 0
    assert "NNController" in repr(k)


def test_controller_validation():
    with pytest.raises(ValueError):
        NNController(0, 1)
    with pytest.raises(ValueError):
        NNController(2, 0)


# ----------------------------------------------------------------------
# LQR
# ----------------------------------------------------------------------
def test_linearize_double_integrator():
    A, B = linearize(double_integrator())
    np.testing.assert_allclose(A, [[0, 1], [0, 0]])
    np.testing.assert_allclose(B, [[0], [1]])


def test_linearize_nonlinear_terms_vanish():
    x, y = Polynomial.variables(2)
    sys2 = ControlAffineSystem.single_input([y + x * x, -1.0 * x + y ** 3], [0.0, 1.0])
    A, _ = linearize(sys2)
    np.testing.assert_allclose(A, [[0, 1], [-1, 0]])


def test_lqr_stabilizes_linearization():
    sys2 = double_integrator()
    K = lqr_gain(sys2)
    A, B = linearize(sys2)
    eigs = np.linalg.eigvals(A - B @ K)
    assert np.all(eigs.real < 0)


def test_lqr_requires_input():
    x = Polynomial.variable(1, 0)
    with pytest.raises(ValueError):
        lqr_gain(ControlAffineSystem.autonomous([-1.0 * x]))


def test_linear_feedback_fn():
    K = np.array([[1.0, 2.0]])
    f = linear_feedback_fn(K)
    np.testing.assert_allclose(f(np.array([1.0, 1.0])), [[-3.0]])


# ----------------------------------------------------------------------
# behaviour cloning
# ----------------------------------------------------------------------
def test_behavior_clone_imitates_lqr():
    rng = np.random.default_rng(1)
    sys2 = double_integrator()
    K = lqr_gain(sys2)
    k = NNController(2, 1, hidden=(16,), rng=rng)
    box = Box.cube(2, -1.0, 1.0)
    mse = behavior_clone(
        k, linear_feedback_fn(K), box, n_samples=1024, epochs=120, rng=rng
    )
    assert mse < 0.01


def test_behavior_clone_shape_mismatch():
    k = NNController(2, 1, rng=np.random.default_rng(2))
    box = Box.cube(2, -1, 1)
    with pytest.raises(ValueError):
        behavior_clone(k, lambda x: np.zeros((len(x), 3)), box, n_samples=64, epochs=1)


# ----------------------------------------------------------------------
# polynomial inclusion (§3)
# ----------------------------------------------------------------------
def test_inclusion_exact_for_polynomial_controller():
    # a controller that IS a polynomial: sigma~ must be ~0
    p = Polynomial(2, {(1, 0): -2.0, (0, 1): -1.0, (2, 0): 0.5})

    def ctrl(pts):
        return p(pts)[:, None]

    box = Box.cube(2, -1.0, 1.0)
    inc = polynomial_inclusion(ctrl, box, degree=2, spacing=0.2, lipschitz=5.0)
    assert inc.sigma_tilde[0] == pytest.approx(0.0, abs=1e-8)
    assert inc.polynomials[0].is_close(p, tol=1e-6)
    assert inc.sigma_star[0] == pytest.approx(0.5 * inc.spacing * 5.0, abs=1e-8)


def test_inclusion_theorem2_bound_sound():
    rng = np.random.default_rng(3)
    k = NNController(2, 1, hidden=(8,), rng=rng)
    box = Box.cube(2, -1.0, 1.0)
    inc = polynomial_inclusion(k, box, degree=3, spacing=0.1)
    pts = box.sample(3000, rng=rng)
    err = np.abs(k(pts)[:, 0] - inc.polynomials[0](pts))
    assert float(np.max(err)) <= inc.sigma_star[0] + 1e-9
    assert inc.sigma_tilde[0] <= inc.sigma_star[0]


def test_inclusion_tightens_with_mesh():
    """Remark 1: smaller spacing -> smaller (or equal) sigma~ and sigma*."""
    rng = np.random.default_rng(4)
    k = NNController(1, 1, hidden=(6,), rng=rng)
    box = Box([-1.0], [1.0])
    coarse = polynomial_inclusion(k, box, degree=3, spacing=0.5)
    fine = polynomial_inclusion(k, box, degree=3, spacing=0.05)
    # sigma~ underestimates on coarse meshes (few points are easy to
    # interpolate); the verified bound sigma* must tighten as s shrinks.
    assert fine.sigma_star[0] <= coarse.sigma_star[0] + 1e-9
    # and sigma~ <= sigma* always (Theorem 2 sandwich)
    assert fine.sigma_tilde[0] <= fine.sigma_star[0]


def test_inclusion_multi_output():
    rng = np.random.default_rng(5)
    k = NNController(2, 2, hidden=(6,), rng=rng)
    box = Box.cube(2, -1.0, 1.0)
    inc = polynomial_inclusion(k, box, degree=2, spacing=0.25)
    assert len(inc.polynomials) == 2
    assert len(inc.sigma_star) == 2
    assert inc.worst_sigma_star == max(inc.sigma_star)
    lo, hi = inc.error_intervals()[0]
    assert lo == -hi


def test_inclusion_validation():
    box = Box.cube(2, -1, 1)
    with pytest.raises(ValueError):
        polynomial_inclusion(lambda pts: pts[:, :1], box, degree=1)  # no lipschitz
    with pytest.raises(ValueError):
        polynomial_inclusion(
            lambda pts: pts[:, :1], box, degree=-1, lipschitz=1.0
        )


def test_inclusion_mesh_cap_widens_spacing():
    rng = np.random.default_rng(6)
    k = NNController(3, 1, hidden=(4,), rng=rng)
    box = Box.cube(3, -1.0, 1.0)
    inc = polynomial_inclusion(k, box, degree=2, spacing=0.01, max_mesh_points=500)
    assert inc.n_mesh_points <= 500
    assert inc.spacing > 0.01  # got widened and honestly reported


# ----------------------------------------------------------------------
# the Chebyshev LP (5): constraint exchange against the full-mesh oracle
# ----------------------------------------------------------------------
def full_mesh_lp(phi, targets):
    """LP (5) on every mesh row at once: the oracle for the exchange."""
    m, v = phi.shape
    c = np.zeros(v + 1)
    c[-1] = 1.0
    ones = np.ones((m, 1))
    A_ub = np.vstack([np.hstack([phi, -ones]), np.hstack([-phi, -ones])])
    b_ub = np.concatenate([targets, -targets])
    res = linprog(
        c, A_ub=A_ub, b_ub=b_ub,
        bounds=[(None, None)] * v + [(0, None)], method="highs",
    )
    assert res.success, res.message
    return res.x[:v], float(res.x[v])


def mesh_error(poly, mesh, targets, degree):
    """``max_i |phi_i . h - k_i|``: the mesh error as LP (5) measures it."""
    phi = inclusion_mod._design_matrix(mesh, degree)
    return float(np.max(np.abs(phi @ poly.coeff_vector(degree) - targets)))


def assert_matches_oracle(phi, targets):
    h, sigma, rounds, active = inclusion_mod._chebyshev_lp(phi, targets)
    _, t_full = full_mesh_lp(phi, targets)
    assert sigma == pytest.approx(t_full, rel=1e-9, abs=1e-12)
    assert sigma >= float(np.max(np.abs(phi @ h - targets)))
    assert 1 <= rounds and active <= phi.shape[0]
    # deterministic: a second call is bitwise-equal
    h2, sigma2, rounds2, active2 = inclusion_mod._chebyshev_lp(phi, targets)
    assert np.array_equal(h, h2) and sigma == sigma2
    assert (rounds, active) == (rounds2, active2)
    return rounds, active


@pytest.mark.parametrize(
    "n_vars, degree, spacing, seed",
    [(1, 3, 0.005, 11), (2, 2, 0.05, 12), (3, 2, 0.1, 13), (4, 2, 0.2, 14)],
)
def test_exchange_matches_full_mesh_lp(n_vars, degree, spacing, seed):
    k = NNController(n_vars, 1, hidden=(8,), rng=np.random.default_rng(seed))
    box = Box.cube(n_vars, -1.0, 1.0)
    mesh = box.mesh(spacing, max_points=50_000)
    phi = inclusion_mod._design_matrix(mesh, degree)
    targets = k(mesh)[:, 0]
    rounds, active = assert_matches_oracle(phi, targets)
    assert mesh.shape[0] > 202
    assert rounds >= 2 and active < mesh.shape[0]
    inc = polynomial_inclusion(k, box, degree=degree, spacing=spacing)
    h, sigma, _, _ = inclusion_mod._chebyshev_lp(phi, targets)
    assert inc.sigma_tilde[0] == sigma
    assert np.array_equal(
        inc.polynomials[0].coeff_vector(degree), h
    )


def test_exchange_matches_full_mesh_lp_empirical_mode():
    k = NNController(5, 1, hidden=(8,), rng=np.random.default_rng(15))
    box = Box.cube(5, -1.0, 1.0)
    sample = box.sample(3000, rng=np.random.default_rng(16))
    phi = inclusion_mod._design_matrix(sample, 2)
    assert_matches_oracle(phi, k(sample)[:, 0])


def test_exchange_grows_to_the_whole_mesh():
    """Every row left out of the first active set violates the first
    sub-LP's optimum, so the second round solves LP (5) on all rows."""
    m = 250
    targets = np.zeros(m)
    x = np.empty(m)
    first = inclusion_mod._initial_rows(targets, 2)
    rest = np.setdiff1d(np.arange(m), first)
    # the first active set sees a line through (-1, -1) and (1, 1) over
    # zeros, whose Chebyshev fit is x / 2 with t = 1/2; every left-out row
    # sits at x in [2, 3] with target 0, so its residual x / 2 exceeds t
    x[first] = np.linspace(-1.0, 1.0, first.size)
    targets[first[0]], targets[first[-1]] = -1.0, 1.0
    x[rest] = np.linspace(2.0, 3.0, rest.size)
    np.testing.assert_array_equal(inclusion_mod._initial_rows(targets, 2), first)
    phi = inclusion_mod._design_matrix(x[:, None], 1)
    rounds, active = assert_matches_oracle(phi, targets)
    assert (rounds, active) == (2, m)


def test_sigma_tilde_bounds_mesh_error_random_controller():
    k = NNController(2, 2, hidden=(8,), rng=np.random.default_rng(17))
    box = Box.cube(2, -1.0, 1.0)
    inc = polynomial_inclusion(k, box, degree=3, spacing=0.04)
    mesh = box.mesh(0.04, max_points=50_000)
    vals = k(mesh)
    for j, poly in enumerate(inc.polynomials):
        assert inc.sigma_tilde[j] >= mesh_error(poly, mesh, vals[:, j], 3)


def _paper_inclusion_inputs(name):
    from repro.benchmarks import get_benchmark

    spec = get_benchmark(name)
    psi = spec.make_problem().psi
    controller = spec.make_controller()
    cfg = spec.snbc_config("paper")
    mesh = psi.mesh(cfg.inclusion_spacing, max_points=cfg.inclusion_max_mesh)
    return spec, psi, controller, cfg, mesh


@pytest.mark.parametrize("name", ["C6", "C7"])
def test_sigma_tilde_bounds_mesh_error_paper_mesh(name):
    # on C7 the LP optimum t sat 3e-12 below the returned h's mesh error
    _, psi, controller, cfg, mesh = _paper_inclusion_inputs(name)
    inc = polynomial_inclusion(
        controller, psi, degree=cfg.inclusion_degree,
        spacing=cfg.inclusion_spacing,
        max_mesh_points=cfg.inclusion_max_mesh,
    )
    assert inc.n_mesh_points == mesh.shape[0]
    vals = controller(mesh)
    for j, poly in enumerate(inc.polynomials):
        assert inc.sigma_tilde[j] >= mesh_error(
            poly, mesh, vals[:, j], cfg.inclusion_degree
        )


@pytest.mark.slow
@pytest.mark.parametrize("name", ["C6", "C9"])
def test_exchange_matches_full_mesh_lp_paper_mesh(name):
    _, _, controller, cfg, mesh = _paper_inclusion_inputs(name)
    phi = inclusion_mod._design_matrix(mesh, cfg.inclusion_degree)
    vals = controller(mesh)
    for j in range(vals.shape[1]):
        rounds, active = assert_matches_oracle(phi, vals[:, j])
        assert rounds >= 2 and active < mesh.shape[0] // 10


def test_inclusion_fault_point_fires_once_per_output_before_any_lp(
    monkeypatch,
):
    k = NNController(2, 2, hidden=(6,), rng=np.random.default_rng(18))
    box = Box.cube(2, -1.0, 1.0)
    sub_lps = []
    real = inclusion_mod._lp_on_rows
    monkeypatch.setattr(
        inclusion_mod, "_lp_on_rows",
        lambda *a: sub_lps.append(1) or real(*a),
    )
    with inject(FaultSpec("inclusion.lp", at_call=10**9)) as plan:
        inc = polynomial_inclusion(k, box, degree=2, spacing=0.04)
    assert plan.calls == {"inclusion.lp": 2} and not plan.log
    assert len(inc.polynomials) == 2 and len(sub_lps) >= 4
    sub_lps.clear()
    with inject(FaultSpec("inclusion.lp")) as plan:
        with pytest.raises(InclusionError):
            polynomial_inclusion(k, box, degree=2, spacing=0.04)
    assert plan.fired_sites() == ["inclusion.lp"] and not sub_lps


def test_sub_lp_failure_after_first_round_is_inclusion_error(monkeypatch):
    k = NNController(2, 1, hidden=(8,), rng=np.random.default_rng(12))
    box = Box.cube(2, -1.0, 1.0)
    real = inclusion_mod._lp_on_rows
    calls = []

    def failing_second_round(phi, targets):
        calls.append(phi.shape[0])
        if len(calls) == 2:
            raise RuntimeError("Chebyshev LP failed: injected")
        return real(phi, targets)

    monkeypatch.setattr(inclusion_mod, "_lp_on_rows", failing_second_round)
    with pytest.raises(InclusionError) as info:
        polynomial_inclusion(k, box, degree=2, spacing=0.05)
    assert len(calls) == 2 and calls[1] > calls[0]
    details = info.value.details
    assert details["output"] == 0
    assert details["degree"] == 2
    assert details["n_mesh_points"] == 41 * 41
