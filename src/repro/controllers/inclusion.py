"""Polynomial inclusion of NN controllers (paper §3).

Computes the Chebyshev (minimax) polynomial approximation of the controller
on a rectangular mesh over the domain by linear programming (problem (5),
solved by constraint exchange on a few hundred active mesh rows), then
converts the mesh optimum ``sigma~`` into a domain-wide error bound

    sigma* = sigma~ + s L / 2        (Theorem 2)

where ``s`` is the (effective) mesh spacing and ``L`` a Lipschitz constant
of the controller.  The result is the inclusion
``k(x) in h(x) + [-sigma*, sigma*]`` consumed by the Learner/Verifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.optimize import linprog

from repro.controllers.controller import NNController
from repro.poly import Polynomial
from repro.poly.monomials import monomials_upto
from repro.resilience.errors import InclusionError
from repro.resilience.faults import fault_point
from repro.sets import Box
from repro.telemetry import get_telemetry


@dataclass
class PolynomialInclusion:
    """Result of :func:`polynomial_inclusion`.

    Attributes
    ----------
    polynomials:
        One approximating polynomial ``h_j`` per controller output.
    sigma_tilde:
        Mesh minimax errors per output: the LP (5) optimum, or the
        evaluated mesh maximum ``max_i |h(x_i) - k(x_i)|`` of the returned
        ``h`` where that is larger.
    sigma_star:
        Verified domain-wide error bounds per output (Theorem 2).
    spacing:
        Effective mesh spacing actually used.
    lipschitz:
        Lipschitz constant used in the Theorem 2 gap.
    n_mesh_points:
        Number of mesh samples in the LP.
    """

    polynomials: List[Polynomial]
    sigma_tilde: List[float]
    sigma_star: List[float]
    spacing: float
    lipschitz: float
    n_mesh_points: int

    @property
    def worst_sigma_star(self) -> float:
        return max(self.sigma_star)

    def error_intervals(self) -> List[Tuple[float, float]]:
        """Per-output inclusion intervals ``[-sigma*, +sigma*]``."""
        return [(-s, s) for s in self.sigma_star]


def _design_matrix(points: np.ndarray, degree: int) -> np.ndarray:
    """Vandermonde-style matrix of ``[x]_degree`` monomials at mesh points.

    One gather + product over the precomputed power tensor instead of a
    per-monomial python loop; bitwise-identical to the loop since the
    product runs over variables in the same order and ``x**0 == 1.0``
    exactly.
    """
    m, n = points.shape
    basis = monomials_upto(n, degree)
    pows = np.ones((degree + 1, m, n))
    for k in range(1, degree + 1):
        pows[k] = pows[k - 1] * points
    A = np.asarray(basis, dtype=np.int64)  # (t, n) exponent rows
    # gathered[i, t, :] = points[:, i] ** A[t, i]
    gathered = pows[A.T, :, np.arange(n)[:, None]]  # (n, t, m)
    return gathered.prod(axis=0).T  # (m, t)


def _initial_rows(targets: np.ndarray, v: int) -> np.ndarray:
    """First active set of the exchange for ``v`` coefficients: evenly
    spaced mesh rows plus the rows of the largest and smallest target,
    sorted; every row when the mesh is no larger than the spaced set."""
    m = targets.shape[0]
    n0 = max(4 * (v + 1), 200)
    if m <= n0:
        return np.arange(m)
    spaced = np.linspace(0, m - 1, n0, dtype=np.int64)
    extremes = [int(np.argmax(targets)), int(np.argmin(targets))]
    return np.union1d(spaced, extremes)


def _lp_on_rows(phi: np.ndarray, targets: np.ndarray) -> Tuple[np.ndarray, float]:
    """Solve LP (5), ``min t`` s.t. ``|phi_i . h - k_i| <= t``, by HiGHS."""
    m, v = phi.shape
    # variables: [h (v), t]; minimize t
    c = np.zeros(v + 1)
    c[-1] = 1.0
    ones = np.ones((m, 1))
    A_ub = np.vstack(
        [np.hstack([phi, -ones]), np.hstack([-phi, -ones])]
    )
    b_ub = np.concatenate([targets, -targets])
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        bounds=[(None, None)] * v + [(0, None)],
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"Chebyshev LP failed: {res.message}")
    return res.x[:v], float(res.x[v])


def _chebyshev_lp(
    phi: np.ndarray, targets: np.ndarray
) -> Tuple[np.ndarray, float, int, int]:
    """Solve ``min_h max_i |phi_i . h - k_i|`` (LP (5)) by constraint exchange.

    The Stiefel/Remez exchange for discrete Chebyshev approximation: LP (5)
    is solved on a small active set of mesh rows, the residual
    ``|phi h - k|`` is evaluated on the whole mesh, and the worst violators
    join the active set until none is left.  The sub-LP optimum ``t`` is a
    lower bound on the full-mesh optimum, so the loop stops at the full
    optimum; each round adds at least one row, so in the worst case the
    last round solves LP (5) on the whole mesh.

    Returns ``(h, sigma_tilde, rounds, active_rows)``.  ``sigma_tilde`` is
    ``max(t, max_i |phi_i . h - k_i|)``: the mesh error of the returned
    ``h`` itself, which the LP optimum ``t`` can undercut by the solver's
    feasibility tolerance, and which is what Theorem 2 needs.
    """
    v = phi.shape[1]
    batch = max(2 * (v + 1), 50)
    active = _initial_rows(targets, v)
    fault_point("inclusion.lp")
    rounds = 0
    while True:
        rounds += 1
        h, t = _lp_on_rows(phi[active], targets[active])
        resid = np.abs(phi @ h - targets)
        worst = float(resid.max())
        # active rows can exceed t by the solver's feasibility tolerance;
        # only inactive violators are exchanged, so every round grows
        # the active set and the loop ends by the whole mesh at the latest
        resid[active] = -np.inf
        violators = np.flatnonzero(resid > t * (1.0 + 1e-9) + 1e-12)
        if violators.size == 0:
            break
        if violators.size > batch:
            worst_first = np.argsort(-resid[violators], kind="stable")
            violators = violators[worst_first[:batch]]
        active = np.union1d(active, violators)
    return h, max(t, worst), rounds, int(active.size)


def polynomial_inclusion(
    controller: Union[NNController, Callable[[np.ndarray], np.ndarray]],
    domain: Box,
    degree: int = 2,
    spacing: float = 0.05,
    max_mesh_points: int = 50_000,
    lipschitz: Optional[float] = None,
    error_mode: str = "lipschitz",
    empirical_samples: int = 20_000,
    empirical_safety: float = 1.5,
    rng: Optional[np.random.Generator] = None,
) -> PolynomialInclusion:
    """Compute the polynomial inclusion of a controller on a box domain.

    Parameters
    ----------
    controller:
        An :class:`NNController` (its spectral Lipschitz bound is used
        automatically) or any batched callable; plain callables must supply
        ``lipschitz`` explicitly for the Theorem 2 bound to be sound.
    domain:
        The system domain ``Psi`` (rectangular, per the paper's mesh).
    degree:
        Preassigned degree ``d`` of the approximating polynomial.
    spacing:
        Requested mesh spacing ``s``; widened automatically (and reported)
        if the full grid would exceed ``max_mesh_points``.
    error_mode:
        ``"lipschitz"`` applies the sound Theorem 2 gap ``sigma~ + s L / 2``
        (meaningful only when the mesh actually covers the domain —
        feasible up to roughly 4 dimensions).  ``"empirical"`` fits the LP on
        a uniform random sample and bounds the error by the maximum observed
        on a fresh sample times ``empirical_safety`` — a documented heuristic
        for high-dimensional benchmarks where covering meshes are
        exponentially large (see DESIGN.md).
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if error_mode not in ("lipschitz", "empirical"):
        raise ValueError("error_mode must be 'lipschitz' or 'empirical'")
    if lipschitz is None:
        if isinstance(controller, NNController):
            lipschitz = controller.lipschitz_bound()
        elif error_mode == "lipschitz":
            raise ValueError(
                "a plain callable controller requires an explicit Lipschitz bound"
            )
        else:
            lipschitz = float("nan")
    rng = rng or np.random.default_rng(0)
    tel = get_telemetry()
    if error_mode == "lipschitz":
        mesh = domain.mesh(spacing, max_points=max_mesh_points)
        eff_spacing = domain.effective_spacing(spacing, max_points=max_mesh_points)
    else:
        mesh = domain.sample(min(max_mesh_points, empirical_samples), rng=rng)
        eff_spacing = float("nan")
    values = np.atleast_2d(np.asarray(controller(mesh), dtype=float))
    if values.shape[0] != mesh.shape[0]:
        values = values.T
    if not np.all(np.isfinite(values)):
        raise InclusionError(
            "controller produced non-finite outputs on the inclusion mesh",
            n_mesh_points=int(mesh.shape[0]),
            n_bad=int(np.sum(~np.isfinite(values))),
        )
    n_outputs = values.shape[1]
    phi = _design_matrix(mesh, degree)

    tel.metrics.gauge("inclusion.mesh_points", mesh.shape[0])
    polys: List[Polynomial] = []
    sigma_tilde: List[float] = []
    sigma_star: List[float] = []
    for j in range(n_outputs):
        with tel.span(
            "inclusion.lp", output=j, n_mesh_points=int(mesh.shape[0]),
            degree=degree, error_mode=error_mode,
        ) as span:
            try:
                h_coeffs, s_tilde, rounds, active_rows = _chebyshev_lp(
                    phi, values[:, j]
                )
            except (RuntimeError, ValueError, np.linalg.LinAlgError) as exc:
                tel.metrics.inc("inclusion.lp_failures")
                raise InclusionError(
                    f"Chebyshev LP for output {j} failed: {exc}",
                    cause=exc,
                    output=j,
                    degree=degree,
                    n_mesh_points=int(mesh.shape[0]),
                ) from exc
            h_poly = Polynomial.from_coeff_vector(domain.n_vars, degree, h_coeffs)
            polys.append(h_poly)
            sigma_tilde.append(s_tilde)
            if error_mode == "lipschitz":
                sigma_star.append(s_tilde + 0.5 * eff_spacing * float(lipschitz))
            else:
                fresh = domain.sample(empirical_samples, rng=rng)
                fresh_vals = np.atleast_2d(np.asarray(controller(fresh), dtype=float))
                if fresh_vals.shape[0] != fresh.shape[0]:
                    fresh_vals = fresh_vals.T
                err = float(np.max(np.abs(fresh_vals[:, j] - h_poly(fresh))))
                sigma_star.append(max(s_tilde, err) * empirical_safety)
            span.set_attrs(
                rounds=rounds,
                active_rows=active_rows,
                sigma_tilde=s_tilde,
                sigma_star=sigma_star[-1],
                lipschitz_slack=sigma_star[-1] - s_tilde,
            )
        if tel.enabled:
            tel.metrics.observe("inclusion.lp_seconds", span.duration)
            tel.metrics.observe("inclusion.sigma_tilde", s_tilde)
            tel.metrics.observe("inclusion.sigma_star", sigma_star[-1])
            tel.metrics.observe(
                "inclusion.lipschitz_slack", sigma_star[-1] - s_tilde
            )
    tel.metrics.gauge("inclusion.lipschitz", float(lipschitz))
    return PolynomialInclusion(
        polynomials=polys,
        sigma_tilde=sigma_tilde,
        sigma_star=sigma_star,
        spacing=eff_spacing,
        lipschitz=float(lipschitz),
        n_mesh_points=mesh.shape[0],
    )
