"""A-posteriori numerical validation of SOS certificates.

The interior-point solver returns floating-point Gram matrices, so the
polynomial identity

    expr(x) = m(x)^T Q m(x)

only holds up to a coefficient residual.  Following standard practice for
numerical SOS tools (and matching the paper's use of strictness margins
``epsilon_1``, ``epsilon_2``), a certificate is accepted when

1. every Gram matrix is PSD up to a small eigenvalue tolerance, and
2. the residual polynomial's magnitude over the compact domain, bounded by
   the triangle inequality, is below the available strictness margin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.poly import Polynomial, abs_bound_on_box
from repro.poly.monomials import add_exponents
from repro.sos.program import GramBlock

#: eigenvalue slack below zero tolerated for every Gram matrix
PSD_TOLERANCE = 1e-6


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_sos_identity`."""

    ok: bool
    min_eigenvalue: float
    residual_bound: float
    margin: float
    notes: str = ""

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


def gram_polynomial(block: GramBlock, Q: np.ndarray, n_vars: int) -> Polynomial:
    """Expand ``m^T Q m`` for a Gram block into a concrete polynomial."""
    coeffs = {}
    for i, bi in enumerate(block.basis):
        for j, bj in enumerate(block.basis):
            alpha = add_exponents(bi, bj)
            coeffs[alpha] = coeffs.get(alpha, 0.0) + float(Q[i, j])
    return Polynomial(n_vars, coeffs)


def validate_sos_identity(
    expr_poly: Polynomial,
    slack_block: GramBlock,
    slack_gram: np.ndarray,
    domain_lo: Sequence[float],
    domain_hi: Sequence[float],
    margin: float,
    extra_grams: Optional[List[np.ndarray]] = None,
) -> ValidationReport:
    """Validate that ``expr_poly`` is (numerically) SOS on the given box.

    Parameters
    ----------
    expr_poly:
        The fully-substituted left-hand side (all decision variables solved).
    slack_block, slack_gram:
        The slack Gram block certifying ``expr_poly in Sigma[x]``.
    domain_lo, domain_hi:
        A box containing the relevant semialgebraic set; the residual is
        bounded there.
    margin:
        Strictness margin available to absorb the residual (e.g. the
        ``epsilon`` subtracted in the constraint).  Must be positive for a
        strict condition; 0 accepts only near-exact identities.
    extra_grams:
        Gram matrices of SOS multiplier variables, also checked for PSD-ness.
    """
    eigs = [float(np.linalg.eigvalsh(slack_gram)[0])]
    for Q in extra_grams or []:
        eigs.append(float(np.linalg.eigvalsh(Q)[0]))
    min_eig = min(eigs)

    realized = gram_polynomial(slack_block, slack_gram, expr_poly.n_vars)
    residual = expr_poly - realized
    res_bound = abs_bound_on_box(residual, domain_lo, domain_hi)

    # A slightly negative Gram eigenvalue perturbs m^T Q m by at most
    # |lam_min| * ||m(x)||^2; fold that into the residual bound.
    if min_eig < 0:
        basis_sq = Polynomial.zero(expr_poly.n_vars)
        for beta in slack_block.basis:
            basis_sq = basis_sq + Polynomial.monomial(
                expr_poly.n_vars, add_exponents(beta, beta)
            )
        res_bound += abs(min_eig) * abs_bound_on_box(basis_sq, domain_lo, domain_hi)

    ok = min_eig >= -PSD_TOLERANCE and res_bound <= max(margin, 0.0) + 1e-12
    notes = ""
    if min_eig < -PSD_TOLERANCE:
        notes = f"Gram matrix not PSD (min eig {min_eig:.3e})"
    elif res_bound > margin:
        notes = f"residual bound {res_bound:.3e} exceeds margin {margin:.3e}"
    return ValidationReport(
        ok=ok,
        min_eigenvalue=min_eig,
        residual_bound=res_bound,
        margin=margin,
        notes=notes,
    )
