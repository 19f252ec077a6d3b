"""Exact rational polynomial arithmetic and PSD certification over ℚ.

Every value this module accepts or returns is exact: polynomial
coefficients and Gram entries are :class:`fractions.Fraction`.  The two
facts that make an exact a-posteriori certificate check possible:

* every IEEE-754 double is a dyadic rational, so ``Fraction(float)`` is
  a *lossless* embedding of the solver's output into ℚ;
* positive semidefiniteness of a rational symmetric matrix is decidable
  by a pivoted LDLᵀ elimination whose pivots are exact rationals
  (:func:`ldlt_psd`): the matrix is PSD iff the elimination never meets
  a negative pivot and every zero pivot heads an all-zero trailing
  block.

:func:`find_psd_shift` uses floats only to *propose*: a float eigenpair
skips hopeless shift rungs and, for a Gram with denominators wider than
a 62-bit integer grid, suggests an exact witness per rung — an LDLᵀ of
the Gram rounded onto that grid that proves PSD-ness, or a rounded
eigenvector whose exact Rayleigh quotient disproves it.  Acceptance
stays exact, and every rung's verdict equals :func:`ldlt_psd`'s.

On top of those, :class:`RationalPolynomial` mirrors the float
:class:`repro.poly.Polynomial` API closely enough to recompute the
Putinar identities (13)-(15) symbolically (see
:mod:`repro.soundness.checker`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import (
    Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.poly.monomials import Exponent, add_exponents, grlex_key
from repro.poly.polynomial import Polynomial

RationalLike = Union[int, Fraction]

#: dyadic diagonal shifts tried (smallest first) to restore PSD-ness of a
#: near-singular Gram matrix; each is charged against the strictness
#: margin through the basis bound (see ``checker``)
DEFAULT_DELTA_LADDER: Tuple[Fraction, ...] = tuple(
    Fraction(1, 2 ** k) for k in (60, 52, 44, 36, 30, 24, 18, 12)
)


def _as_fraction(value) -> Fraction:
    """Exact embedding of ints/floats/Fractions into ℚ."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    return Fraction(float(value))


class RationalPolynomial:
    """A sparse multivariate polynomial over ℚ (immutable by convention)."""

    __slots__ = ("n_vars", "coeffs")

    def __init__(
        self,
        n_vars: int,
        coeffs: Optional[Mapping[Exponent, RationalLike]] = None,
    ):
        if n_vars < 1:
            raise ValueError("a polynomial needs at least one variable")
        self.n_vars = int(n_vars)
        cleaned: Dict[Exponent, Fraction] = {}
        if coeffs:
            for alpha, c in coeffs.items():
                alpha = tuple(int(a) for a in alpha)
                if len(alpha) != n_vars:
                    raise ValueError(
                        f"exponent {alpha} has {len(alpha)} entries, "
                        f"expected {n_vars}"
                    )
                c = _as_fraction(c)
                if c != 0:
                    cleaned[alpha] = cleaned.get(alpha, Fraction(0)) + c
        self.coeffs = {a: c for a, c in cleaned.items() if c != 0}

    # ------------------------------------------------------------------
    @classmethod
    def from_polynomial(
        cls, p: Polynomial, max_denominator: Optional[int] = None
    ) -> "RationalPolynomial":
        """Embed a float polynomial into ℚ.

        Without ``max_denominator`` the embedding is exact (doubles are
        dyadic rationals); with it, every coefficient is quantized via
        ``Fraction.limit_denominator`` — the quantization error then
        lands in the residual the checker absorbs, so exactness of the
        final identity is unaffected.
        """
        coeffs: Dict[Exponent, Fraction] = {}
        for alpha, c in p.coeffs.items():
            f = Fraction(c)
            if max_denominator is not None:
                f = f.limit_denominator(max_denominator)
            coeffs[alpha] = f
        return cls(p.n_vars, coeffs)

    @classmethod
    def zero(cls, n_vars: int) -> "RationalPolynomial":
        return cls(n_vars, {})

    @classmethod
    def constant(cls, n_vars: int, value: RationalLike) -> "RationalPolynomial":
        return cls(n_vars, {(0,) * n_vars: _as_fraction(value)})

    # ------------------------------------------------------------------
    @property
    def degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(sum(alpha) for alpha in self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, alpha: Exponent) -> Fraction:
        return self.coeffs.get(tuple(alpha), Fraction(0))

    def support(self) -> Tuple[Exponent, ...]:
        return tuple(sorted(self.coeffs, key=grlex_key))

    # ------------------------------------------------------------------
    def __add__(self, other) -> "RationalPolynomial":
        if isinstance(other, (int, Fraction)):
            other = RationalPolynomial.constant(self.n_vars, other)
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        if self.n_vars != other.n_vars:
            raise ValueError("variable count mismatch")
        coeffs = dict(self.coeffs)
        for alpha, c in other.coeffs.items():
            coeffs[alpha] = coeffs.get(alpha, Fraction(0)) + c
        return RationalPolynomial(self.n_vars, coeffs)

    __radd__ = __add__

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial(
            self.n_vars, {a: -c for a, c in self.coeffs.items()}
        )

    def __sub__(self, other) -> "RationalPolynomial":
        if isinstance(other, (int, Fraction)):
            other = RationalPolynomial.constant(self.n_vars, other)
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other) -> "RationalPolynomial":
        return (-self).__add__(other)

    def __mul__(self, other) -> "RationalPolynomial":
        if isinstance(other, (int, Fraction)):
            f = _as_fraction(other)
            return RationalPolynomial(
                self.n_vars, {a: c * f for a, c in self.coeffs.items()}
            )
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        if self.n_vars != other.n_vars:
            raise ValueError("variable count mismatch")
        coeffs: Dict[Exponent, Fraction] = {}
        for a1, c1 in self.coeffs.items():
            for a2, c2 in other.coeffs.items():
                alpha = add_exponents(a1, a2)
                coeffs[alpha] = coeffs.get(alpha, Fraction(0)) + c1 * c2
        return RationalPolynomial(self.n_vars, coeffs)

    __rmul__ = __mul__

    def diff(self, index: int) -> "RationalPolynomial":
        if not 0 <= index < self.n_vars:
            raise ValueError(f"variable index {index} out of range")
        coeffs: Dict[Exponent, Fraction] = {}
        for alpha, c in self.coeffs.items():
            a = alpha[index]
            if a == 0:
                continue
            beta = tuple(
                ai - 1 if i == index else ai for i, ai in enumerate(alpha)
            )
            coeffs[beta] = coeffs.get(beta, Fraction(0)) + c * a
        return RationalPolynomial(self.n_vars, coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self.n_vars == other.n_vars and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.n_vars, frozenset(self.coeffs.items())))

    def to_polynomial(self) -> Polynomial:
        """Nearest float polynomial (for reporting only — lossy)."""
        return Polynomial(
            self.n_vars, {a: float(c) for a, c in self.coeffs.items()}
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RationalPolynomial(n_vars={self.n_vars}, {self.coeffs!r})"


# ----------------------------------------------------------------------
# field / Lie-derivative helpers
# ----------------------------------------------------------------------
def rational_lie_derivative(
    B: RationalPolynomial, field: Sequence[RationalPolynomial]
) -> RationalPolynomial:
    """Exact ``L_f B = sum_i dB/dx_i * f_i`` over ℚ."""
    if len(field) != B.n_vars:
        raise ValueError("field dimension mismatch")
    out = RationalPolynomial.zero(B.n_vars)
    for i, fi in enumerate(field):
        out = out + B.diff(i) * fi
    return out


def rational_closed_loop(
    system,
    controller_polys: Sequence[Polynomial],
    error: Sequence[float],
    max_denominator: Optional[int] = None,
) -> List[RationalPolynomial]:
    """Exact closed-loop field ``f0 + G (h + w)`` over ℚ, recomputed from
    the system's own polynomials (independent of the float pipeline)."""
    h = [
        RationalPolynomial.from_polynomial(p, max_denominator)
        for p in controller_polys
    ]
    w = [_as_fraction(float(e)) for e in error]
    if system.n_inputs and len(h) != system.n_inputs:
        raise ValueError("controller polynomial count mismatch")
    out: List[RationalPolynomial] = []
    for i in range(system.n_vars):
        fi = RationalPolynomial.from_polynomial(system.f0[i], max_denominator)
        for j in range(system.n_inputs):
            Gij = RationalPolynomial.from_polynomial(
                system.G[i][j], max_denominator
            )
            fi = fi + Gij * (h[j] + RationalPolynomial.constant(
                system.n_vars, w[j]
            ))
        out.append(fi)
    return out


# ----------------------------------------------------------------------
# Gram matrices over ℚ
# ----------------------------------------------------------------------
RationalMatrix = List[List[Fraction]]


def rationalize_matrix(
    Q, max_denominator: Optional[int] = None
) -> RationalMatrix:
    """Symmetrized exact (or quantized) embedding of a float matrix."""
    n = len(Q)
    out: RationalMatrix = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            # symmetrize exactly: the IPM returns numerically-symmetric
            # matrices, but only the average is guaranteed symmetric in ℚ
            f = (Fraction(float(Q[i][j])) + Fraction(float(Q[j][i]))) / 2
            if max_denominator is not None:
                f = f.limit_denominator(max_denominator)
            out[i][j] = f
            out[j][i] = f
    return out


def shift_diagonal(Q: RationalMatrix, delta: Fraction) -> RationalMatrix:
    """``Q + delta * I`` (fresh copy)."""
    n = len(Q)
    out = [row[:] for row in Q]
    for i in range(n):
        out[i][i] = out[i][i] + delta
    return out


def gram_polynomial(
    basis: Sequence[Exponent], Q: RationalMatrix, n_vars: int
) -> RationalPolynomial:
    """Exact expansion of ``m(x)^T Q m(x)`` over ℚ."""
    coeffs: Dict[Exponent, Fraction] = {}
    for i, bi in enumerate(basis):
        row = Q[i]
        for j, bj in enumerate(basis):
            q = row[j]
            if q == 0:
                continue
            alpha = add_exponents(bi, bj)
            coeffs[alpha] = coeffs.get(alpha, Fraction(0)) + q
    return RationalPolynomial(n_vars, coeffs)


def ldlt_psd(Q: RationalMatrix) -> bool:
    """Exact PSD decision for a symmetric rational matrix.

    Symmetric Gaussian elimination with greatest-diagonal pivoting:

    * a negative maximal diagonal pivot disproves PSD-ness;
    * a zero maximal diagonal pivot requires the whole trailing block to
      vanish (a PSD matrix with ``Q_ii = 0`` has zero row/column ``i``);
    * completing all eliminations with positive pivots proves
      ``Q = L D Lᵀ`` with ``D >= 0``, hence PSD.

    Everything is exact — no tolerance anywhere.
    """
    n = len(Q)
    A = [row[:] for row in Q]
    for k in range(n):
        p = k
        for i in range(k + 1, n):
            if A[i][i] > A[p][p]:
                p = i
        if A[p][p] < 0:
            return False
        if A[p][p] == 0:
            # the largest remaining diagonal is zero: PSD iff the whole
            # trailing block is exactly zero
            for i in range(k, n):
                for j in range(k, n):
                    if A[i][j] != 0:
                        return False
            return True
        if p != k:
            A[k], A[p] = A[p], A[k]
            for row in A:
                row[k], row[p] = row[p], row[k]
        d = A[k][k]
        for i in range(k + 1, n):
            aik = A[i][k]
            if aik == 0:
                continue
            f = aik / d
            row_i, row_k = A[i], A[k]
            for j in range(k + 1, n):
                if row_k[j] != 0:
                    row_i[j] = row_i[j] - f * row_k[j]
    return True


#: the positive witness rounds ``2**s * Q`` onto integers whose largest
#: magnitude is about ``2**_GRID_BITS``; it pays only for Grams with
#: denominators wider than that
_GRID_BITS = 62


def _smallest_eigenpair(
    Q: RationalMatrix,
) -> Optional[Tuple[float, np.ndarray]]:
    """Float estimate ``(lambda_min, v)`` of ``Q``'s smallest eigenpair, or
    ``None`` when it cannot be formed.  It only proposes rung skips and
    witnesses; every decision it feeds is exact."""
    try:
        w, V = np.linalg.eigh(np.array([[float(x) for x in row] for row in Q]))
    except (ArithmeticError, np.linalg.LinAlgError):
        return None
    if not (np.isfinite(w[0]) and np.all(np.isfinite(V[:, 0]))):
        return None
    return float(w[0]), V[:, 0]


def _screened_rungs(
    ladder: Sequence[Fraction], min_eig: Optional[float]
) -> Iterator[Fraction]:
    """The ladder in ascending order, minus the rungs below half the float
    negativity ``-min_eig``: a shift that small cannot restore PSD-ness.
    The screen only ever skips rungs, and skips none without an
    estimate."""
    for delta in sorted(ladder):
        if min_eig is None or min_eig >= 0 or float(delta) >= -min_eig * 0.5:
            yield delta


def ldlt_psd_shift(
    Q: RationalMatrix,
    ladder: Sequence[Fraction] = DEFAULT_DELTA_LADDER,
) -> Optional[Fraction]:
    """Smallest shift ``delta`` in ``{0} ∪ ladder`` with ``Q + delta I``
    exactly PSD, or ``None`` when even the largest rung fails, with every
    rung decided by :func:`ldlt_psd`.

    Rung 0 comes first; past it, a float eigenvalue estimate skips rungs
    that cannot work (:func:`_screened_rungs`).  This is the reference
    :func:`find_psd_shift` must agree with.
    """
    if ldlt_psd(Q):
        return Fraction(0)
    pair = _smallest_eigenpair(Q)
    for delta in _screened_rungs(ladder, None if pair is None else pair[0]):
        if ldlt_psd(shift_diagonal(Q, delta)):
            return delta
    return None


def _times_pow2(q: Fraction, s: int) -> Tuple[int, int]:
    """``q * 2**s`` as an unreduced ``(numerator, denominator)`` pair."""
    if s >= 0:
        return q.numerator << s, q.denominator
    return q.numerator, q.denominator << -s


def _integer_grid(Q: RationalMatrix) -> Tuple[RationalMatrix, int]:
    """``(M, s)``: ``M`` is the integer matrix nearest ``2**s * Q`` (as
    denominator-1 fractions), with ``s`` putting its largest entry near
    ``2**_GRID_BITS``."""
    top = max(
        (q.numerator.bit_length() - q.denominator.bit_length()
         for row in Q for q in row if q),
        default=0,
    )
    s = _GRID_BITS - top
    M = []
    for row in Q:
        out = []
        for q in row:
            num, den = _times_pow2(q, s)
            out.append(Fraction((2 * num + den) // (2 * den)))
        M.append(out)
    return M, s


def _grid_witness(grid: Tuple[RationalMatrix, int], delta: Fraction) -> bool:
    """Sufficient exact test for ``Q + delta I`` PSD on ``Q``'s integer grid.

    With ``E = 2**s Q - M``, every ``|E_ij| <= 1/2``, so ``||E||_2 <=
    ||E||_F <= n/2``.  Hence ``2**s (Q + delta I) = W + (f I) + (c I + E)``
    with ``c = ceil(n/2)``, ``f`` the fractional part of ``2**s delta`` and
    ``W = M + (floor(2**s delta) - c) I``; the last two terms are PSD, so
    ``W`` PSD proves ``Q + delta I`` PSD.  ``W`` is an integer matrix, so
    its LDLᵀ meets ~62-bit entries instead of the Gram's wide fractions.
    """
    M, s = grid
    num, den = _times_pow2(delta, s)
    shift = Fraction(num // den - (len(M) + 1) // 2)
    return ldlt_psd(shift_diagonal(M, shift))


def _rayleigh_numerator(Q: RationalMatrix, u: Sequence[int]) -> Fraction:
    """Exact ``uᵀ Q u`` for an integer vector ``u``.  Numerators are summed
    per distinct denominator, so only those few partial sums meet a gcd."""
    by_den: Dict[int, int] = {}
    for i, row in enumerate(Q):
        if not u[i]:
            continue
        for j, q in enumerate(row):
            if u[j] and q:
                by_den[q.denominator] = (
                    by_den.get(q.denominator, 0) + u[i] * u[j] * q.numerator
                )
    return sum(
        (Fraction(num, den) for den, num in by_den.items()), Fraction(0)
    )


def find_psd_shift(
    Q: RationalMatrix,
    ladder: Sequence[Fraction] = DEFAULT_DELTA_LADDER,
) -> Optional[Fraction]:
    """Smallest shift ``delta`` in ``{0} ∪ ladder`` with ``Q + delta I``
    exactly PSD, or ``None`` when even the largest rung fails.

    ``Q`` must be symmetric.  The result always equals
    :func:`ldlt_psd_shift`'s, which decides a Gram whose denominators fit
    the ``_GRID_BITS`` grid.  A wider Gram (an absorbed slack Gram, say)
    first tries the positive witness at rung 0, then lets a float
    eigenpair skip the same rungs and propose a cheap exact witness for
    each one left:

    * positive, when the float ``lambda_min + delta > 0``: an LDLᵀ of
      ``Q``'s integer grid (:func:`_grid_witness`) can prove PSD-ness;
    * negative, when it is ``< 0``: the eigenvector rounded to integers
      ``u`` disproves the rung if ``uᵀQu + delta uᵀu < 0`` exactly.

    Both witnesses are proofs, and a rung neither settles (for example
    an exactly singular PSD ``Q``) goes to :func:`ldlt_psd`, so every
    rung's verdict equals that of ``ldlt_psd(Q + delta I)``.  When the
    eigenpair cannot be formed, every rung past 0 goes to
    :func:`ldlt_psd`.
    """
    if all(q.denominator.bit_length() <= _GRID_BITS for row in Q for q in row):
        return ldlt_psd_shift(Q, ladder)
    grid = _integer_grid(Q)
    if _grid_witness(grid, Fraction(0)):  # most Grams are PD
        return Fraction(0)
    pair = _smallest_eigenpair(Q)
    min_eig = None if pair is None else pair[0]
    rayleigh = None
    for delta in (Fraction(0), *_screened_rungs(ladder, min_eig)):
        if pair is not None:
            gap = min_eig + float(delta)
            if gap > 0 and delta:  # rung 0's grid witness failed above
                if _grid_witness(grid, delta):
                    return delta
            elif gap < 0:
                if rayleigh is None:
                    # any vector can witness; v has unit norm, so 2**52 v
                    # rounds to nonzero integers of at most 53 bits
                    u = [round(float(x) * 2.0 ** 52) for x in pair[1]]
                    rayleigh = (
                        _rayleigh_numerator(Q, u), sum(x * x for x in u)
                    )
                if rayleigh[0] + delta * rayleigh[1] < 0:
                    continue
        if ldlt_psd(shift_diagonal(Q, delta)):
            return delta
    return None


# ----------------------------------------------------------------------
# box bounds over ℚ
# ----------------------------------------------------------------------
def monomial_box_bound(
    alpha: Exponent, lo: Sequence[float], hi: Sequence[float]
) -> Fraction:
    """Exact bound ``max |x^alpha|`` over the box, via
    ``prod_i max(|lo_i|, |hi_i|)^alpha_i``."""
    out = Fraction(1)
    for a, l, h in zip(alpha, lo, hi):
        if a:
            m = max(abs(_as_fraction(float(l))), abs(_as_fraction(float(h))))
            out *= m ** a
    return out


def basis_square_bound(
    basis: Iterable[Exponent], lo: Sequence[float], hi: Sequence[float]
) -> Fraction:
    """Exact bound ``S >= max_x sum_k m_k(x)^2`` over the box — the price
    of a diagonal Gram shift: ``m^T (Q + delta I) m <= m^T Q m + delta S``."""
    total = Fraction(0)
    for beta in basis:
        total += monomial_box_bound(tuple(2 * b for b in beta), lo, hi)
    return total
