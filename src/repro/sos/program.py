"""SOS feasibility programs compiled to block-diagonal SDPs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import lu, svd

from repro.poly import Polynomial
from repro.poly.monomials import Exponent, add_exponents, monomials_upto
from repro.sdp import (
    InteriorPointOptions,
    SDPProblem,
    SDPResult,
    SDPStatus,
    solve_sdp,
)
from repro.sdp.svec import svec_dim
from repro.sos.expr import GramKey, LinCoeff, SOSExpr

_SQRT2 = float(np.sqrt(2.0))


@dataclass
class GramBlock:
    """One SOS polynomial variable ``m(x)^T Q m(x)`` with PSD Gram ``Q``."""

    block_id: int
    basis: Tuple[Exponent, ...]
    label: str = ""

    @property
    def size(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class FreeElimination:
    """The free variables ``f`` eliminated from ``G q + Bf f = r``.

    ``pivots`` are rows ``P`` of ``Bf`` whose block ``B_P`` is a basis of
    its row space.  Every other row ``i`` (``keep``, in order) becomes
    ``G_i q - C_i G_P q = r_i - C_i r_P`` with ``C = B_R B_P^{-1}``: the
    system ``q`` must satisfy for some ``f``.  These rows span
    ``null(Bf^T)^T G``, so the feasible set is the one a null-space
    projection gives, but the rows stay sparse: a zero row of ``Bf``
    keeps its ``G`` row as it is, and a row with ``C_i != 0`` gains only
    the pivot rows' nonzeros.
    """

    keep: np.ndarray
    pivots: np.ndarray
    #: ``(len(keep), len(pivots))``, entries of magnitude at most 1
    C: np.ndarray

    def apply(self, M: np.ndarray) -> np.ndarray:
        """The eliminated rows of ``M`` (``G``, or ``r``); ``M`` itself
        when nothing is eliminated."""
        if not self.pivots.size:
            return M
        out = M[self.keep]
        touched = np.flatnonzero(np.any(self.C, axis=1))
        out[touched] -= self.C[touched] @ M[self.pivots]
        return out


def eliminate_free(Bf: np.ndarray) -> FreeElimination:
    """Pick the pivot rows of ``Bf`` and ``C`` for :class:`FreeElimination`.

    Rank is decided as an SVD null-space basis decides it: singular
    values above ``eps * max(m, k)`` times the largest.  A rank-deficient
    ``Bf`` is pivoted through an orthonormal basis of its range, which
    has the same null space.  LU with partial pivoting picks the pivots;
    rows are then swapped while an entry of ``C`` exceeds 1 in magnitude
    (each swap grows ``|det B_P|``, so it ends), which keeps ``|C| <= 1``.
    """
    m, k = Bf.shape
    nonzero = np.flatnonzero(np.any(Bf, axis=1))
    if not nonzero.size:
        return FreeElimination(
            np.arange(m), np.zeros(0, dtype=np.intp), np.zeros((m, 0))
        )
    B = Bf[nonzero]
    U, s, _ = svd(B, full_matrices=False)
    rank = int(np.count_nonzero(s > s[0] * np.finfo(float).eps * max(m, k)))
    if rank < k:
        B = U[:, :rank]
    p, _, _ = lu(B, p_indices=True)
    order = np.argsort(p)  # B[order] = L U: the pivot rows come first
    piv, rest = order[:rank], order[rank:]
    while True:
        C = np.linalg.solve(B[piv].T, B[rest].T).T
        if not C.size:
            break
        i, j = np.unravel_index(np.argmax(np.abs(C)), C.shape)
        if abs(C[i, j]) <= 1.0 + 1e-9:
            break
        piv[j], rest[i] = rest[i], piv[j]
    pivots = nonzero[piv]
    keep = np.setdiff1d(np.arange(m), pivots)
    C_rows = np.zeros((m, rank))
    C_rows[nonzero[rest]] = C
    return FreeElimination(keep, pivots, C_rows[keep])


class SOSProgram:
    """Declarative SOS feasibility program.

    Typical use for sub-problem (13) of the paper::

        prog = SOSProgram(n_vars)
        sigmas = [prog.sos_poly(2) for _ in theta]          # SOS multipliers
        expr = SOSExpr.from_polynomial(B)
        for s, g in zip(sigmas, theta):
            expr = expr - s * g
        prog.require_sos(expr)
        sol = prog.solve()
        if sol.feasible:
            sigma_polys = [sol.value(s) for s in sigmas]
    """

    def __init__(self, n_vars: int):
        if n_vars < 1:
            raise ValueError("n_vars must be positive")
        self.n_vars = int(n_vars)
        self._blocks: List[GramBlock] = []
        self._n_free = 0
        self._constraints: List[Tuple[SOSExpr, Optional[int]]] = []  # (expr, slack block)

    # ------------------------------------------------------------------
    # variable declaration
    # ------------------------------------------------------------------
    def _new_block(self, half_degree: int, label: str) -> GramBlock:
        basis = monomials_upto(self.n_vars, half_degree)
        block = GramBlock(len(self._blocks), basis, label)
        self._blocks.append(block)
        return block

    def sos_poly(self, degree: int, label: str = "") -> SOSExpr:
        """A new SOS polynomial variable of degree <= ``degree`` (rounded even).

        Returned as the symbolic expansion ``m^T Q m`` over the monomial
        basis ``[x]_{degree/2}``.
        """
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        half = (degree + 1) // 2
        block = self._new_block(half, label or f"sos{len(self._blocks)}")
        coeffs: Dict[Exponent, LinCoeff] = {}
        for i, bi in enumerate(block.basis):
            for j in range(i, block.size):
                alpha = add_exponents(bi, block.basis[j])
                weight = 1.0 if i == j else 2.0
                key: GramKey = (block.block_id, i, j)
                lc = coeffs.setdefault(alpha, LinCoeff())
                lc.gram[key] = lc.gram.get(key, 0.0) + weight
        return SOSExpr(self.n_vars, coeffs)

    def free_poly(self, degree: int, label: str = "") -> SOSExpr:
        """A new free (sign-unconstrained) polynomial of degree <= ``degree``."""
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        coeffs: Dict[Exponent, LinCoeff] = {}
        for alpha in monomials_upto(self.n_vars, degree):
            fid = self._n_free
            self._n_free += 1
            coeffs[alpha] = LinCoeff(free={fid: 1.0})
        return SOSExpr(self.n_vars, coeffs)

    def free_scalar(self) -> SOSExpr:
        """A single free scalar decision variable (a degree-0 free poly)."""
        return self.free_poly(0)

    # ------------------------------------------------------------------
    # constraints
    # ------------------------------------------------------------------
    def require_sos(self, expr: SOSExpr, half_degree: Optional[int] = None) -> GramBlock:
        """Require ``expr in Sigma[x]`` by introducing a slack Gram block."""
        if expr.n_vars != self.n_vars:
            raise ValueError("expression variable count mismatch")
        if half_degree is None:
            half_degree = (expr.degree + 1) // 2
        block = self._new_block(half_degree, f"slack{len(self._constraints)}")
        self._constraints.append((expr, block.block_id))
        return block

    def require_zero(self, expr: SOSExpr) -> None:
        """Require ``expr == 0`` coefficient-wise."""
        if expr.n_vars != self.n_vars:
            raise ValueError("expression variable count mismatch")
        self._constraints.append((expr, None))

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def _svec_index(self, size: int, i: int, j: int) -> int:
        """Index of upper-triangular entry (i, j), i <= j, in svec ordering."""
        return i * size - (i * (i - 1)) // 2 + (j - i)

    def compile(
        self, objective: Optional[LinCoeff] = None
    ) -> Tuple[SDPProblem, np.ndarray, np.ndarray, np.ndarray]:
        """Build the SDP.

        Returns ``(sdp, B_free, rhs_rows, G_rows)`` where the raw equality
        system is ``G_rows . svec(Q_all) + B_free . f = rhs_rows`` and the SDP
        already contains the free-variable-eliminated rows (sparse
        pivoting, see :func:`eliminate_free`).

        With ``objective`` (an affine expression over decision variables to
        *minimize*), the free-variable part is rewritten through the
        least-squares recovery map ``f = B^+ (r - G q)`` so the whole
        objective becomes linear in the PSD blocks; a feasibility-style
        trace objective is used otherwise.
        """
        if not self._constraints:
            raise ValueError("program has no constraints")
        block_sizes = [blk.size for blk in self._blocks]
        svec_dims = [svec_dim(s) for s in block_sizes]
        offsets = np.concatenate([[0], np.cumsum(svec_dims)])
        total_svec = int(offsets[-1])

        rows_G: List[np.ndarray] = []
        rows_B: List[np.ndarray] = []
        rhs: List[float] = []

        for expr, slack_id in self._constraints:
            # union of monomials: expression support plus everything the
            # slack block can produce
            alphas = set(expr.coeffs)
            if slack_id is not None:
                basis = self._blocks[slack_id].basis
                for i, bi in enumerate(basis):
                    for j in range(i, len(basis)):
                        alphas.add(add_exponents(bi, basis[j]))
            slack_pairs: Dict[Exponent, List[Tuple[int, int]]] = {}
            if slack_id is not None:
                basis = self._blocks[slack_id].basis
                for i, bi in enumerate(basis):
                    for j in range(i, len(basis)):
                        slack_pairs.setdefault(add_exponents(bi, basis[j]), []).append((i, j))

            for alpha in sorted(alphas):
                g_row = np.zeros(total_svec)
                b_row = np.zeros(self._n_free)
                c0 = 0.0
                lc = expr.coeffs.get(alpha)
                if lc is not None:
                    # equation: slack_gram(alpha) - expr(alpha) = 0
                    c0 = lc.const
                    for fid, v in lc.free.items():
                        b_row[fid] -= v
                    for (bid, i, j), v in lc.gram.items():
                        size = block_sizes[bid]
                        idx = int(offsets[bid]) + self._svec_index(size, i, j)
                        # combined coefficient v on Q_ij: svec coordinate is
                        # v for diagonal, v / sqrt(2) off-diagonal
                        g_row[idx] -= v if i == j else v / _SQRT2
                for (i, j) in slack_pairs.get(alpha, ()):  # + m^T Q m term
                    size = block_sizes[slack_id]
                    idx = int(offsets[slack_id]) + self._svec_index(size, i, j)
                    weight = 1.0 if i == j else 2.0
                    g_row[idx] += weight if i == j else weight / _SQRT2
                if slack_id is None and not np.any(g_row) and not np.any(b_row):
                    # pure constant row: must be zero for consistency
                    rows_G.append(g_row)
                    rows_B.append(b_row)
                    rhs.append(c0)
                    continue
                rows_G.append(g_row)
                rows_B.append(b_row)
                rhs.append(c0)

        G = np.array(rows_G)
        Bf = np.array(rows_B).reshape(len(rows_G), self._n_free)
        r = np.array(rhs)

        elim = eliminate_free(Bf)
        G_proj = elim.apply(G)
        r_proj = elim.apply(r)

        sdp = SDPProblem(block_sizes)
        if objective is None:
            sdp.set_trace_objective(1.0)
        else:
            c_vec = np.zeros(total_svec)
            # gram part: coefficient c on Q_{b,i,j} (combined convention)
            for (bid, i, j), v in objective.gram.items():
                idx = int(offsets[bid]) + self._svec_index(block_sizes[bid], i, j)
                c_vec[idx] += v if i == j else v / _SQRT2
            # free part via the least-squares recovery map f = B^+ (r - G q)
            if objective.free:
                cf = np.zeros(self._n_free)
                for fid, v in objective.free.items():
                    cf[fid] = v
                if self._n_free and Bf.size:
                    Bplus = np.linalg.pinv(Bf)
                    # a cost component along null(B) would make the
                    # objective depend on an unconstrained variable
                    resid = cf - Bf.T @ (Bplus.T @ cf)
                    if np.linalg.norm(resid) > 1e-8 * max(1.0, np.linalg.norm(cf)):
                        raise ValueError(
                            "objective depends on a free variable the "
                            "constraints do not determine (unbounded)"
                        )
                    c_vec -= G.T @ (Bplus.T @ cf)
            C_blocks = [
                _smat_of(c_vec[offsets[k] : offsets[k + 1]], block_sizes[k])
                for k in range(len(block_sizes))
            ]
            sdp.set_objective(C_blocks)
        for i in range(G_proj.shape[0]):
            svecs = [
                G_proj[i, offsets[k] : offsets[k + 1]] for k in range(len(block_sizes))
            ]
            sdp.add_constraint_svec(svecs, float(r_proj[i]))
        return sdp, Bf, r, G

    # ------------------------------------------------------------------
    def solve(
        self,
        options: Optional[InteriorPointOptions] = None,
        minimize: Optional[SOSExpr] = None,
    ) -> "SOSSolution":
        """Compile and solve; recover free variables by least squares.

        ``minimize`` turns the feasibility program into an optimization: it
        must be a degree-0 expression (a scalar affine combination of
        decision variables), e.g. ``-gamma`` to maximize a bound ``gamma``.
        """
        objective: Optional[LinCoeff] = None
        if minimize is not None:
            if minimize.degree != 0:
                raise ValueError("objective must be a scalar (degree-0) expression")
            zero = (0,) * self.n_vars
            objective = minimize.coeffs.get(zero, LinCoeff())
        sdp, Bf, r, G = self.compile(objective=objective)
        result = solve_sdp(sdp, options)
        free_values = np.zeros(self._n_free)
        if result.status.ok and self._n_free > 0:
            q_flat = np.concatenate(
                [_svec_of(X) for X in result.X]
            )
            resid = r - G @ q_flat
            free_values, *_ = np.linalg.lstsq(Bf, resid, rcond=None)
        return SOSSolution(self, result, free_values)


def _svec_of(X: np.ndarray) -> np.ndarray:
    from repro.sdp.svec import svec

    return svec(X)


def _smat_of(v: np.ndarray, n: int) -> np.ndarray:
    from repro.sdp.svec import smat

    return smat(v, n)


class SOSSolution:
    """Solved SOS program: extract concrete polynomials from expressions."""

    def __init__(self, program: SOSProgram, sdp_result: SDPResult, free_values: np.ndarray):
        self.program = program
        self.sdp_result = sdp_result
        self.free_values = free_values

    @property
    def feasible(self) -> bool:
        """True when the interior-point solver reached (near-)optimality."""
        return self.sdp_result.status.ok

    @property
    def status(self) -> SDPStatus:
        return self.sdp_result.status

    def gram(self, block_id: int) -> np.ndarray:
        """Gram matrix of block ``block_id``."""
        return self.sdp_result.X[block_id]

    def gram_blocks(self) -> List[np.ndarray]:
        return list(self.sdp_result.X)

    def value(self, expr: SOSExpr) -> Polynomial:
        """Substitute solved decision variables into an expression."""
        if not self.feasible:
            raise RuntimeError("cannot extract values from an infeasible program")
        coeffs: Dict[Exponent, float] = {}
        for alpha, lc in expr.coeffs.items():
            v = lc.const
            for fid, c in lc.free.items():
                v += c * float(self.free_values[fid])
            for (bid, i, j), c in lc.gram.items():
                v += c * float(self.sdp_result.X[bid][i, j])
            if v != 0.0:
                coeffs[alpha] = v
        return Polynomial(expr.n_vars, coeffs)

    def slack_polynomial(self, block: GramBlock) -> Polynomial:
        """The SOS polynomial realized by a (slack) Gram block."""
        Q = self.sdp_result.X[block.block_id]
        coeffs: Dict[Exponent, float] = {}
        for i, bi in enumerate(block.basis):
            for j, bj in enumerate(block.basis):
                alpha = add_exponents(bi, bj)
                coeffs[alpha] = coeffs.get(alpha, 0.0) + Q[i, j]
        return Polynomial(self.program.n_vars, coeffs)
