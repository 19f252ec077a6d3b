"""Block-diagonal standard-form SDP problem container and presolve."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.sdp.svec import svec, svec_dim, sym

#: rows per block of the presolve's blocked Gram-Schmidt: a GEMM size,
#: not a tuning knob
PRESOLVE_BLOCK = 64


class SDPProblem:
    """A block-diagonal standard-form SDP.

        min  sum_k <C_k, X_k>
        s.t. sum_k <A_{i,k}, X_k> = b_i,   X_k PSD.

    Constraint data is stored per block as an ``(m, svec_dim(n_k))`` matrix in
    svec coordinates (so row ``i`` is ``svec(A_{i,k})``).

    Build either directly from those matrices or incrementally via
    :meth:`add_constraint` with dense symmetric matrices.
    """

    def __init__(self, block_dims: Sequence[int]):
        if not block_dims or any(int(n) < 1 for n in block_dims):
            raise ValueError("block_dims must be a nonempty list of positive ints")
        self.block_dims: Tuple[int, ...] = tuple(int(n) for n in block_dims)
        self._svec_dims = [svec_dim(n) for n in self.block_dims]
        self.C: List[np.ndarray] = [np.zeros((n, n)) for n in self.block_dims]
        self._A_rows: List[List[np.ndarray]] = []  # per constraint: svec per block
        self._b: List[float] = []
        # memoized stacked constraint matrix; valid while its row count
        # matches len(_A_rows) (appends invalidate it implicitly)
        self._A_matrix: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @property
    def n_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def n_constraints(self) -> int:
        return len(self._b)

    @property
    def total_dim(self) -> int:
        """Sum of block sizes (the ``n`` entering the duality gap)."""
        return sum(self.block_dims)

    # ------------------------------------------------------------------
    def set_objective(self, C_blocks: Sequence[Optional[np.ndarray]]) -> None:
        """Set per-block objective matrices (``None`` keeps a zero block)."""
        if len(C_blocks) != self.n_blocks:
            raise ValueError("one objective matrix per block required")
        for k, C in enumerate(C_blocks):
            if C is None:
                continue
            C = np.asarray(C, dtype=float)
            n = self.block_dims[k]
            if C.shape != (n, n):
                raise ValueError(f"objective block {k} must be {n}x{n}")
            self.C[k] = sym(C)

    def set_trace_objective(self, weight: float = 1.0) -> None:
        """Objective ``weight * sum_k tr(X_k)`` — the default for feasibility runs."""
        self.C = [weight * np.eye(n) for n in self.block_dims]

    def add_constraint(
        self, A_blocks: Sequence[Optional[np.ndarray]], rhs: float
    ) -> None:
        """Append one equality constraint given dense per-block matrices."""
        if len(A_blocks) != self.n_blocks:
            raise ValueError("one matrix (or None) per block required")
        row = []
        for k, A in enumerate(A_blocks):
            n = self.block_dims[k]
            if A is None:
                row.append(np.zeros(self._svec_dims[k]))
                continue
            A = np.asarray(A, dtype=float)
            if A.shape != (n, n):
                raise ValueError(f"constraint block {k} must be {n}x{n}")
            row.append(svec(sym(A)))
        self._A_rows.append(row)
        self._b.append(float(rhs))

    def add_constraint_svec(self, svec_blocks: Sequence[np.ndarray], rhs: float) -> None:
        """Append one constraint already in svec coordinates (no copies checked)."""
        if len(svec_blocks) != self.n_blocks:
            raise ValueError("one svec per block required")
        row = []
        for k, v in enumerate(svec_blocks):
            v = np.asarray(v, dtype=float)
            if v.shape != (self._svec_dims[k],):
                raise ValueError(
                    f"svec block {k} must have length {self._svec_dims[k]}"
                )
            row.append(v)
        self._A_rows.append(row)
        self._b.append(float(rhs))

    def add_constraints_from_matrix(
        self, A: np.ndarray, b: np.ndarray
    ) -> None:
        """Bulk-append constraints from a stacked ``(m, S)`` svec matrix.

        One call replaces ``m`` :meth:`add_constraint_svec` calls (same
        row data, so downstream solves are bitwise-identical); when the
        problem had no constraints yet, ``A`` also seeds the
        :meth:`constraint_matrix` memo, skipping the per-row
        re-concatenation entirely.  The caller must not mutate ``A``
        afterwards.
        """
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        S = sum(self._svec_dims)
        if A.ndim != 2 or A.shape[1] != S:
            raise ValueError(f"constraint matrix must be (m, {S}), got {A.shape}")
        if b.shape != (A.shape[0],):
            raise ValueError("rhs must have one entry per constraint row")
        seed_cache = not self._A_rows
        splits = np.cumsum(self._svec_dims)[:-1]
        for i in range(A.shape[0]):
            self._A_rows.append(np.split(A[i], splits))
        self._b.extend(float(v) for v in b)
        if seed_cache:
            self._A_matrix = A

    # ------------------------------------------------------------------
    def constraint_matrix(self) -> np.ndarray:
        """Stacked constraint matrix over concatenated svec coordinates, (m, S)."""
        if (
            self._A_matrix is not None
            and self._A_matrix.shape[0] == len(self._A_rows)
        ):
            return self._A_matrix
        if not self._A_rows:
            return np.zeros((0, sum(self._svec_dims)))
        self._A_matrix = np.array([np.concatenate(row) for row in self._A_rows])
        return self._A_matrix

    def rhs(self) -> np.ndarray:
        """Right-hand-side vector b."""
        return np.asarray(self._b, dtype=float)

    def split_svec(self, flat: np.ndarray) -> List[np.ndarray]:
        """Split a concatenated svec vector into per-block svecs."""
        out = []
        start = 0
        for s in self._svec_dims:
            out.append(flat[start : start + s])
            start += s
        return out

    # ------------------------------------------------------------------
    def presolved(
        self, tol: float = 1e-10
    ) -> Tuple["SDPProblem", "PresolveInfo"]:
        """Drop linearly dependent constraint rows (keeping consistency info).

        Coefficient-matching constraints generated by the SOS compiler are
        frequently rank-deficient; the Schur complement in the IPM needs a
        full-row-rank system.  Returns a new problem with an independent row
        subset plus bookkeeping about dropped/inconsistent rows.

        Rows are tested greedily in order: row ``i`` is kept when its
        distance to the span of the rows kept before it exceeds
        ``tol * scale``; a dropped row whose right-hand side is not the
        same combination of the kept ones marks the system inconsistent.
        The distances come from blocked classical Gram-Schmidt with
        reorthogonalization (CGS2): :data:`PRESOLVE_BLOCK` rows at a time
        are projected twice onto the kept orthonormal basis by GEMMs,
        then tested in order against the rows newly kept in their block
        (again twice).  Projecting twice keeps the basis orthogonal to
        working precision, so a kept set never exceeds the svec
        dimension.  The reduced problem holds the *original* kept rows.
        """
        A = self.constraint_matrix()
        b = self.rhs()
        m, S = A.shape
        if m == 0:
            return self, PresolveInfo(kept_rows=[], dropped_rows=[], inconsistent=False)
        scale = max(1.0, float(np.max(np.abs(A))))
        threshold = tol * scale
        rhs_tol = 1e-6 * max(1.0, float(np.max(np.abs(b))))
        # orthonormal basis of the kept row space (first k rows), with the
        # rhs carried through the same projections
        capacity = min(m, S)
        Q = np.empty((capacity, S))
        beta = np.empty(capacity)
        k = 0
        kept: List[int] = []
        dropped: List[int] = []
        inconsistent = False
        for start in range(0, m, PRESOLVE_BLOCK):
            R = A[start : start + PRESOLVE_BLOCK].copy()
            rhs = b[start : start + PRESOLVE_BLOCK].copy()
            if k:
                for _ in range(2):
                    P = R @ Q[:k].T
                    R -= P @ Q[:k]
                    rhs -= P @ beta[:k]
            k_block = k
            for j in range(R.shape[0]):
                r, rhs_j = R[j], rhs[j]
                if k > k_block:
                    for _ in range(2):
                        p = Q[k_block:k] @ r
                        r = r - p @ Q[k_block:k]
                        rhs_j = rhs_j - p @ beta[k_block:k]
                nrm = float(np.linalg.norm(r))
                # a kept set of S rows spans the whole space: any further
                # residual is rounding noise
                if nrm > threshold and k < capacity:
                    Q[k] = r / nrm
                    beta[k] = rhs_j / nrm
                    k += 1
                    kept.append(start + j)
                else:
                    dropped.append(start + j)
                    if abs(rhs_j) > rhs_tol:
                        inconsistent = True
        reduced = SDPProblem(self.block_dims)
        reduced.C = [c.copy() for c in self.C]
        for i in kept:
            reduced._A_rows.append(self._A_rows[i])
            reduced._b.append(self._b[i])
        # seed the memo: the IPM reads the stacked matrix, not the row lists
        reduced._A_matrix = A[kept] if dropped else A
        return reduced, PresolveInfo(kept, dropped, inconsistent)


@dataclass
class PresolveInfo:
    """Outcome of :meth:`SDPProblem.presolved`."""

    kept_rows: List[int]
    dropped_rows: List[int]
    inconsistent: bool = False
    notes: str = field(default="")
