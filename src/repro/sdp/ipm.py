"""Primal-dual interior-point method for block-diagonal SDPs.

Implements the HKM (Helmberg-Kojima-Monteiro) search direction with a
Mehrotra predictor-corrector, the classic algorithm behind CSDP/SDPA.  For
the problem

    min  <C, X>   s.t.  A(X) = b,  X PSD (block diagonal)

each iteration linearizes the perturbed complementarity ``X Z = sigma mu I``
as ``dX Z + X dZ = K`` and eliminates ``dX`` and ``dZ`` through the Schur
complement ``M`` with entries ``M_ij = tr(A_i X A_j Z^{-1})``.

Kernels
-------
The per-iteration loop lives in :class:`_IPMState`.  It calls raw LAPACK
(``dpotrf``/``dpotrs``/``dtrtrs``) instead of the scipy wrappers, whose
per-call overhead dominates on the small blocks SOS programs produce,
and factors X and Z once per iteration for both line-search calls (the
iterates do not change in between).  These kernels perform the float
operations of the textbook scipy-wrapper loop in the same order, so
results are bitwise identical to it; the test suite keeps that loop as
a reference oracle.

The Schur complement uses ``M_ij = <A_i, X A_j Z^{-1}>`` (``A_i``
symmetric): per block two GEMMs form every ``X A_j Z^{-1}`` with the
constraint index innermost, and one sparse product with the constraint
rows (a CSR matrix over all blocks, in full ``n x n`` coordinates)
contracts them.  The constraint rows of SOS programs are mostly zero
(0.5% on C13's Lie condition), so this skips the symmetrization, the
svec gather and the dense ``(m, s) @ (s, m)`` product.  It sums in a
different order than the textbook formula, so it is tested against it
to ``1e-12 * max|M|`` rather than bit for bit.

Stop tests
----------
Each iteration first checks its iterate, in this order:

- ``mu`` non-finite or negative: ``NUMERICAL_ERROR``;
- relative gap and both residuals below ``tolerance``: ``OPTIMAL``;
- a dual Farkas ray, ``b^T y > 0`` and ``A^T y <= tolerance *
  ||A^T y||_F * I`` on every block (a Cholesky per block decides it):
  ``PRIMAL_INFEASIBLE``, with ``y`` as the certificate;
- the primal objective below ``-INFEASIBILITY_THRESHOLD * (1 + |b|)``
  with a primal residual below ``1e-4``: ``DUAL_INFEASIBLE``.

The ray test only reads the iterate, so a solve it does not stop
follows the same path bit for bit.  It asks nothing of the dual
residual: an infeasible-start dual residual grows with ``y`` along the
ray, so requiring a small one would let the solve run on to
``max_iterations`` or float overflow.

Warm starts (opt-in via the ``warm_start`` argument, *not* bitwise)
start from a previous solve's primal/dual point pushed back into the
interior; see :class:`WarmStart`.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack as _lapack

from repro.resilience.faults import fault_point, fired
from repro.sdp.problem import PresolveInfo, SDPProblem
from repro.sdp.result import SDPResult, SDPStatus
from repro.sdp.svec import smat, smat_stack, svec, svec_positions, sym
from repro.sdp.trace import (
    DEFAULT_TRACE_CAPACITY,
    IPMTrace,
    classify_convergence,
    make_record,
)
from repro.telemetry import get_telemetry

logger = logging.getLogger(__name__)

#: fraction-to-boundary factor keeping iterates strictly interior
STEP_FRACTION = 0.98
#: primal objective magnitude (relative to ``1 + |b|``) beyond which the
#: dual is declared infeasible; primal infeasibility is decided by a
#: checked dual ray instead (see ``_IPMState._dual_ray``)
INFEASIBILITY_THRESHOLD = 1e8


@dataclass
class InteriorPointOptions:
    """Tuning knobs for :func:`solve_sdp`."""

    max_iterations: int = 100
    tolerance: float = 1e-8
    #: initial scaling floor for X and Z
    init_scale: float = 10.0
    #: wall-clock cap on the iteration loop; ``None`` disarms.  Checked
    #: once per IPM iteration, so one iteration may overshoot — the cap
    #: is cooperative, like the pipeline-level ``TimeBudget``
    time_limit_s: Optional[float] = None
    #: interior push applied to a warm-start point, as a fraction of the
    #: cold-start scales ``xi``/``eta``: ``X0 = X_prev + push*xi*I``.
    #: Small values trust the previous iterate more (fewer iterations on
    #: nearby problems) at the cost of robustness on large moves; a
    #: retryable warm failure gets one cold re-solve (``cold_restart``)
    #: before the recovery ladder engages.
    warm_start_push: float = 1e-3


@dataclass
class WarmStart:
    """A primal/dual point to start the IPM from (see ``warm_start`` on
    :func:`solve_sdp`).

    ``y`` is indexed by the *original* (pre-presolve) constraint rows —
    exactly how :class:`SDPResult` reports it — and is restricted to the
    presolved row subset internally.  A warm start whose shapes do not
    match the problem (the SOS template changed size between CEGIS
    iterations) is silently dropped in favor of a cold start, counted in
    the ``sdp.warm_start.rejected`` metric.
    """

    X: List[np.ndarray]
    y: np.ndarray
    Z: List[np.ndarray]

    @classmethod
    def from_result(cls, result: SDPResult) -> Optional["WarmStart"]:
        """Capture a solve's final iterate; ``None`` when the result has
        no usable (finite, complete) primal-dual point."""
        if result.y is None or not result.X or not result.Z:
            return None
        if len(result.X) != len(result.Z):
            return None
        arrays = list(result.X) + list(result.Z) + [result.y]
        if not all(np.all(np.isfinite(a)) for a in arrays):
            return None
        return cls(
            X=[np.array(x, dtype=float) for x in result.X],
            y=np.array(result.y, dtype=float),
            Z=[np.array(z, dtype=float) for z in result.Z],
        )


# ----------------------------------------------------------------------
# raw LAPACK kernels (bitwise-identical to the scipy wrappers they
# replace — asserted by tests/test_sdp_solver.py — minus the per-call
# python overhead that dominates on SOS-sized blocks)
# ----------------------------------------------------------------------
def _chol_lower_or_none(M: np.ndarray) -> Optional[np.ndarray]:
    """Lower Cholesky factor, or ``None`` when ``M`` is not PD / not
    finite (the line search treats both as a zero step, the dual-ray
    test as "not a ray")."""
    if not np.all(np.isfinite(M)):
        return None
    c, info = _lapack.dpotrf(M, lower=1, clean=1)
    return c if info == 0 else None


def _potrf_upper(M: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor a la ``cho_factor`` (raises on non-PD)."""
    c, info = _lapack.dpotrf(M, lower=0, clean=0)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"matrix is not positive definite (dpotrf info={info})"
        )
    return c


def _potrs_upper(c: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve with an upper factor from :func:`_potrf_upper`."""
    x, info = _lapack.dpotrs(c, B, lower=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpotrs failed (info={info})")
    return x


def _solve_lower(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Forward substitution ``L x = B`` (lower triangular)."""
    x, info = _lapack.dtrtrs(L, B, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dtrtrs failed (info={info})")
    return x


def _schur_regularization(M: np.ndarray, m: int) -> float:
    """Diagonal jitter for the Schur Cholesky.

    Healthy Schur complements (positive finite trace) get exactly the
    historical ``1e-14 * tr(M) / m`` value — same float operations, so
    default-on solves stay bitwise.  The guards fix the degenerate
    cases: ``m == 0`` and a zero/negative/non-finite trace used to
    produce a nan/zero jitter, turning a recoverable least-squares
    fallback into either a crash (``cho_factor`` raising ``ValueError``
    on nan) or a misleading ``schur_cholesky_ok=False``.
    """
    if m <= 0:
        return 0.0
    tr = float(np.trace(M))
    if np.isfinite(tr) and tr > 0.0:
        return 1e-14 * tr / m
    diag = np.abs(np.diag(M))
    fallback = (
        float(np.max(diag)) if diag.size and bool(np.all(np.isfinite(diag))) else 0.0
    )
    return 1e-14 * max(1.0, fallback)


class _BlockData:
    """Per-block constraint data, built once per constraint matrix (see
    :func:`_constraint_operator`) from its svec rows.

    ``svecs`` is the block's ``(m, s)`` slice of the svec constraint
    matrix (the operators ``A`` and ``A^T``).  ``cols`` is the
    ``(n, n*m)`` layout ``cols[r, s*m + j] = A_j[r, s]``, so one GEMM
    ``X @ cols`` forms every ``X A_j`` with the constraint index
    innermost.
    """

    def __init__(self, n: int, svec_rows: np.ndarray):
        self.n = n
        self.svecs = svec_rows  # (m, s)
        self.cols = smat_stack(svec_rows, n).reshape(n, n * svec_rows.shape[0])


@lru_cache(maxsize=64)
def _full_coordinates(
    dims: Tuple[int, ...],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`svec_positions` over the concatenated svec coordinates of
    blocks ``dims``, offset to the blocks' columns in
    :func:`_constraint_csr`."""
    upper, lower, scale = [], [], []
    offset = 0
    for n in dims:
        u, lo, sc = svec_positions(n)
        upper.append(u + offset)
        lower.append(lo + offset)
        scale.append(sc)
        offset += n * n
    return np.concatenate(upper), np.concatenate(lower), np.concatenate(scale)


def _constraint_csr(A: np.ndarray, dims: Tuple[int, ...]) -> sp.csr_matrix:
    """The svec constraint matrix ``A`` (m, S) as one ``(m, sum n_k^2)``
    CSR matrix in full ``n x n`` coordinates: block ``k`` starts at
    column ``sum_{l<k} n_l^2`` and holds ``A_j[r, c]`` at ``r * n_k + c``
    (both triangles)."""
    upper, lower, scale = _full_coordinates(tuple(dims))
    m = A.shape[0]
    j, t = np.nonzero(A)
    vals = A[j, t] / scale[t]
    off_diag = upper[t] != lower[t]
    rows = np.concatenate([j, j[off_diag]])
    pos = np.concatenate([upper[t], lower[t][off_diag]])
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=m), out=indptr[1:])
    return sp.csr_matrix(
        (np.concatenate([vals, vals[off_diag]])[order], pos[order], indptr),
        shape=(m, sum(n * n for n in dims)),
    )


def _constraint_operator(
    problem: SDPProblem,
) -> Tuple[List[_BlockData], sp.csr_matrix, np.ndarray]:
    """The constraint rows as the IPM applies them: per-block
    :class:`_BlockData`, the rows over all blocks in full ``n x n``
    coordinates (:func:`_constraint_csr`), and the row norms.

    Built once per constraint-matrix object and kept in the problem's
    memo, so problems that differ only in ``b`` (see
    :meth:`SDPProblem.with_rhs`) and re-solves of one problem reuse it.
    """
    A = problem.constraint_matrix()
    op = problem.memo.get("ipm.operator", A)
    if op is None:
        blocks: List[_BlockData] = []
        start = 0
        for n in problem.block_dims:
            s = n * (n + 1) // 2
            blocks.append(_BlockData(n, A[:, start : start + s]))
            start += s
        op = (
            blocks,
            _constraint_csr(A, problem.block_dims),
            np.linalg.norm(A, axis=1),
        )
        problem.memo.put("ipm.operator", A, op)
    return op


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def solve_sdp(
    problem: SDPProblem,
    options: Optional[InteriorPointOptions] = None,
    rung: str = "base",
    warm_start: Optional[WarmStart] = None,
) -> SDPResult:
    """Solve a block-diagonal standard-form SDP.

    The problem is presolved to full row rank first.  Returns an
    :class:`SDPResult`; callers that only need feasibility should check
    ``result.status.ok`` *and* run their own a-posteriori validation of the
    primal blocks (see :mod:`repro.sos.validate`).

    ``rung`` labels which recovery-ladder strategy this solve belongs to
    (``"base"`` for a plain first attempt); it is stamped on the result
    and the emitted trace so cross-run analysis can attribute iterations
    to ladder rungs.

    ``warm_start`` (optional) seeds the IPM from a previous solve's
    primal/dual point, pushed back into the interior by
    ``options.warm_start_push``.  Incompatible shapes fall back to a
    cold start; ``result.warm_started`` records whether the point was
    used.  Warm-started solves follow a different central path, so they
    are *not* bitwise-comparable to cold solves — callers wanting the
    bitwise guarantee must not pass a warm start.
    """
    opts = options or InteriorPointOptions()
    tel = get_telemetry()
    with tel.span(
        "sdp.solve",
        n_constraints=problem.n_constraints,
        n_blocks=len(problem.block_dims),
        total_dim=problem.total_dim,
        rung=rung,
    ) as span:
        if fired("sdp.nonconvergence"):
            result = SDPResult(
                status=SDPStatus.MAX_ITERATIONS,
                iterations=opts.max_iterations,
                message="injected non-convergence",
                recovery_rung=rung,
            )
            span.set_attr("status", result.status.value)
            return result
        t_presolve = time.perf_counter()
        reduced, info = problem.presolved()
        span.set_attr("t_presolve", time.perf_counter() - t_presolve)
        if info.inconsistent:
            span.set_attr("status", SDPStatus.INCONSISTENT.value)
            return SDPResult(
                status=SDPStatus.INCONSISTENT,
                message="equality constraints are inconsistent (presolve)",
                recovery_rung=rung,
            )
        try:
            fault_point("sdp.solve")
            warm = _restrict_warm(problem, warm_start, info, opts, tel)
            result = _solve_reduced(reduced, opts, warm=warm)
        except (np.linalg.LinAlgError, FloatingPointError) as exc:
            # dense linear algebra can still throw outside the guarded
            # factorizations (e.g. eigvalsh non-convergence); classify it
            # as a numerical failure instead of leaking a traceback
            result = _exception_result(exc, tel)
        _finish_solve(problem, info, result, rung, tel)
        span.set_attrs(
            status=result.status.value,
            iterations=result.iterations,
            gap=result.gap,
            primal_residual=result.primal_residual,
            dual_residual=result.dual_residual,
            convergence=result.convergence_class,
        )
    return result


def _exception_result(exc: BaseException, tel) -> SDPResult:
    tel.metrics.inc("sdp.status.exception")
    return SDPResult(
        status=SDPStatus.NUMERICAL_ERROR,
        message=f"solver exception: {type(exc).__name__}: {exc}",
        convergence_class="ill_conditioned",
    )


def _restrict_warm(
    problem: SDPProblem,
    warm: Optional[WarmStart],
    info: PresolveInfo,
    opts: InteriorPointOptions,
    tel,
) -> Optional[Tuple[List[np.ndarray], np.ndarray, List[np.ndarray]]]:
    """Validate a warm start against ``problem`` and restrict its dual
    vector to the presolved row subset; ``None`` on any mismatch."""
    if warm is None:
        return None
    dims = problem.block_dims
    ok = (
        len(warm.X) == len(dims)
        and len(warm.Z) == len(dims)
        and warm.y.shape == (problem.n_constraints,)
        and all(x.shape == (n, n) for x, n in zip(warm.X, dims))
        and all(z.shape == (n, n) for z, n in zip(warm.Z, dims))
    )
    if not ok:
        tel.metrics.inc("sdp.warm_start.rejected")
        return None
    kept = np.asarray(info.kept_rows, dtype=int)
    y_red = warm.y[kept] if info.dropped_rows else warm.y.copy()
    tel.metrics.inc("sdp.warm_start.used")
    return ([x for x in warm.X], y_red, [z for z in warm.Z])


def _finish_solve(
    problem: SDPProblem,
    info: PresolveInfo,
    result: SDPResult,
    rung: str,
    tel,
) -> None:
    """Post-solve bookkeeping: rung stamp, dual expansion back to the
    original constraint indexing, and telemetry emission."""
    result.recovery_rung = rung
    if result.y is not None and info.dropped_rows:
        y_full = np.zeros(problem.n_constraints)
        y_full[np.asarray(info.kept_rows, dtype=int)] = result.y
        result.y = y_full
    tel.status_update(
        ipm_convergence=result.convergence_class, recovery_rung=rung
    )
    if tel.enabled:
        tel.metrics.observe("sdp.iterations", result.iterations)
        tel.metrics.observe("sdp.final_gap", result.gap)
        tel.metrics.observe("sdp.primal_residual", result.primal_residual)
        tel.metrics.observe("sdp.dual_residual", result.dual_residual)
        tel.metrics.inc(f"sdp.status.{result.status.value}")
        tel.metrics.inc(f"sdp.convergence.{result.convergence_class}")
        tel.event(
            "sdp.ipm_trace",
            status=result.status.value,
            convergence=result.convergence_class,
            rung=rung,
            iterations=result.iterations,
            n_records=len(result.ipm_trace),
            dropped=result.ipm_trace_dropped,
            records=result.ipm_trace,
        )


def _zero_constraint_result(problem: SDPProblem) -> SDPResult:
    dims = problem.block_dims
    return SDPResult(
        status=SDPStatus.OPTIMAL,
        X=[np.zeros((n, n)) for n in dims],
        y=np.zeros(0),
        Z=[c.copy() for c in problem.C],
        primal_objective=0.0,
        dual_objective=0.0,
        gap=0.0,
        primal_residual=0.0,
        dual_residual=0.0,
        message="no constraints; returning X = 0",
        convergence_class="healthy",
    )


def _solve_reduced(
    problem: SDPProblem,
    opts: InteriorPointOptions,
    warm: Optional[Tuple[List[np.ndarray], np.ndarray, List[np.ndarray]]] = None,
) -> SDPResult:
    if problem.n_constraints == 0:
        return _zero_constraint_result(problem)
    state = _IPMState(problem, opts, warm=warm)
    while not state.finished and state.iteration < opts.max_iterations:
        state.step()
    return state.finalize()


# ----------------------------------------------------------------------
# the iteration engine
# ----------------------------------------------------------------------
class _IPMState:
    """The state of one predictor-corrector solve, advanced by
    :meth:`step`.

    The per-iteration work is split into named ``_phase`` methods so the
    sampling profiler attributes time to solver sub-phases instead of
    one opaque frame; the same boundaries feed the ``t_*`` sub-phase
    timers in the trace records (see :mod:`repro.sdp.trace`).
    """

    def __init__(
        self,
        problem: SDPProblem,
        opts: InteriorPointOptions,
        warm: Optional[
            Tuple[List[np.ndarray], np.ndarray, List[np.ndarray]]
        ] = None,
    ):
        self.opts = opts
        self.dims = problem.block_dims
        self.n_blocks = len(self.dims)
        self.m = problem.n_constraints
        self.b = problem.rhs()
        self.C = [c.copy() for c in problem.C]
        self.blocks, self.A_csr, row_norms = _constraint_operator(problem)
        # every X_k A_j Z_k^{-1} stacked in the CSR's column order with
        # the constraint index j innermost (filled per iteration)
        self.schur_products = np.empty((self.A_csr.shape[1], self.m))
        self.total_n = problem.total_dim
        self.norm_b = float(np.linalg.norm(self.b))
        self.norm_C = float(
            np.sqrt(sum(np.linalg.norm(c) ** 2 for c in self.C))
        )

        # -- initialization (CSDP-style magnitude heuristics)
        xi = max(
            opts.init_scale,
            float(np.max(np.abs(self.b) / (1.0 + row_norms))) * max(self.dims)
            if self.m
            else 0.0,
        )
        eta = max(opts.init_scale, self.norm_C)
        self.warm_started = False
        if warm is not None:
            Xw, yw, Zw = warm
            push_x = opts.warm_start_push * xi
            push_z = opts.warm_start_push * eta
            self.X = [sym(Xw[k]) + push_x * np.eye(n) for k, n in enumerate(self.dims)]
            self.Z = [sym(Zw[k]) + push_z * np.eye(n) for k, n in enumerate(self.dims)]
            self.y = yw.copy()
            self.warm_started = True
        else:
            self.X = [xi * np.eye(n) for n in self.dims]
            self.Z = [eta * np.eye(n) for n in self.dims]
            self.y = np.zeros(self.m)

        self.status = SDPStatus.MAX_ITERATIONS
        self.message = ""
        self.iteration = 0
        self.rel_gap = np.inf
        self.prim_res = np.inf
        self.dual_res = np.inf
        self.t_start = time.perf_counter()
        # the most recent DEFAULT_TRACE_CAPACITY iterations are kept;
        # recording is always on — it is noise-level next to the
        # per-iteration dense factorizations
        self.trace = IPMTrace(capacity=DEFAULT_TRACE_CAPACITY)
        self.finished = False
        self.tel = get_telemetry()
        # per-iteration scratch
        self.rp: Optional[np.ndarray] = None
        self.Rd: List[np.ndarray] = []
        self.mu = np.inf
        self.Zinv: List[np.ndarray] = []
        self._ls_X: Optional[List[Optional[np.ndarray]]] = None
        self._ls_Z: Optional[List[Optional[np.ndarray]]] = None

    # -- operators ------------------------------------------------------
    def _operator_A(self, Xb: Sequence[np.ndarray]) -> np.ndarray:
        out = np.zeros(self.m)
        for blk, Xk in zip(self.blocks, Xb):
            out += blk.svecs @ svec(Xk)
        return out

    def _operator_AT(self, yv: np.ndarray) -> List[np.ndarray]:
        return [smat(blk.svecs.T @ yv, blk.n) for blk in self.blocks]

    @staticmethod
    def _inner(Ab: Sequence[np.ndarray], Bb: Sequence[np.ndarray]) -> float:
        return float(sum(np.sum(a * bmat) for a, bmat in zip(Ab, Bb)))

    def _stop(self, status: SDPStatus, message: str) -> None:
        self.status = status
        self.message = message
        self.finished = True

    # -- sub-phases -----------------------------------------------------
    def _phase_residuals(self, rec: dict) -> bool:
        """Residuals, objectives and the termination tests; fills the
        head of the trace record.  Returns False when the solve ended."""
        t0 = time.perf_counter()
        opts = self.opts
        self.rp = self.b - self._operator_A(self.X)
        ATy = self._operator_AT(self.y)
        self.Rd = [
            self.C[k] - ATy[k] - self.Z[k] for k in range(self.n_blocks)
        ]
        mu = self._inner(self.X, self.Z) / self.total_n
        if fired("sdp.ipm.mu"):
            mu = float("nan")
        self.mu = mu
        pobj = self._inner(self.C, self.X)
        dobj = float(self.b @ self.y)
        self.rel_gap = self._inner(self.X, self.Z) / (
            1.0 + abs(pobj) + abs(dobj)
        )
        self.prim_res = float(np.linalg.norm(self.rp)) / (1.0 + self.norm_b)
        self.dual_res = float(
            np.sqrt(sum(np.linalg.norm(r) ** 2 for r in self.Rd))
        ) / (1.0 + self.norm_C)
        rec.update(
            mu=float(mu),
            rel_gap=float(self.rel_gap),
            primal_residual=float(self.prim_res),
            dual_residual=float(self.dual_res),
            primal_objective=float(pobj),
            dual_objective=float(dobj),
        )

        logger.debug(
            "ipm it=%3d mu=%9.2e gap=%9.2e pres=%9.2e dres=%9.2e pobj=%+.6e",
            self.iteration, mu, self.rel_gap, self.prim_res, self.dual_res,
            pobj,
        )
        rec["t_residuals"] = time.perf_counter() - t0

        if not np.isfinite(mu) or mu < 0:
            self._stop(SDPStatus.NUMERICAL_ERROR, "mu became invalid")
            return False
        if (
            self.rel_gap < opts.tolerance
            and self.prim_res < opts.tolerance
            and self.dual_res < opts.tolerance
        ):
            self._stop(SDPStatus.OPTIMAL, "converged")
            return False
        if dobj > 0.0 and self._dual_ray(ATy):
            self._stop(
                SDPStatus.PRIMAL_INFEASIBLE,
                "dual ray certifies primal infeasibility",
            )
            return False
        if (
            pobj < -INFEASIBILITY_THRESHOLD * (1.0 + self.norm_b)
            and self.prim_res < 1e-4
        ):
            self._stop(
                SDPStatus.DUAL_INFEASIBLE,
                "primal objective diverging; dual likely infeasible",
            )
            return False
        return True

    def _dual_ray(self, ATy: Sequence[np.ndarray]) -> bool:
        """Whether ``y`` (with ``b^T y > 0``, checked by the caller) is a
        Farkas ray: ``A^T y <= tolerance * ||A^T y||_F * I`` on every
        block.  Then any PSD ``X`` with ``A(X) = b`` would have
        ``0 < b^T y = <A^T y, X> <= tolerance * ||A^T y||_F * tr(X)``, so
        no feasible ``X`` of moderate trace exists.

        Each block is decided by a Cholesky of ``bound * I - (A^T y)_k``;
        the necessary ``tr((A^T y)_k) <= n_k * bound`` comes first, so
        iterates of feasible solves rarely reach a factorization.
        """
        bound = self.opts.tolerance * float(
            np.sqrt(sum(np.vdot(a, a) for a in ATy))
        )
        for a in ATy:
            n = a.shape[0]
            if np.trace(a) > n * bound:
                return False
            if _chol_lower_or_none(bound * np.eye(n) - a) is None:
                return False
        return True

    def _phase_z_factor(self, rec: dict) -> bool:
        """Factor the Z blocks and form ``Z^{-1}``; False on breakdown."""
        t0 = time.perf_counter()
        self.Zinv = []
        failed = False
        for Zk in self.Z:
            try:
                fault_point("sdp.ipm.z_cholesky")
                cf = _potrf_upper(Zk)
            except np.linalg.LinAlgError:
                failed = True
                break
            self.Zinv.append(_potrs_upper(cf, np.eye(Zk.shape[0])))
        rec["t_z_factor"] = time.perf_counter() - t0
        if failed:
            rec["z_cholesky_ok"] = False
            self._stop(
                SDPStatus.NUMERICAL_ERROR, "Z lost positive definiteness"
            )
            return False
        return True

    def _phase_schur_assembly(self, rec: dict) -> Optional[np.ndarray]:
        """Assemble the Schur complement ``M_ij = tr(A_i X A_j Z^{-1})``.

        For symmetric ``A_i`` that is ``<A_i, X A_j Z^{-1}>``: per block,
        one GEMM forms every ``X A_j`` and one batched GEMM multiplies by
        ``Z^{-1}`` straight into :attr:`schur_products`; then one sparse
        product with the constraint rows contracts all blocks at once.
        """
        t0 = time.perf_counter()
        m = self.m
        F = self.schur_products
        offset = 0
        for Xk, Zinv_k, blk in zip(self.X, self.Zinv, self.blocks):
            n = blk.n
            G = (Xk @ blk.cols).reshape(n, n, m)  # G[p, s, j] = (X A_j)[p, s]
            np.matmul(
                Zinv_k.T, G, out=F[offset : offset + n * n].reshape(n, n, m)
            )
            offset += n * n
        M = self.A_csr @ F
        M = 0.5 * (M + M.T)
        abs_diag = np.abs(np.diag(M))
        max_diag = float(np.max(abs_diag)) if m else 0.0
        min_diag = float(np.min(abs_diag)) if m else 0.0
        rec["schur_diag_ratio"] = (
            max_diag / min_diag if min_diag > 0.0 else float("inf")
        )
        rec["t_schur_assembly"] = time.perf_counter() - t0
        if not np.all(np.isfinite(M)):
            # a clean numerical-error verdict keeps the recovery ladder
            # in play (see _schur_regularization)
            rec["schur_cholesky_ok"] = False
            self._stop(
                SDPStatus.NUMERICAL_ERROR, "Schur complement lost finiteness"
            )
            return None
        return M

    def _phase_schur_factor(self, M: np.ndarray, rec: dict):
        """Regularized Cholesky of ``M`` (least-squares fallback marker)."""
        t0 = time.perf_counter()
        jitter = _schur_regularization(M, self.m)
        try:
            M_factor = _potrf_upper(M + jitter * np.eye(self.m))
        except np.linalg.LinAlgError:
            M_factor = None
            rec["schur_cholesky_ok"] = False
        rec["t_schur_factor"] = time.perf_counter() - t0
        return M_factor

    def _solve_M(self, M, M_factor, rhs_vec: np.ndarray) -> np.ndarray:
        if M_factor is not None:
            return _potrs_upper(M_factor, rhs_vec)
        return np.linalg.lstsq(M, rhs_vec, rcond=None)[0]

    def _direction(
        self, M, M_factor, Kterm: List[np.ndarray]
    ) -> Tuple[List[np.ndarray], np.ndarray, List[np.ndarray]]:
        """Solve the Newton system for complementarity target ``Kterm``.

        ``dX Z + X dZ = Kterm - X Z`` together with the two feasibility
        equations; returns (dX, dy, dZ).
        """
        assert self.rp is not None
        rhs = self.b.copy()
        for k in range(self.n_blocks):
            rhs -= self.blocks[k].svecs @ svec(sym(Kterm[k] @ self.Zinv[k]))
            rhs += self.blocks[k].svecs @ svec(
                sym(self.X[k] @ self.Rd[k] @ self.Zinv[k])
            )
        dy = self._solve_M(M, M_factor, rhs)
        ATdy = self._operator_AT(dy)
        dZ = [self.Rd[k] - ATdy[k] for k in range(self.n_blocks)]
        dX = [
            sym(
                Kterm[k] @ self.Zinv[k]
                - self.X[k]
                - self.X[k] @ dZ[k] @ self.Zinv[k]
            )
            for k in range(self.n_blocks)
        ]
        return dX, dy, dZ

    # -- line search ----------------------------------------------------
    def _max_step(self, which: str, dMb: Sequence[np.ndarray]) -> float:
        """Largest alpha with ``M + alpha dM`` still PSD (per-block
        minimum), where ``M`` is the current X (``which == "X"``) or Z.

        X and Z are factored once per iteration and the factors shared
        by both line-search calls; a ``None`` factor (failed Cholesky)
        means a zero step."""
        if self._ls_X is None:
            self._ls_X = [_chol_lower_or_none(Xk) for Xk in self.X]
        if self._ls_Z is None:
            self._ls_Z = [_chol_lower_or_none(Zk) for Zk in self.Z]
        factors = self._ls_X if which == "X" else self._ls_Z
        alpha = np.inf
        for L, dMk in zip(factors, dMb):
            if not np.all(np.isfinite(dMk)):
                return 0.0
            if L is None:
                return 0.0
            W = _solve_lower(L, dMk)
            W = _solve_lower(L, W.T)
            lam_min = float(np.linalg.eigvalsh(sym(W))[0])
            if lam_min < 0:
                alpha = min(alpha, -1.0 / lam_min)
        return float(alpha)

    # -- one iteration --------------------------------------------------
    def step(self) -> None:
        """Advance one predictor-corrector iteration (or terminate)."""
        opts = self.opts
        self.iteration += 1
        # heartbeat: StatusWriter throttles, so this is one perf_counter
        # read per iteration on runs with a status file, a no-op otherwise
        self.tel.status_update(ipm_iteration=self.iteration)
        if (
            opts.time_limit_s is not None
            and time.perf_counter() - self.t_start > opts.time_limit_s
        ):
            self._stop(
                SDPStatus.MAX_ITERATIONS,
                f"time limit of {opts.time_limit_s:.3f}s reached",
            )
            return
        # a partially-filled record still lands in the trace on every
        # stop path below, so the classifier sees how the solve ended
        rec = self.trace.add(make_record(
            self.iteration, np.nan, np.nan, np.nan, np.nan, np.nan, np.nan,
            t=0.0,
        ))
        # per-iteration scratch reset (line-search factor cache)
        self._ls_X = None
        self._ls_Z = None
        try:
            if not self._phase_residuals(rec):
                return
            if not self._phase_z_factor(rec):
                return
            M = self._phase_schur_assembly(rec)
            if M is None:
                return
            M_factor = self._phase_schur_factor(M, rec)

            # predictor (affine scaling)
            K_aff = [np.zeros((n, n)) for n in self.dims]
            t_dir = time.perf_counter()
            dX_aff, dy_aff, dZ_aff = self._direction(M, M_factor, K_aff)
            rec["t_direction"] = time.perf_counter() - t_dir
            if fired("sdp.ipm.direction"):
                dy_aff = np.full_like(dy_aff, np.nan)
            if not all(
                np.all(np.isfinite(d)) for d in dX_aff + dZ_aff
            ) or not np.all(np.isfinite(dy_aff)):
                self._stop(
                    SDPStatus.NUMERICAL_ERROR, "non-finite search direction"
                )
                return
            t_ls = time.perf_counter()
            ap_aff = min(1.0, STEP_FRACTION * self._max_step("X", dX_aff))
            ad_aff = min(1.0, STEP_FRACTION * self._max_step("Z", dZ_aff))
            rec["t_line_search"] = time.perf_counter() - t_ls
            gap_now = self._inner(self.X, self.Z)
            gap_aff = self._inner(
                [self.X[k] + ap_aff * dX_aff[k] for k in range(self.n_blocks)],
                [self.Z[k] + ad_aff * dZ_aff[k] for k in range(self.n_blocks)],
            )
            gap_aff = max(gap_aff, 0.0)
            sigma = min(1.0, max((gap_aff / max(gap_now, 1e-300)) ** 3, 1e-8))
            rec["sigma"] = float(sigma)

            # corrector
            K_corr = [
                sigma * self.mu * np.eye(self.dims[k])
                - dX_aff[k] @ dZ_aff[k]
                for k in range(self.n_blocks)
            ]
            t_dir = time.perf_counter()
            dX, dy, dZ = self._direction(M, M_factor, K_corr)
            rec["t_direction"] += time.perf_counter() - t_dir
            if not all(
                np.all(np.isfinite(d)) for d in dX + dZ
            ) or not np.all(np.isfinite(dy)):
                self._stop(
                    SDPStatus.NUMERICAL_ERROR, "non-finite search direction"
                )
                return
            t_ls = time.perf_counter()
            ap = min(1.0, STEP_FRACTION * self._max_step("X", dX))
            ad = min(1.0, STEP_FRACTION * self._max_step("Z", dZ))
            rec["t_line_search"] += time.perf_counter() - t_ls
            if fired("sdp.ipm.step"):
                ap = ad = 0.0
            rec["step_primal"] = float(ap)
            rec["step_dual"] = float(ad)
            if ap <= 1e-12 and ad <= 1e-12:
                self._stop(
                    SDPStatus.NUMERICAL_ERROR,
                    "step lengths collapsed (stalled)",
                )
                return

            self.X = [
                self.X[k] + ap * dX[k] for k in range(self.n_blocks)
            ]
            self.y = self.y + ad * dy
            self.Z = [
                self.Z[k] + ad * dZ[k] for k in range(self.n_blocks)
            ]
        finally:
            rec["t"] = time.perf_counter() - self.t_start

    def finalize(self) -> SDPResult:
        pobj = self._inner(self.C, self.X)
        dobj = float(self.b @ self.y)
        status, message = self.status, self.message
        # Loose-tolerance acceptance: if we stopped on iterations/stall but
        # the iterate is essentially optimal, report it as such.
        if status in (SDPStatus.MAX_ITERATIONS, SDPStatus.NUMERICAL_ERROR):
            tol = self.opts.tolerance
            if (
                self.rel_gap < 1e5 * tol
                and self.prim_res < 1e5 * tol
                and self.dual_res < 1e5 * tol
            ):
                status = SDPStatus.OPTIMAL
                message = (message + "; accepted at loose tolerance").strip("; ")
        return SDPResult(
            status=status,
            X=self.X,
            y=self.y,
            Z=self.Z,
            primal_objective=pobj,
            dual_objective=dobj,
            gap=self.rel_gap,
            primal_residual=self.prim_res,
            dual_residual=self.dual_res,
            iterations=self.iteration,
            message=message,
            convergence_class=classify_convergence(
                self.trace.records(), tolerance=self.opts.tolerance,
                status=status,
            ),
            ipm_trace=self.trace.records(),
            ipm_trace_dropped=self.trace.dropped,
            warm_started=self.warm_started,
        )
