"""SOS/LMI verification of barrier-certificate conditions."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dynamics import CCDS
from repro.poly import Polynomial, lie_derivative
from repro.resilience.recovery import (
    RecoveryPolicy,
    solve_sdp_batch_resilient,  # noqa: F401 -- the ledger benchmark wraps this name here
    solve_sdp_resilient,
)
from repro.sdp import InteriorPointOptions, SDPProblem, SDPResult, WarmStart
from repro.sdp.svec import svec
from repro.sets import SemialgebraicSet
from repro.sos import SOSExpr, SOSProgram, validate_sos_identity
from repro.sos.program import GramBlock, SOSSolution
from repro.sos.workspace import ConditionWorkspace
from repro.soundness.certificate import (
    CertificateBundle,
    ConditionCertificate,
    MultiplierCertificate,
)
from repro.telemetry import get_telemetry

#: paper numbering of the three sub-problem families (conditions (13)-(15))
PAPER_CONDITION_NUMBERS = {"init": 13, "unsafe": 14, "lie": 15}


def _condition_base(name: str) -> str:
    """Family of a condition name: ``init``/``unsafe``/``lie``.

    Strips both endpoint tags (``lie[w=...]``) and per-cell suffixes
    (``init[cell1]``, ``lie[w=...][cell0]``) added for decomposed
    regions.
    """
    return name.split("[", 1)[0]


def _cell_name(name: str, idx: int, n_cells: int) -> str:
    """Per-cell condition name; single-cell regions keep the bare name
    so basic-set verifications are reported (and cached) exactly as
    before the region algebra existed."""
    return name if n_cells == 1 else f"{name}[cell{idx}]"


def _ws_key(base: str, idx: int, n_cells: int) -> Optional[str]:
    """Workspace-cache key for one cell of a condition's region.

    Single-cell regions keep the bare family key (``init``/``unsafe``/
    ``lie``) — the pre-region-algebra cache layout, byte for byte;
    decomposed regions get one workspace per cell because cells carry
    different constraint polynomials."""
    return None if n_cells == 1 else f"{base}#c{idx}"


@dataclass
class VerifierConfig:
    """Knobs for the LMI feasibility sub-problems.

    ``eps_unsafe`` and ``eps_lie`` are the paper's strictness margins
    ``epsilon_1`` / ``epsilon_2``; ``eps_init`` adds a tiny margin to the
    non-strict condition (i) so the numerical validation has headroom.

    ``multiplier_degree`` is a *floor*: each SOS multiplier additionally
    gets at least the degree needed for its product to reach the target
    expression degree.  The default floor of 0 yields the S-procedure
    (constant multipliers) for quadratic certificates on quadratic sets —
    the cheapest sound choice, which matters in high dimension.
    """

    multiplier_degree: int = 0
    lambda_degree: int = 1
    eps_init: float = 1e-4
    eps_unsafe: float = 1e-4
    eps_lie: float = 1e-4
    psd_tolerance: float = 1e-6
    sdp_options: InteriorPointOptions = field(
        default_factory=lambda: InteriorPointOptions(max_iterations=100, tolerance=1e-8)
    )
    #: reuse the structural SOS workspace (monomial bases, Gram block
    #: layout, multiplier constraint rows) across CEGIS iterations; per
    #: candidate only the affine data is refreshed.  Result-identical to
    #: a fresh :class:`SOSProgram` build (see ``repro.sos.workspace``).
    workspace_cache: bool = True
    #: SDP recovery ladder engaged when a condition solve ends in
    #: ``NUMERICAL_ERROR``/``MAX_ITERATIONS`` (see
    #: :mod:`repro.resilience.recovery`).  Healthy solves are untouched,
    #: so default-on recovery is bit-identical on converging instances.
    recovery: RecoveryPolicy = field(default_factory=RecoveryPolicy)
    #: seed each condition's IPM from its previous successful solve
    #: (the learner moves the candidate only slightly between CEGIS
    #: iterations, so the old primal/dual point is near the new central
    #: path).  Dimension changes and non-convergence fall back to a cold
    #: start through the recovery ladder's ``cold_restart`` rung.  NOT
    #: bitwise-comparable to cold solves (different central path), hence
    #: off by default; verdicts and a-posteriori validation are
    #: unaffected.
    warm_start: bool = False


@dataclass
class ConditionReport:
    """Outcome of one sub-problem (13), (14) or (15).

    Beyond the pass/fail verdict, the report carries the numerical state
    of the certificate: the a-posteriori validation numbers
    (``residual_bound``, ``min_gram_eigenvalue``) and the interior-point
    solver's final iterate (``sdp_gap`` / ``sdp_primal_residual`` /
    ``sdp_dual_residual`` / ``sdp_iterations``) so the certificate audit
    can report how close each sub-problem sits to the PSD boundary.
    """

    name: str
    feasible: bool
    validated: bool
    elapsed_seconds: float
    message: str = ""
    residual_bound: float = float("nan")
    min_gram_eigenvalue: float = float("nan")
    sdp_status: str = ""
    sdp_iterations: int = 0
    sdp_gap: float = float("nan")
    sdp_primal_residual: float = float("nan")
    sdp_dual_residual: float = float("nan")
    #: verdict of the IPM convergence classifier over the per-iteration
    #: trace (see :mod:`repro.sdp.trace`)
    sdp_convergence: str = ""
    #: which recovery-ladder rung produced the accepted solve
    sdp_recovery_rung: str = ""

    @property
    def ok(self) -> bool:
        return self.feasible and self.validated


@dataclass
class VerificationResult:
    """Aggregate outcome across all sub-problems.

    ``lambda_polys`` maps each Lie sub-problem name to the multiplier the
    SDP found for it.  A *different* lambda per inclusion-error endpoint is
    sound: the invariance argument only needs ``Bdot > 0`` on the zero
    level set of ``B``, where the ``lambda B`` term vanishes, and there the
    affine-in-``w`` derivative is positive at both endpoints hence for all
    intermediate ``w``.  The same argument covers a different lambda per
    decomposed-region *cell* (``lie[cell0]``, ``lie[cell1]``, ...): the
    pointwise requirement holds on every cell, and the cells cover Psi.
    """

    ok: bool
    conditions: List[ConditionReport]
    elapsed_seconds: float
    lambda_poly: Optional[Polynomial] = None
    lambda_polys: Optional[dict] = None
    #: Gram-level evidence for the exact rational recheck (Gram
    #: matrices, multipliers, lambda, margins, boxes); present on every
    #: passing verification
    certificate: Optional[CertificateBundle] = None

    def failed_conditions(self) -> List[str]:
        return [c.name for c in self.conditions if not c.ok]


@dataclass
class _PreparedCondition:
    """One compiled condition SDP, ready to solve."""

    name: str
    base: str
    expr_known: Polynomial
    region: SemialgebraicSet
    margin: float
    free_lambda_times: Optional[Polynomial]
    prog: SOSProgram
    multipliers: List[SOSExpr]
    lam_expr: Optional[SOSExpr]
    slack: GramBlock
    sdp: SDPProblem
    Bf: np.ndarray
    r: np.ndarray
    G: np.ndarray
    #: inclusion-error endpoint the Lie condition is certified at
    #: (empty for init/unsafe)
    endpoint: Tuple[float, ...] = ()


class SOSVerifier:
    """Checks Theorem 1's conditions for a *known* candidate ``B``.

    Parameters
    ----------
    problem:
        The CCDS safety instance (system + Theta/Psi/Xi).
    controller_polys:
        Polynomial inclusion ``h`` of the NN controller (one per input).
    sigma_star:
        Inclusion error bounds per input; the Lie condition is certified at
        every sign combination of the endpoints (2^m LMIs; m is 1 in all
        Table 1 benchmarks).
    """

    def __init__(
        self,
        problem: CCDS,
        controller_polys: Sequence[Polynomial],
        sigma_star: Optional[Sequence[float]] = None,
        config: Optional[VerifierConfig] = None,
    ):
        self.problem = problem
        self.controller_polys = list(controller_polys)
        m = problem.system.n_inputs
        if len(self.controller_polys) != m:
            raise ValueError(f"need {m} controller polynomials")
        self.sigma_star = (
            [0.0] * m if sigma_star is None else [float(s) for s in sigma_star]
        )
        if len(self.sigma_star) != m:
            raise ValueError("sigma_star length mismatch")
        if m > 4 and any(s > 0 for s in self.sigma_star):
            raise ValueError(
                "endpoint enumeration over >4 inputs is intractable; tighten "
                "the inclusion to sigma*=0 or reduce inputs"
            )
        self.config = config or VerifierConfig()
        #: condition base name -> cached :class:`ConditionWorkspace`
        self._workspaces: Dict[str, ConditionWorkspace] = {}
        #: condition name -> last successful solve's primal/dual point
        #: (populated only under ``config.warm_start``)
        self._warm: Dict[str, WarmStart] = {}

    # ------------------------------------------------------------------
    def _multiplier_degree(self, target: int, g: Polynomial) -> int:
        """Degree for an SOS multiplier of constraint ``g`` so the product
        reaches (at least) the target degree, floored by the config."""
        need = max(0, target - g.degree)
        need += need % 2  # SOS degrees are even
        return max(self.config.multiplier_degree, need)

    def _prepare(
        self,
        name: str,
        expr_known: Polynomial,
        region: SemialgebraicSet,
        margin: float,
        free_lambda_times: Optional[Polynomial] = None,
        endpoint: Tuple[float, ...] = (),
        ws_key: Optional[str] = None,
    ) -> _PreparedCondition:
        """Build the SDP for ``expr - sum sigma_i g_i - margin (+ lambda *
        B) in SOS``, through the cached workspace when enabled.

        ``ws_key`` scopes the workspace cache: cells of a decomposed
        region carry different constraint polynomials, so each cell gets
        its own workspace (endpoints of the same cell still share one).
        """
        cfg = self.config
        tel = get_telemetry()
        base = _condition_base(name)
        n = self.problem.n_vars
        target_deg = expr_known.degree
        if free_lambda_times is not None:
            target_deg = max(
                target_deg, cfg.lambda_degree + free_lambda_times.degree
            )
        mult_degs = [
            self._multiplier_degree(target_deg, g) for g in region.constraints
        ]
        if cfg.workspace_cache:
            lam_deg = cfg.lambda_degree if free_lambda_times is not None else None
            cache_key = ws_key if ws_key is not None else base
            ws = self._workspaces.get(cache_key)
            if ws is None or not ws.matches(mult_degs, lam_deg):
                ws = ConditionWorkspace(n, region.constraints, mult_degs, lam_deg)
                self._workspaces[cache_key] = ws
                tel.metrics.inc("verifier.workspace.misses")
            else:
                tel.metrics.inc("verifier.workspace.hits")
            varying = SOSExpr.from_polynomial(expr_known - margin)
            if ws.lam_expr is not None:
                varying = varying - ws.lam_expr * free_lambda_times
            sdp, Bf, r, G = ws.compile(varying)
            assert ws.slack_block is not None
            return _PreparedCondition(
                name, base, expr_known, region, margin, free_lambda_times,
                ws.program, ws.multipliers, ws.lam_expr, ws.slack_block,
                sdp, Bf, r, G, endpoint,
            )
        prog = SOSProgram(n)
        expr = SOSExpr.from_polynomial(expr_known - margin)
        multipliers = []
        for g, deg in zip(region.constraints, mult_degs):
            s = prog.sos_poly(deg, label="sigma")
            multipliers.append(s)
            expr = expr - s * g
        lam_expr = None
        if free_lambda_times is not None:
            lam_expr = prog.free_poly(cfg.lambda_degree, label="lambda")
            expr = expr - lam_expr * free_lambda_times
        # the slack degree must cover the full expression including the
        # multiplier products sigma_i * g_i (expr.degree accounts for them)
        slack = prog.require_sos(expr)
        sdp, Bf, r, G = prog.compile()
        return _PreparedCondition(
            name, base, expr_known, region, margin, free_lambda_times,
            prog, multipliers, lam_expr, slack, sdp, Bf, r, G, endpoint,
        )

    def _condition_box(
        self, region: SemialgebraicSet
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Bounding box the region's validation grid / exact recheck use."""
        if region.bounding_box is not None:
            return region.bounding_box
        n = self.problem.n_vars  # pragma: no cover - all paper sets bounded
        return -np.ones(n) * 1e3, np.ones(n) * 1e3

    def _capture(
        self,
        prep: _PreparedCondition,
        sol: SOSSolution,
        lam_poly: Optional[Polynomial],
    ) -> ConditionCertificate:
        """Snapshot the Gram-level evidence of one passing condition."""
        multipliers: List[MultiplierCertificate] = []
        for s, g in zip(prep.multipliers, prep.region.constraints):
            # every monomial of an sos_poly expression references the same
            # Gram block, so any gram key identifies it
            bid = next(
                bid
                for lc in s.coeffs.values()
                for (bid, _i, _j) in lc.gram
            )
            block = prep.prog._blocks[bid]
            multipliers.append(
                MultiplierCertificate(
                    constraint=g,
                    basis=tuple(block.basis),
                    gram=np.array(sol.gram(bid), dtype=float),
                )
            )
        lo, hi = self._condition_box(prep.region)
        return ConditionCertificate(
            name=prep.name,
            base=prep.base,
            margin=float(prep.margin),
            endpoint=tuple(float(w) for w in prep.endpoint),
            slack_basis=tuple(prep.slack.basis),
            slack_gram=np.array(sol.gram(prep.slack.block_id), dtype=float),
            multipliers=multipliers,
            lambda_poly=lam_poly,
            box_lo=tuple(float(v) for v in lo),
            box_hi=tuple(float(v) for v in hi),
        )

    def _finish(
        self,
        prep: _PreparedCondition,
        result: SDPResult,
        t0: float,
        span=None,
    ) -> Tuple[
        ConditionReport, Optional[Polynomial], Optional[ConditionCertificate]
    ]:
        """Free-variable recovery, a-posteriori validation and reporting
        for one solved condition (mirrors :meth:`SOSProgram.solve`)."""
        cfg = self.config
        tel = get_telemetry()
        name, base, prog = prep.name, prep.base, prep.prog
        free_values = np.zeros(prog._n_free)
        if result.status.ok and prog._n_free > 0:
            q_flat = np.concatenate([svec(X) for X in result.X])
            resid = prep.r - prep.G @ q_flat
            free_values, *_ = np.linalg.lstsq(prep.Bf, resid, rcond=None)
        sol = SOSSolution(prog, result, free_values)
        elapsed = time.perf_counter() - t0
        sdp = sol.sdp_result
        sdp_stats = dict(
            sdp_status=sdp.status.value,
            sdp_iterations=sdp.iterations,
            sdp_gap=float(sdp.gap),
            sdp_primal_residual=float(sdp.primal_residual),
            sdp_dual_residual=float(sdp.dual_residual),
            sdp_convergence=getattr(sdp, "convergence_class", ""),
            sdp_recovery_rung=getattr(sdp, "recovery_rung", ""),
        )
        if span is not None:
            span.set_attrs(
                sdp_convergence=sdp_stats["sdp_convergence"],
                sdp_recovery_rung=sdp_stats["sdp_recovery_rung"],
            )
        if not sol.feasible:
            message = f"SDP status: {sol.status.value} ({sol.sdp_result.message})"
            if span is not None:
                span.set_attrs(feasible=False, validated=False, message=message)
            tel.metrics.inc(f"verifier.infeasible.{base}")
            return (
                ConditionReport(
                    name=name,
                    feasible=False,
                    validated=False,
                    elapsed_seconds=elapsed,
                    message=message,
                    **sdp_stats,
                ),
                None,
                None,
            )
        lam_poly = sol.value(prep.lam_expr) if prep.lam_expr is not None else None
        # rebuild the fully-substituted LHS and validate the identity
        realized = prep.expr_known - prep.margin
        for s, g in zip(prep.multipliers, prep.region.constraints):
            realized = realized - sol.value(s) * g
        if lam_poly is not None:
            realized = realized - lam_poly * prep.free_lambda_times
        lo, hi = self._condition_box(prep.region)
        report = validate_sos_identity(
            realized,
            prep.slack,
            sol.gram(prep.slack.block_id),
            lo,
            hi,
            margin=prep.margin if prep.margin > 0 else 1e-6,
            psd_tolerance=cfg.psd_tolerance,
            extra_grams=[
                sol.gram(b.block_id)
                for b in prog._blocks
                if b.block_id != prep.slack.block_id
            ],
        )
        elapsed = time.perf_counter() - t0
        if span is not None:
            span.set_attrs(
                feasible=True, validated=report.ok, message=report.notes
            )
        if not report.ok:
            tel.metrics.inc(f"verifier.validation_failed.{base}")
        cert = self._capture(prep, sol, lam_poly) if report.ok else None
        return (
            ConditionReport(
                name=name,
                feasible=True,
                validated=report.ok,
                elapsed_seconds=elapsed,
                message=report.notes,
                residual_bound=report.residual_bound,
                min_gram_eigenvalue=report.min_eigenvalue,
                **sdp_stats,
            ),
            lam_poly,
            cert,
        )

    def _putinar_check(
        self,
        name: str,
        expr_known: Polynomial,
        region: SemialgebraicSet,
        margin: float,
        free_lambda_times: Optional[Polynomial] = None,
        endpoint: Tuple[float, ...] = (),
        ws_key: Optional[str] = None,
    ) -> Tuple[
        ConditionReport, Optional[Polynomial], Optional[ConditionCertificate]
    ]:
        """Feasibility of ``expr - sum sigma_i g_i - margin (+ lambda * B) in SOS``.

        When ``free_lambda_times`` is given (the candidate ``B``), a free
        polynomial ``lambda`` of ``config.lambda_degree`` multiplies it and
        is returned with the report (sub-problem (15)).
        """
        t0 = time.perf_counter()
        cfg = self.config
        tel = get_telemetry()
        base = _condition_base(name)
        with tel.span(
            "verifier.condition",
            condition=name,
            paper_condition=PAPER_CONDITION_NUMBERS.get(base),
        ) as span:
            prep = self._prepare(
                name, expr_known, region, margin, free_lambda_times,
                endpoint=endpoint, ws_key=ws_key,
            )
            result = solve_sdp_resilient(
                prep.sdp, cfg.sdp_options, cfg.recovery,
                warm_start=self._warm_for(name),
            )
            self._note_warm(name, result)
            return self._finish(prep, result, t0, span=span)

    def _warm_for(self, name: str) -> Optional[WarmStart]:
        """The stored warm-start point for a condition (None when the
        feature is off or no previous successful solve exists)."""
        if not self.config.warm_start:
            return None
        return self._warm.get(name)

    def _note_warm(self, name: str, result: SDPResult) -> None:
        """Update the per-condition warm-start store from a solve.

        Successful solves overwrite the stored point; failed solves drop
        it (a point that just led the IPM astray is worse than a cold
        start next iteration).
        """
        if not self.config.warm_start:
            return
        if result.status.ok:
            ws = WarmStart.from_result(result)
            if ws is not None:
                self._warm[name] = ws
                return
        self._warm.pop(name, None)

    # ------------------------------------------------------------------
    def verify(self, B: Polynomial) -> VerificationResult:
        """Run all sub-problems for candidate ``B``; all must pass.

        ``B`` is normalized to unit max-coefficient first — barrier
        conditions are scale-invariant and learned candidates can carry
        badly-scaled coefficients that stall the interior-point solver.
        """
        if B.n_vars != self.problem.n_vars:
            raise ValueError("candidate dimension mismatch")
        from repro.poly import linf_norm

        scale = linf_norm(B)
        if scale > 0:
            B = B * (1.0 / scale)
        t0 = time.perf_counter()
        cfg = self.config
        reports: List[ConditionReport] = []
        certs: List[ConditionCertificate] = []
        lambda_poly: Optional[Polynomial] = None
        lambda_polys: dict = {}

        # (13): B >= 0 on Theta — one Putinar certificate per cell; a
        # composite Theta passes only when every cell does (the cells
        # cover the region, so the conjunction implies the condition)
        theta_cells = self.problem.theta.decompose()
        for ci, cell in enumerate(theta_cells):
            rep, _, cert = self._putinar_check(
                _cell_name("init", ci, len(theta_cells)),
                B, cell, margin=cfg.eps_init, ws_key=_ws_key("init", ci, len(theta_cells)),
            )
            reports.append(rep)
            if cert is not None:
                certs.append(cert)
            if not rep.ok:
                break

        # (14): B < 0 on Xi  <=>  -B - eps1 >= 0
        if all(r.ok for r in reports):
            xi_cells = self.problem.xi.decompose()
            for ci, cell in enumerate(xi_cells):
                rep_u, _, cert_u = self._putinar_check(
                    _cell_name("unsafe", ci, len(xi_cells)),
                    -1.0 * B, cell, margin=cfg.eps_unsafe,
                    ws_key=_ws_key("unsafe", ci, len(xi_cells)),
                )
                reports.append(rep_u)
                if cert_u is not None:
                    certs.append(cert_u)
                if not rep_u.ok:
                    break
        else:
            reports.append(
                ConditionReport("unsafe", False, False, 0.0, "skipped (init failed)")
            )

        # (15): Lie condition at every inclusion-error endpoint, per cell
        if all(r.ok for r in reports):
            endpoints = self._error_endpoints()
            psi_cells = self.problem.psi.decompose()
            failed = False
            for idx, w in enumerate(endpoints):
                field_polys = self.problem.system.closed_loop(
                    self.controller_polys, error=list(w)
                )
                lfb = lie_derivative(B, field_polys)
                ename = "lie" if len(endpoints) == 1 else f"lie[w={np.round(w, 6).tolist()}]"
                for ci, cell in enumerate(psi_cells):
                    name = _cell_name(ename, ci, len(psi_cells))
                    rep_l, lam, cert_l = self._putinar_check(
                        name,
                        lfb,
                        cell,
                        margin=cfg.eps_lie,
                        free_lambda_times=B,
                        endpoint=w,
                        ws_key=_ws_key("lie", ci, len(psi_cells)),
                    )
                    reports.append(rep_l)
                    if cert_l is not None:
                        certs.append(cert_l)
                    if lam is not None:
                        lambda_polys[name] = lam
                        if lambda_poly is None:
                            lambda_poly = lam
                    if not rep_l.ok:
                        failed = True
                        break
                if failed:
                    break
        else:
            reports.append(
                ConditionReport("lie", False, False, 0.0, "skipped (earlier failure)")
            )

        ok = all(r.ok for r in reports)
        tel = get_telemetry()
        tel.metrics.inc("verifier.verifications")
        if not ok:
            tel.metrics.inc("verifier.rejections")
        return VerificationResult(
            ok=ok,
            conditions=reports,
            elapsed_seconds=time.perf_counter() - t0,
            lambda_poly=lambda_poly,
            lambda_polys=lambda_polys or None,
            certificate=self._bundle(B, scale, certs) if ok else None,
        )

    def _bundle(
        self,
        B: Polynomial,
        scale: float,
        certs: List[ConditionCertificate],
    ) -> Optional[CertificateBundle]:
        """Assemble the per-candidate bundle from passing-condition
        certificates (``B`` is the normalized candidate they certify)."""
        if not certs:
            return None
        return CertificateBundle(
            barrier=B,
            barrier_scale=float(scale) if scale > 0 else 1.0,
            controller_polys=list(self.controller_polys),
            sigma_star=list(self.sigma_star),
            conditions=certs,
        )

    def _error_endpoints(self) -> List[Tuple[float, ...]]:
        """Sign combinations of the inclusion error endpoints (vertices of
        the ``w`` box); a single ``(0, ..., 0)`` when all errors vanish."""
        m = self.problem.system.n_inputs
        if m == 0 or all(s == 0.0 for s in self.sigma_star):
            return [tuple([0.0] * m)]
        out: List[Tuple[float, ...]] = []

        def rec(prefix: List[float], j: int) -> None:
            if j == m:
                out.append(tuple(prefix))
                return
            s = self.sigma_star[j]
            if s == 0.0:
                rec(prefix + [0.0], j + 1)
            else:
                rec(prefix + [-s], j + 1)
                rec(prefix + [+s], j + 1)

        rec([], 0)
        return out
