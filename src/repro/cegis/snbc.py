"""SNBC: the full counterexample-guided synthesis procedure (Algorithm 1)."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cegis.counterexamples import CexConfig, CounterexampleGenerator
from repro.controllers import NNController, PolynomialInclusion, polynomial_inclusion
from repro.dynamics import CCDS
from repro.learner import BarrierLearner, LearnerConfig, TrainingData
from repro.poly import Polynomial
from repro.resilience import (
    BudgetExhausted,
    LearnerDivergence,
    ReproError,
    TimeBudget,
    load_checkpoint,
    restore_rng,
    rng_state,
    save_checkpoint,
)
from repro.sets import Ball, Box
from repro.soundness import (
    SoundnessConfig,
    SoundnessError,
    SoundnessReport,
    check_verification,
)
from repro.telemetry import Telemetry, get_telemetry
from repro.verifier import SOSVerifier, VerificationResult, VerifierConfig


@dataclass
class PhaseTimings:
    """Wall-clock seconds per phase — Table 1's ``T_l``/``T_c``/``T_v``/``T_e``."""

    inclusion: float = 0.0
    learning: float = 0.0
    counterexample: float = 0.0
    verification: float = 0.0

    @property
    def total(self) -> float:
        return self.inclusion + self.learning + self.counterexample + self.verification


#: paper numbering of the three condition families (Theorem 1 (i)-(iii)
#: compiled to sub-problems (13)-(15))
PAPER_CONDITION_NUMBERS = {"init": 13, "unsafe": 14, "lie": 15}


@dataclass
class IterationRecord:
    """Per-CEGIS-round diagnostics.

    ``loss`` is the weighted total of eq. (10); ``loss_init`` /
    ``loss_unsafe`` / ``loss_domain`` are its three condition terms, so a
    run report can show *which* of (13)-(15) the Learner kept fighting.
    ``worst_violation`` is the largest true violation any counterexample
    search found this round (0 when the round failed only numerically),
    and ``dataset_sizes`` records |S_I|, |S_U|, |S_D| after this round's
    counterexamples were appended.
    """

    iteration: int
    loss: float
    verified: bool
    failed_conditions: List[str]
    n_counterexamples: int
    loss_init: float = float("nan")
    loss_unsafe: float = float("nan")
    loss_domain: float = float("nan")
    worst_violation: float = 0.0
    dataset_sizes: Tuple[int, int, int] = (0, 0, 0)

    def to_dict(self) -> Dict[str, Any]:
        out = dataclasses.asdict(self)
        out["dataset_sizes"] = list(self.dataset_sizes)
        return out


@dataclass
class CexRecord:
    """Lineage of one counterexample set: where it came from and whether
    the final certificate satisfies it.

    ``iteration`` is the CEGIS round that generated it, ``condition`` the
    violated family (``init``/``unsafe``/``lie``, i.e. paper conditions
    (13)/(14)/(15)), ``worst_violation`` the violation magnitude at the
    generating round's worst point.  After the loop ends the same point is
    re-evaluated against the final candidate: ``final_violation`` is the
    violation there (<= 0 means resolved) and ``satisfied_by_final`` the
    resulting verdict.
    """

    iteration: int
    condition: str
    paper_condition: int
    worst_violation: float
    gamma: float
    n_points: int
    worst_point: List[float]
    satisfied_by_final: Optional[bool] = None
    final_violation: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclass
class SNBCConfig:
    """Configuration of the SNBC loop."""

    max_iterations: int = 10
    n_samples: int = 500
    inclusion_degree: int = 2
    inclusion_spacing: float = 0.1
    inclusion_max_mesh: int = 20_000
    inclusion_error_mode: str = "lipschitz"
    first_epochs: Optional[int] = None  # defaults to learner.epochs
    retrain_epochs: Optional[int] = None  # defaults to learner.epochs // 2
    #: flag a stall when the worst counterexample violation has not
    #: decreased across this many consecutive failed rounds
    stall_window: int = 3
    seed: int = 0
    #: wall-clock deadline for the whole run; an overrun anywhere in the
    #: loop ends cleanly with ``outcome == "timeout"`` (the paper's OOT)
    time_budget_s: Optional[float] = None
    #: per-CEGIS-iteration deadline (same clean ``timeout`` semantics)
    iteration_budget_s: Optional[float] = None
    #: write a resumable checkpoint here after each failed iteration;
    #: ``SNBC.run(resume_from=...)`` continues bit-identically from it
    checkpoint_path: Optional[str] = None
    checkpoint_every: int = 1
    #: on :class:`LearnerDivergence`, roll the learner back to its
    #: pre-``fit`` state and retry with extra samples this many times
    #: before surfacing the failure as ``outcome == "error"``
    learner_recovery_attempts: int = 2
    #: re-prove every accepted certificate's Putinar identities over ℚ
    #: (:mod:`repro.soundness.checker`); a rejected recheck turns the run
    #: into ``outcome == "error"`` with a :class:`SoundnessError` — the
    #: loop never reports ``success`` on a certificate the exact checker
    #: refused
    soundness_check: bool = True
    #: overrides for the exact checker (shift ladder, quantization)
    soundness_config: Optional[SoundnessConfig] = None


@dataclass
class SNBCResult:
    """Outcome of :meth:`SNBC.run`."""

    success: bool
    barrier: Optional[Polynomial]
    lambda_poly: Optional[Polynomial]
    iterations: int
    timings: PhaseTimings
    history: List[IterationRecord]
    verification: Optional[VerificationResult]
    inclusion: Optional[PolynomialInclusion]
    problem_name: str = ""
    counterexamples: List[CexRecord] = field(default_factory=list)
    stalled: bool = False
    stall_iteration: Optional[int] = None
    #: ``"verified"`` | ``"not_verified"`` | ``"timeout"`` | ``"error"``
    #: — the first two restate ``success``; the last two classify runs
    #: that ended early (deadline overrun / unrecoverable typed failure)
    outcome: str = ""
    #: :meth:`repro.resilience.ReproError.to_dict` of the failure that
    #: ended the run, for ``timeout``/``error`` outcomes
    error: Optional[Dict[str, Any]] = None
    timed_out: bool = False
    #: iteration the run was resumed from, when ``run(resume_from=...)``
    resumed_from_iteration: Optional[int] = None
    #: exact rational recheck of the accepted certificate (present on
    #: every success when ``SNBCConfig.soundness_check``; also attached —
    #: with ``ok == False`` — when the recheck itself rejected the run)
    soundness: Optional[SoundnessReport] = None

    def __post_init__(self) -> None:
        if not self.outcome:
            self.outcome = "verified" if self.success else "not_verified"

    @property
    def total_time(self) -> float:
        return self.timings.total

    def resolved_counterexamples(self) -> int:
        """How many recorded counterexamples the final candidate satisfies."""
        return sum(1 for c in self.counterexamples if c.satisfied_by_final)


class SNBC:
    """Synthesize a neural barrier certificate for an NN-controlled CCDS.

    The constructor accepts either an :class:`NNController` (its polynomial
    inclusion is computed as phase 0), a precomputed
    :class:`PolynomialInclusion`, or — for autonomous systems — neither.

    >>> result = SNBC(problem, controller=k).run()   # doctest: +SKIP
    >>> result.success, result.barrier               # doctest: +SKIP
    """

    def __init__(
        self,
        problem: CCDS,
        controller: Optional[NNController] = None,
        inclusion: Optional[PolynomialInclusion] = None,
        learner_config: Optional[LearnerConfig] = None,
        verifier_config: Optional[VerifierConfig] = None,
        cex_config: Optional[CexConfig] = None,
        config: Optional[SNBCConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.problem = problem
        self.controller = controller
        self.inclusion = inclusion
        self.config = config or SNBCConfig()
        self.learner_config = learner_config or LearnerConfig(seed=self.config.seed)
        if verifier_config is None:
            # a constant multiplier network (Table 1's "c") means the
            # verifier's free lambda can be constant too, keeping every
            # sub-problem quadratic — decisive for high dimensions
            lam_deg = 0 if self.learner_config.lambda_hidden is None else 1
            verifier_config = VerifierConfig(lambda_degree=lam_deg)
        self.verifier_config = verifier_config
        self.cex_config = cex_config or CexConfig(seed=self.config.seed)
        self._telemetry = telemetry
        # One deterministic generator chain: `config.seed` spawns
        # independent child streams for sampling/inclusion, learner
        # initialization, and counterexample ball sampling, so the whole
        # run is reproducible from the single seed regardless of how many
        # draws each component makes.
        children = np.random.SeedSequence(self.config.seed).spawn(3)
        self.rng = np.random.default_rng(children[0])
        self._learner_rng = np.random.default_rng(children[1])
        self._cex_rng = np.random.default_rng(children[2])
        if problem.system.n_inputs > 0 and controller is None and inclusion is None:
            raise ValueError(
                "a controlled system needs a controller or a polynomial inclusion"
            )

    @property
    def telemetry(self) -> Telemetry:
        """Explicit instance if one was injected, else the process default
        (resolved at use time so harness sessions apply)."""
        return self._telemetry or get_telemetry()

    # ------------------------------------------------------------------
    def _ensure_inclusion(self, timings: PhaseTimings) -> None:
        if self.problem.system.n_inputs == 0:
            return
        if self.inclusion is None:
            # meshable domains: boxes, and composites (box minus
            # obstacles) that delegate mesh/effective_spacing to their
            # base box (the Theorem 2 covering argument carries over —
            # only obstacle deep-interior points are thinned)
            if not hasattr(self.problem.psi, "mesh"):
                raise ValueError(
                    "polynomial inclusion needs a meshable domain Psi "
                    "(a Box, or a composite region built on one)"
                )
            with self.telemetry.span(
                "snbc.inclusion", phase="inclusion"
            ) as span:
                self.inclusion = polynomial_inclusion(
                    self.controller,
                    self.problem.psi,
                    degree=self.config.inclusion_degree,
                    spacing=self.config.inclusion_spacing,
                    max_mesh_points=self.config.inclusion_max_mesh,
                    error_mode=self.config.inclusion_error_mode,
                    rng=self.rng,
                )
                span.set_attrs(
                    n_mesh_points=self.inclusion.n_mesh_points,
                    worst_sigma_star=self.inclusion.worst_sigma_star,
                )
            timings.inclusion += span.duration

    def _controller_polys(self) -> Sequence[Polynomial]:
        if self.problem.system.n_inputs == 0:
            return []
        return self.inclusion.polynomials

    def _sigma_star(self) -> Sequence[float]:
        if self.problem.system.n_inputs == 0:
            return []
        return self.inclusion.sigma_star

    # ------------------------------------------------------------------
    def _warm_start(self, learner, field_polys, data: TrainingData) -> None:
        """Initialize ``B`` as ``c - x^T P x`` with Lyapunov ``P`` of the
        closed-loop linearization, when that linearization is Hurwitz and the
        architecture supports it.  Purely an initialization: training and
        verification proceed unchanged."""
        from scipy.linalg import solve_continuous_lyapunov

        net = learner.b_net
        if not hasattr(net, "init_from_quadratic_form"):
            return
        n = self.problem.n_vars
        origin = np.zeros(n)
        A = np.zeros((n, n))
        for i, fi in enumerate(field_polys):
            for j in range(n):
                A[i, j] = fi.diff(j)(origin)
        eigs = np.linalg.eigvals(A)
        if np.max(eigs.real) >= -1e-9:
            return  # not Hurwitz; keep the random initialization
        try:
            P = solve_continuous_lyapunov(A.T, -np.eye(n))
        except (ValueError, np.linalg.LinAlgError) as exc:
            # a singular/ill-conditioned Lyapunov system just means no
            # warm start — keep the random initialization, but say so
            tel = self.telemetry
            tel.metrics.inc("cegis.warm_start.lyapunov_failures")
            tel.event(
                "cegis.warm_start_skipped",
                reason=f"{type(exc).__name__}: {exc}",
            )
            return
        P = 0.5 * (P + P.T)
        if np.linalg.eigvalsh(P)[0] <= 0:
            return
        # A very anisotropic Lyapunov shape may be unable to separate Theta
        # from Xi; blend toward the identity until the circumradius bound on
        # Theta falls below the sampled minimum of x^T P x on Xi.
        P = P / float(np.linalg.eigvalsh(P)[-1])
        theta = self.problem.theta
        if isinstance(theta, Ball):
            radius = float(np.linalg.norm(theta.center) + theta.radius)
        else:
            # exact circumradius of a box: the farthest corner
            lo, hi = theta.bounding_box
            corners = np.maximum(np.abs(lo), np.abs(hi))
            radius = float(np.linalg.norm(corners))
        chosen = None
        for alpha in (0.0, 0.1, 0.2, 0.5, 1.0, 4.0):
            P_try = P + alpha * np.eye(n)
            v_theta = float(np.linalg.eigvalsh(P_try)[-1]) * radius ** 2
            v_xi = float(
                np.min(np.einsum("bi,ij,bj->b", data.s_unsafe, P_try, data.s_unsafe))
            )
            if v_xi > v_theta:
                chosen = (P_try, 0.5 * (v_theta + v_xi))
                break
        if chosen is None:
            P_try = P + np.eye(n)
            v_theta = float(np.linalg.eigvalsh(P_try)[-1]) * radius ** 2
            chosen = (P_try, 1.05 * v_theta)
        try:
            net.init_from_quadratic_form(chosen[0], chosen[1], rng=self.rng)
        except ValueError as exc:
            # multi-layer nets keep their random initialization
            tel = self.telemetry
            tel.metrics.inc("cegis.warm_start.arch_fallbacks")
            tel.event("cegis.warm_start_skipped", reason=str(exc))

    def run(self, resume_from: Optional[str] = None) -> SNBCResult:
        """Execute Algorithm 1 and return the synthesis outcome.

        ``resume_from`` names a checkpoint written by a previous run (see
        :attr:`SNBCConfig.checkpoint_path`); the loop continues from the
        iteration after the checkpoint, bit-identically to an
        uninterrupted run.  Deadline overruns and unrecoverable typed
        failures never raise out of this method — they end the run with
        ``outcome == "timeout"`` / ``"error"`` instead.
        """
        tel = self.telemetry
        with tel.span(
            "snbc.run", problem=self.problem.name, seed=self.config.seed
        ) as run_span:
            result = self._run_inner(tel, resume_from=resume_from)
            run_span.set_attrs(
                success=result.success,
                iterations=result.iterations,
                outcome=result.outcome,
            )
        return result

    def _run_inner(
        self, tel: Telemetry, resume_from: Optional[str] = None
    ) -> SNBCResult:
        cfg = self.config
        timings = PhaseTimings()
        history: List[IterationRecord] = []
        budget = TimeBudget(
            total_s=cfg.time_budget_s, iteration_s=cfg.iteration_budget_s
        )

        verification: Optional[VerificationResult] = None
        soundness: Optional[SoundnessReport] = None
        barrier: Optional[Polynomial] = None
        lam_poly: Optional[Polynomial] = None
        cex_records: List[CexRecord] = []
        cex_gen: Optional[CounterexampleGenerator] = None
        success = False
        iterations_run = 0
        error_info: Optional[Dict[str, Any]] = None
        timed_out = False
        resumed_from: Optional[int] = None

        try:
            budget.check(phase="inclusion")
            tel.status_update(
                phase="inclusion", budget_remaining_s=budget.remaining()
            )
            self._ensure_inclusion(timings)
            h_polys = self._controller_polys()
            sigma = self._sigma_star()
            # The Learner trains the robust Lie margin: nominal loop
            # (w = 0) minus sigma*-weighted input gains, matching the
            # Verifier's endpoint checks.
            field_polys = self.problem.system.closed_loop(h_polys)
            system = self.problem.system
            gain_fields = [
                [system.G[i][j] for i in range(system.n_vars)]
                for j in range(system.n_inputs)
                if len(sigma) > j and sigma[j] > 0.0
            ]
            active_sigma = [s for s in sigma if s > 0.0]

            data = TrainingData.sample(self.problem, cfg.n_samples, rng=self.rng)
            learner = BarrierLearner(
                self.problem.n_vars, self.learner_config, rng=self._learner_rng
            )
            start_iteration = 1
            if resume_from is not None:
                resumed_from = self._restore_checkpoint(
                    resume_from, learner, data, cex_records, history, timings
                )
                start_iteration = resumed_from + 1
                tel.event(
                    "cegis.resume",
                    checkpoint=resume_from,
                    iteration=resumed_from,
                )
                tel.metrics.inc("cegis.resumes")
            elif self.learner_config.warm_start:
                self._warm_start(learner, field_polys, data)
            verifier = SOSVerifier(
                self.problem, h_polys, sigma, config=self.verifier_config
            )
            cex_gen = CounterexampleGenerator(
                self.problem, h_polys, sigma, config=self.cex_config,
                rng=self._cex_rng,
            )

            first_epochs = cfg.first_epochs or self.learner_config.epochs
            retrain_epochs = (
                cfg.retrain_epochs or max(1, self.learner_config.epochs // 2)
            )

            for iteration in range(start_iteration, cfg.max_iterations + 1):
                iterations_run = iteration
                tel.metrics.inc("cegis.iterations")
                budget.start_iteration(iteration)
                budget.check(phase="learning")
                tel.status_update(
                    phase="learning",
                    cegis_iteration=iteration,
                    budget_remaining_s=budget.remaining(),
                )
                with tel.span("snbc.iteration", iteration=iteration) as it_span:
                    with tel.span(
                        "snbc.learning", phase="learning", iteration=iteration
                    ) as sp:
                        epochs = (
                            first_epochs if iteration == 1 else retrain_epochs
                        )
                        terms = self._fit_with_recovery(
                            learner,
                            data,
                            field_polys,
                            epochs,
                            gain_fields,
                            active_sigma,
                            iteration,
                        )
                        sp.set_attrs(epochs=epochs, loss=terms.total)
                    timings.learning += sp.duration
                    tel.metrics.gauge("cegis.loss", terms.total)

                    barrier, lam_poly = learner.candidate()

                    budget.check(phase="verification")
                    tel.status_update(
                        phase="verification",
                        cegis_iteration=iteration,
                        budget_remaining_s=budget.remaining(),
                    )
                    self._apply_sdp_time_limit(budget)
                    with tel.span(
                        "snbc.verification",
                        phase="verification",
                        iteration=iteration,
                    ) as sp:
                        verification = verifier.verify(barrier)
                        sp.set_attrs(
                            ok=verification.ok,
                            failed=verification.failed_conditions(),
                            sdp_convergence={
                                rep.name: rep.sdp_convergence
                                for rep in verification.conditions
                                if getattr(rep, "sdp_convergence", "")
                            },
                        )
                    timings.verification += sp.duration

                    if verification.ok:
                        # the soundness gate: the float verifier's accept
                        # is only provisional until the Putinar identities
                        # re-prove over ℚ; a rejection raises out of the
                        # loop as a typed error (never a silent success),
                        # with the failed report still attached to the
                        # result for postmortems
                        soundness = self._check_soundness(verification)
                        if soundness is not None and not soundness.ok:
                            failed = soundness.failed_conditions()
                            raise SoundnessError(
                                "exact rational recheck rejected the "
                                "float-verified certificate: "
                                + "; ".join(
                                    f"{c.name}: {c.message or 'failed'}"
                                    for c in soundness.conditions
                                    if not c.ok
                                ),
                                failed_conditions=failed,
                                barrier_hash=soundness.barrier_hash,
                            )
                        record = IterationRecord(
                            iteration,
                            terms.total,
                            True,
                            [],
                            0,
                            loss_init=terms.init,
                            loss_unsafe=terms.unsafe,
                            loss_domain=terms.domain,
                            worst_violation=0.0,
                            dataset_sizes=data.sizes(),
                        )
                        history.append(record)
                        it_span.set_attr("verified", True)
                        tel.event("cegis.iteration", **record.to_dict())
                        tel.status_update(
                            force=True,
                            phase="verified",
                            cegis_iteration=iteration,
                        )
                        success = True
                        break

                    budget.check(phase="counterexample")
                    tel.status_update(
                        phase="counterexample",
                        cegis_iteration=iteration,
                        budget_remaining_s=budget.remaining(),
                    )
                    with tel.span(
                        "snbc.counterexample",
                        phase="counterexample",
                        iteration=iteration,
                    ) as sp:
                        failed = verification.failed_conditions()
                        cexs = cex_gen.generate(barrier, lam_poly, failed)
                        n_cex = 0
                        for cex in cexs:
                            n_cex += len(cex.points)
                            if cex.condition == "init":
                                data.add_init(cex.points)
                            elif cex.condition == "unsafe":
                                data.add_unsafe(cex.points)
                            else:
                                data.add_domain(cex.points)
                            cex_records.append(
                                CexRecord(
                                    iteration=iteration,
                                    condition=cex.condition,
                                    paper_condition=PAPER_CONDITION_NUMBERS.get(
                                        cex.condition, 0
                                    ),
                                    worst_violation=float(cex.worst_violation),
                                    gamma=float(cex.gamma),
                                    n_points=len(cex.points),
                                    worst_point=np.asarray(
                                        cex.worst_point, dtype=float
                                    ).tolist(),
                                )
                            )
                        if n_cex == 0:
                            # certificate failed only numerically (no true
                            # violation found): refresh with new random
                            # samples to perturb training
                            extra = TrainingData.sample(
                                self.problem,
                                max(16, cfg.n_samples // 8),
                                rng=self.rng,
                            )
                            data.add_init(extra.s_init)
                            data.add_unsafe(extra.s_unsafe)
                            data.add_domain(extra.s_domain)
                        sp.set_attrs(n_counterexamples=n_cex, failed=failed)
                    timings.counterexample += sp.duration
                    tel.metrics.inc("cegis.counterexamples", n_cex)
                    tel.status_update(
                        cex_new=n_cex,
                        cex_total=int(
                            tel.metrics.counter_value("cegis.counterexamples")
                        ),
                    )
                    it_span.set_attr("verified", False)

                worst = max(
                    (float(c.worst_violation) for c in cexs), default=0.0
                )
                record = IterationRecord(
                    iteration,
                    terms.total,
                    False,
                    failed,
                    n_cex,
                    loss_init=terms.init,
                    loss_unsafe=terms.unsafe,
                    loss_domain=terms.domain,
                    worst_violation=worst,
                    dataset_sizes=data.sizes(),
                )
                history.append(record)
                tel.event("cegis.iteration", **record.to_dict())
                if (
                    cfg.checkpoint_path
                    and iteration % max(1, cfg.checkpoint_every) == 0
                ):
                    self._write_checkpoint(
                        cfg.checkpoint_path,
                        iteration,
                        learner,
                        data,
                        cex_records,
                        history,
                        timings,
                    )
        except BudgetExhausted as exc:
            timed_out = True
            error_info = exc.to_dict()
            tel.metrics.inc("cegis.timeouts")
            tel.event("cegis.timeout", **error_info)
        except ReproError as exc:
            error_info = exc.to_dict()
            tel.metrics.inc("cegis.errors")
            tel.event("cegis.error", **error_info)

        final_lambda = (
            (verification.lambda_poly if verification else None) or lam_poly
        )
        if cex_gen is not None:
            self._finalize_lineage(cex_records, cex_gen, barrier, final_lambda)
        tel.event(
            "cegis.lineage", records=[c.to_dict() for c in cex_records]
        )

        from repro.diagnostics.convergence import detect_stall

        failed_violations = [
            r.worst_violation for r in history if not r.verified
        ]
        stall_idx = detect_stall(failed_violations, window=cfg.stall_window)
        stalled = stall_idx is not None
        stall_iteration: Optional[int] = None
        if stalled:
            failed_iters = [r.iteration for r in history if not r.verified]
            stall_iteration = failed_iters[stall_idx]
            tel.metrics.inc("cegis.stalls")
            tel.event(
                "cegis.stall",
                iteration=stall_iteration,
                window=cfg.stall_window,
            )

        if timed_out:
            outcome = "timeout"
        elif error_info is not None:
            outcome = "error"
        else:
            outcome = "verified" if success else "not_verified"
        return SNBCResult(
            success=success,
            barrier=barrier,
            lambda_poly=final_lambda if success else lam_poly,
            iterations=iterations_run,
            timings=timings,
            history=history,
            verification=verification,
            inclusion=self.inclusion,
            problem_name=self.problem.name,
            counterexamples=cex_records,
            stalled=stalled,
            stall_iteration=stall_iteration,
            outcome=outcome,
            error=error_info,
            timed_out=timed_out,
            resumed_from_iteration=resumed_from,
            soundness=soundness,
        )

    def _check_soundness(
        self, verification: VerificationResult
    ) -> Optional[SoundnessReport]:
        """Exact rational recheck of an accepted verification.  Returns
        ``None`` when the gate is off or no certificate was captured; the
        verdict (including ``ok == False``) is the caller's to act on.
        The recheck's wall-clock lands in the report, not in
        :class:`PhaseTimings` — it is not one of the paper's phases."""
        cfg = self.config
        if not cfg.soundness_check:
            return None
        tel = self.telemetry
        with tel.span("snbc.soundness", phase="soundness") as sp:
            report = check_verification(
                self.problem, verification, config=cfg.soundness_config
            )
            if report is None:
                sp.set_attr("skipped", "no certificate captured")
                return None
            sp.set_attrs(
                ok=report.ok,
                failed=report.failed_conditions(),
                barrier_hash=report.barrier_hash,
            )
        tel.metrics.inc("cegis.soundness_checks")
        if not report.ok:
            tel.metrics.inc("cegis.soundness_failures")
            tel.event(
                "cegis.soundness_rejection",
                failed=report.failed_conditions(),
                barrier_hash=report.barrier_hash,
            )
        return report

    # ------------------------------------------------------------------
    def _fit_with_recovery(
        self,
        learner: BarrierLearner,
        data: TrainingData,
        field_polys: Sequence[Polynomial],
        epochs: int,
        gain_fields: Sequence[Sequence[Polynomial]],
        active_sigma: Sequence[float],
        iteration: int,
    ):
        """Run ``learner.fit``; on :class:`LearnerDivergence` roll the
        learner back to its pre-``fit`` state (``fit`` raises before the
        poisoning step, so the rollback point is finite), append fresh
        random samples, and retry a bounded number of times."""
        tel = self.telemetry
        cfg = self.config
        pre_fit = learner.snapshot()
        attempt = 0
        while True:
            try:
                return learner.fit(
                    data,
                    field_polys,
                    epochs=epochs,
                    gain_fields=gain_fields,
                    sigma_star=active_sigma,
                )
            except LearnerDivergence as exc:
                attempt += 1
                tel.metrics.inc("cegis.learner_recoveries")
                tel.event(
                    "cegis.learner_divergence",
                    iteration=iteration,
                    attempt=attempt,
                    **exc.to_dict(),
                )
                if attempt > cfg.learner_recovery_attempts:
                    raise
                learner.restore(pre_fit)
                extra = TrainingData.sample(
                    self.problem, max(16, cfg.n_samples // 8), rng=self.rng
                )
                data.add_init(extra.s_init)
                data.add_unsafe(extra.s_unsafe)
                data.add_domain(extra.s_domain)

    def _apply_sdp_time_limit(self, budget: TimeBudget) -> None:
        """Cap each verification SDP at the remaining run budget so one
        slow solve cannot blow far past the deadline (the IPM checks the
        limit cooperatively, once per iteration)."""
        remaining = budget.remaining()
        if remaining is None:
            return
        self.verifier_config.sdp_options = dataclasses.replace(
            self.verifier_config.sdp_options,
            time_limit_s=max(0.001, remaining),
        )

    # ------------------------------------------------------------------
    def _write_checkpoint(
        self,
        path: str,
        iteration: int,
        learner: BarrierLearner,
        data: TrainingData,
        cex_records: List[CexRecord],
        history: List[IterationRecord],
        timings: PhaseTimings,
    ) -> None:
        payload = {
            "problem": self.problem.name,
            "seed": self.config.seed,
            "iteration": iteration,
            "learner": learner.snapshot(),
            "data": {
                "s_init": np.asarray(data.s_init, dtype=float).tolist(),
                "s_unsafe": np.asarray(data.s_unsafe, dtype=float).tolist(),
                "s_domain": np.asarray(data.s_domain, dtype=float).tolist(),
            },
            "cex_records": [c.to_dict() for c in cex_records],
            "history": [r.to_dict() for r in history],
            "timings": dataclasses.asdict(timings),
            "rng": {
                "sampling": rng_state(self.rng),
                "learner": rng_state(self._learner_rng),
                "cex": rng_state(self._cex_rng),
            },
        }
        save_checkpoint(path, payload)
        self.telemetry.metrics.inc("cegis.checkpoints")

    def _restore_checkpoint(
        self,
        path: str,
        learner: BarrierLearner,
        data: TrainingData,
        cex_records: List[CexRecord],
        history: List[IterationRecord],
        timings: PhaseTimings,
    ) -> int:
        """Load ``path`` into the freshly-constructed run state; returns
        the iteration the checkpoint was written after.  The caller's
        initial sampling/initialization draws are irrelevant — all three
        RNG streams are restored to their checkpointed states."""
        from repro.resilience import CheckpointError

        doc = load_checkpoint(path)
        if (
            doc.get("problem") != self.problem.name
            or doc.get("seed") != self.config.seed
        ):
            raise CheckpointError(
                f"checkpoint {path} is for problem "
                f"{doc.get('problem')!r} seed {doc.get('seed')!r}, not "
                f"{self.problem.name!r} seed {self.config.seed!r}",
                path=path,
            )
        learner.restore(doc["learner"])
        n = self.problem.n_vars
        d = doc["data"]
        data.s_init = np.asarray(d["s_init"], dtype=float).reshape(-1, n)
        data.s_unsafe = np.asarray(d["s_unsafe"], dtype=float).reshape(-1, n)
        data.s_domain = np.asarray(d["s_domain"], dtype=float).reshape(-1, n)
        cex_records.extend(CexRecord(**c) for c in doc["cex_records"])
        history.extend(
            IterationRecord(
                **{**r, "dataset_sizes": tuple(r["dataset_sizes"])}
            )
            for r in doc["history"]
        )
        for key, value in doc["timings"].items():
            setattr(timings, key, float(value))
        restore_rng(self.rng, doc["rng"]["sampling"])
        restore_rng(self._learner_rng, doc["rng"]["learner"])
        restore_rng(self._cex_rng, doc["rng"]["cex"])
        return int(doc["iteration"])

    def _finalize_lineage(
        self,
        records: List[CexRecord],
        cex_gen: CounterexampleGenerator,
        barrier: Optional[Polynomial],
        lam: Optional[Polynomial],
    ) -> None:
        """Re-evaluate every recorded counterexample's worst point against
        the final candidate: a violation value <= 0 means the point no
        longer breaks its condition (the sign is scale-invariant, so the
        verifier's normalization of ``B`` does not matter)."""
        if barrier is None or not records:
            return
        if lam is None:
            lam = Polynomial.zero(barrier.n_vars)
        fns: Dict[str, Any] = {}
        for rec in records:
            pair = fns.get(rec.condition)
            if pair is None:
                pair = cex_gen._violation_fn(rec.condition, barrier, lam)
                fns[rec.condition] = pair
            fn, _region = pair
            value = float(fn.value(np.asarray([rec.worst_point], dtype=float))[0])
            rec.final_violation = value
            rec.satisfied_by_final = bool(value <= 0.0)
