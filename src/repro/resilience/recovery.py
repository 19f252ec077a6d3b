"""SDP recovery ladder: escalating retry strategies for failed solves.

Interior-point solves of SOS feasibility problems fail numerically in
well-understood ways (ill-scaled constraint rows, degenerate objectives,
bad initial iterates, tolerances tighter than the data supports).  When
:func:`repro.sdp.solve_sdp` ends in ``NUMERICAL_ERROR`` or
``MAX_ITERATIONS``, :func:`solve_sdp_resilient` walks a bounded ladder
of *sound* retry strategies:

``cold_restart`` (warm-started base solves only)
    Re-solve from the default cold initialization before anything else:
    a failed warm start (see :class:`repro.sdp.ipm.WarmStart`) most
    often just means the previous iterate was a bad starting point.
``rescale``
    Row-rescale every equality constraint (and its rhs) to unit norm.
    The feasible set is unchanged — only the Schur system conditioning.
``jitter``
    Add a tiny deterministic diagonal perturbation to the objective
    ``C`` to break degeneracy.  The feasible set is unchanged, so any
    feasible ``X`` found is still a valid certificate (and every
    verifier solution is a-posteriori validated anyway).
``restart``
    Re-solve from a much larger initial scaling (a warm-start reset for
    iterates that collapsed against the PSD boundary).
``relax``
    Loosen the termination tolerance by 1e3 and allow 50% more
    iterations.  Solutions still pass through the verifier's
    independent PSD/residual validation, which is what actually gates
    acceptance.

Definitive verdicts (``OPTIMAL`` or an infeasibility certificate) stop
the ladder.  Every attempt and success is telemetry-visible as
``sdp.recovery.<strategy>.attempts`` / ``.successes``, so a run report
shows exactly which strategies earned their keep.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.sdp.problem import SDPProblem
from repro.sdp.result import SDPResult, SDPStatus
from repro.telemetry import get_telemetry

if TYPE_CHECKING:  # runtime import is deferred; see solve_sdp_resilient
    from repro.sdp.ipm import InteriorPointOptions

#: statuses worth retrying — everything else is a definitive verdict
RETRYABLE_STATUSES = (SDPStatus.NUMERICAL_ERROR, SDPStatus.MAX_ITERATIONS)

#: statuses that stop the ladder once a retry produces them
_DEFINITIVE = (
    SDPStatus.OPTIMAL,
    SDPStatus.PRIMAL_INFEASIBLE,
    SDPStatus.DUAL_INFEASIBLE,
)


@dataclass(frozen=True)
class RecoveryPolicy:
    """Knobs for the ladder.  Picklable (travels into pool workers)."""

    enabled: bool = True
    strategies: Tuple[str, ...] = ("rescale", "jitter", "restart", "relax")
    max_attempts: int = 4
    #: objective perturbation magnitude for ``jitter`` (relative to the
    #: objective scale)
    jitter_eps: float = 1e-6
    #: init-scale multiplier for ``restart``
    restart_scale: float = 100.0
    #: tolerance multiplier for ``relax``
    relax_factor: float = 1e3


def _copy_problem(problem: SDPProblem) -> SDPProblem:
    out = SDPProblem(problem.block_dims)
    out.C = [c.copy() for c in problem.C]
    out._A_rows = [list(row) for row in problem._A_rows]
    out._b = list(problem._b)
    return out


def _rescale(problem: SDPProblem) -> SDPProblem:
    """Unit-norm constraint rows; identical feasible set."""
    out = _copy_problem(problem)
    for i, row in enumerate(out._A_rows):
        norm = float(np.sqrt(sum(float(v @ v) for v in row)))
        if norm > 0.0 and np.isfinite(norm):
            out._A_rows[i] = [v / norm for v in row]
            out._b[i] = out._b[i] / norm
    return out


def _jitter(problem: SDPProblem, eps: float) -> SDPProblem:
    """Deterministic diagonal objective perturbation; same feasible set."""
    out = _copy_problem(problem)
    scale = max(1.0, max(float(np.max(np.abs(c))) for c in out.C))
    for k, c in enumerate(out.C):
        n = c.shape[0]
        # graded diagonal (1..2) so the perturbation breaks symmetry too
        out.C[k] = c + eps * scale * np.diag(1.0 + np.arange(n) / max(1, n))
    return out


def _attempt(
    strategy: str,
    problem: SDPProblem,
    options: "InteriorPointOptions",
    policy: RecoveryPolicy,
) -> Tuple[SDPProblem, "InteriorPointOptions"]:
    """The (problem, options) pair a strategy actually solves."""
    if strategy == "rescale":
        return _rescale(problem), options
    if strategy == "jitter":
        return _jitter(problem, policy.jitter_eps), options
    if strategy == "restart":
        return problem, dataclasses.replace(
            options, init_scale=options.init_scale * policy.restart_scale
        )
    if strategy == "relax":
        return problem, dataclasses.replace(
            options,
            tolerance=options.tolerance * policy.relax_factor,
            max_iterations=int(options.max_iterations * 1.5),
        )
    raise ValueError(f"unknown recovery strategy {strategy!r}")


def solve_sdp_resilient(
    problem: SDPProblem,
    options: Optional["InteriorPointOptions"] = None,
    policy: Optional[RecoveryPolicy] = None,
    warm_start=None,
) -> SDPResult:
    """Solve with the recovery ladder on top of :func:`solve_sdp`.

    The base solve runs unchanged; the ladder only engages when its
    status is retryable, so on healthy instances this is bit-identical
    to a plain :func:`solve_sdp` call.  The returned result's
    ``message`` records which strategy (if any) recovered the solve.

    ``warm_start`` (an optional :class:`repro.sdp.ipm.WarmStart`) is
    applied to the base solve only.  A warm-started solve that fails
    retryably first gets one plain *cold* re-solve (rung
    ``cold_restart``) before any problem-mutating strategy runs — the
    warm point itself is the most likely culprit, and a cold solve is
    exactly what the caller would have run without warm starting.
    """
    # deferred to call time: repro.sdp.ipm itself imports
    # repro.resilience.faults, and a module-level import here turned
    # that mutual dependency into an entry-order-sensitive cycle
    from repro.sdp.ipm import InteriorPointOptions, solve_sdp

    policy = policy or RecoveryPolicy()
    options = options or InteriorPointOptions()
    base = solve_sdp(problem, options, rung="base", warm_start=warm_start)
    if not policy.enabled or base.status not in RETRYABLE_STATUSES:
        return base

    tel = get_telemetry()
    tel.metrics.inc("sdp.recovery.engaged")
    if base.warm_started:
        # warm-start fallback rung: retry cold before mutating anything
        tel.metrics.inc("sdp.recovery.cold_restart.attempts")
        retry = solve_sdp(problem, options, rung="cold_restart")
        if retry.status in _DEFINITIVE:
            tel.metrics.inc("sdp.recovery.cold_restart.successes")
            retry.message = (
                f"{retry.message} (recovered via cold_restart after "
                f"{base.status.value})"
            ).strip()
            return retry
        base = retry
        if base.status not in RETRYABLE_STATUSES:
            return base
    best = base
    for strategy in policy.strategies[: max(0, policy.max_attempts)]:
        tel.metrics.inc(f"sdp.recovery.{strategy}.attempts")
        try:
            mod_problem, mod_options = _attempt(
                strategy, problem, options, policy
            )
            retry = solve_sdp(mod_problem, mod_options, rung=strategy)
        except ValueError:
            raise
        except Exception:  # a strategy must never make things worse
            tel.metrics.inc(f"sdp.recovery.{strategy}.errors")
            continue
        if retry.status in _DEFINITIVE:
            tel.metrics.inc(f"sdp.recovery.{strategy}.successes")
            retry.message = (
                f"{retry.message} (recovered via {strategy} after "
                f"{base.status.value})"
            ).strip()
            return retry
        best = retry  # keep the most recent partial progress for reporting
    tel.metrics.inc("sdp.recovery.exhausted")
    best.message = (
        f"{best.message} (recovery ladder exhausted: "
        f"{', '.join(policy.strategies[: policy.max_attempts])})"
    ).strip()
    return best


def solve_sdp_batch_resilient(
    problems,
    options: Optional["InteriorPointOptions"] = None,
    policy: Optional[RecoveryPolicy] = None,
    warm_starts=None,
) -> list:
    """:func:`solve_sdp_resilient` on each problem in turn;
    ``warm_starts`` holds one optional point per problem."""
    if warm_starts is None:
        warm_starts = [None] * len(problems)
    return [
        solve_sdp_resilient(problem, options, policy, warm_start=warm)
        for problem, warm in zip(problems, warm_starts)
    ]
