"""Per-iteration IPM trace records and the convergence classifier.

The interior-point loop in :mod:`repro.sdp.ipm` performs dense Cholesky
factorizations and Schur assemblies every iteration, so recording a small
dict of scalars per iteration is noise-level overhead.  Records flow into
an :class:`IPMTrace` ring buffer (bounded memory even for runaway solves)
and, when telemetry is enabled, out through the trace sink as one
``sdp.ipm_trace`` event per solve.

Each record is a plain dict (JSON-ready) with the keys:

``iteration``
    1-based IPM iteration index.
``mu``
    Complementarity measure ``<X, Z> / n``.
``rel_gap`` / ``primal_residual`` / ``dual_residual``
    The normalized optimality measures the termination test uses.
``primal_objective`` / ``dual_objective``
    Objective values at the top of the iteration.
``step_primal`` / ``step_dual`` / ``sigma``
    Accepted step lengths and the Mehrotra centering parameter
    (``nan`` when the iteration broke before computing them).
``z_cholesky_ok`` / ``schur_cholesky_ok``
    Whether the Z-block and Schur-complement factorizations succeeded
    (a failed Schur Cholesky falls back to least-squares — the solve
    continues, but the flag marks the conditioning cliff).
``schur_diag_ratio``
    ``max|diag(M)| / min|diag(M)|`` of the Schur complement — a cheap
    conditioning proxy (the true condition number would cost an extra
    factorization per iteration).
``t``
    Seconds since the start of the iteration loop (wall-clock; excluded
    from determinism comparisons).
``t_residuals`` / ``t_z_factor`` / ``t_schur_assembly`` / ``t_schur_factor`` / ``t_direction`` / ``t_line_search``
    Wall-clock seconds spent in each solver sub-phase of the iteration
    (``nan`` when the iteration broke before reaching the phase; also
    excluded from determinism comparisons).  ``t_direction`` and
    ``t_line_search`` sum the predictor and corrector calls.  These feed
    the "IPM sub-phases" section of the telemetry report CLI, attributing
    time *inside* the solve instead of to ``ipm.solve`` as a whole.

:func:`classify_convergence` reduces a record sequence to one of
``healthy`` / ``stalling`` / ``diverging`` / ``ill_conditioned`` (or
``unknown`` when there is nothing to classify), mirroring the CEGIS-level
``detect_stall`` heuristic one layer down the stack.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Dict, List, Optional, Sequence

from repro.sdp.result import SDPStatus

#: default ring-buffer capacity; covers every non-pathological solve
#: (the IPM default ``max_iterations`` is 100, typical solves take < 40)
DEFAULT_TRACE_CAPACITY = 128

#: the closed vocabulary :func:`classify_convergence` emits
CONVERGENCE_CLASSES = (
    "healthy",
    "stalling",
    "diverging",
    "ill_conditioned",
    "unknown",
)

#: Schur diagonal ratio beyond which the system is treated as numerically
#: rank-deficient in double precision
ILL_CONDITIONED_DIAG_RATIO = 1e13

#: per-iteration geometric mu reduction slower than this counts as a stall
STALL_MU_DECAY = 0.85

#: both step lengths below this (over the trailing window) counts as a stall
STALL_STEP_FLOOR = 1e-2

#: mu growth factor over its running minimum that counts as divergence
DIVERGENCE_MU_GROWTH = 100.0


def make_record(
    iteration: int,
    mu: float,
    rel_gap: float,
    primal_residual: float,
    dual_residual: float,
    primal_objective: float,
    dual_objective: float,
    t: float,
) -> Dict[str, Any]:
    """A fresh iteration record with the late-stage fields defaulted.

    The IPM loop fills ``step_primal``/``step_dual``/``sigma`` and the
    factorization diagnostics as it reaches them; a record that still has
    the defaults broke out of the iteration early.
    """
    return {
        "iteration": int(iteration),
        "mu": float(mu),
        "rel_gap": float(rel_gap),
        "primal_residual": float(primal_residual),
        "dual_residual": float(dual_residual),
        "primal_objective": float(primal_objective),
        "dual_objective": float(dual_objective),
        "step_primal": float("nan"),
        "step_dual": float("nan"),
        "sigma": float("nan"),
        "z_cholesky_ok": True,
        "schur_cholesky_ok": True,
        "schur_diag_ratio": float("nan"),
        "t": float(t),
        "t_residuals": float("nan"),
        "t_z_factor": float("nan"),
        "t_schur_assembly": float("nan"),
        "t_schur_factor": float("nan"),
        "t_direction": float("nan"),
        "t_line_search": float("nan"),
    }


class IPMTrace:
    """Bounded ring buffer of iteration records.

    Keeps the most recent ``capacity`` records and counts how many were
    evicted, so the trailing window (what the classifier needs) is always
    intact while memory stays O(capacity) no matter how long the solve
    runs.
    """

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY) -> None:
        self.capacity = max(1, int(capacity))
        self._buf: deque = deque(maxlen=self.capacity)
        self.total = 0

    def add(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Append ``record`` (evicting the oldest when full); returns it."""
        self._buf.append(record)
        self.total += 1
        return record

    @property
    def dropped(self) -> int:
        """Records evicted by the ring bound."""
        return max(0, self.total - len(self._buf))

    def records(self) -> List[Dict[str, Any]]:
        return list(self._buf)

    def __len__(self) -> int:
        return len(self._buf)


def _finite(values: Sequence[float]) -> List[float]:
    return [float(v) for v in values if isinstance(v, (int, float)) and math.isfinite(v)]


def classify_convergence(
    records: Sequence[Dict[str, Any]],
    tolerance: float = 1e-8,
    status: Optional[SDPStatus] = None,
) -> str:
    """Classify an IPM iteration-record sequence; ``status`` is how the
    solve ended, when known.

    The rules are checked in severity order — the first match wins:

    1. ``unknown`` — no records (solve failed before the first iteration).
    2. ``diverging`` — the solve ended ``PRIMAL_INFEASIBLE``: its dual
       iterate runs along a Farkas ray, whatever ``mu`` did.
    3. ``ill_conditioned`` — a Z or Schur Cholesky failed, the Schur
       diagonal ratio exceeded :data:`ILL_CONDITIONED_DIAG_RATIO`, or the
       final ``mu`` is non-finite/negative.
    4. ``healthy`` — the final record meets ``tolerance`` on gap and both
       residuals (the solve converged; nothing else matters).
    5. ``diverging`` — ``mu`` grew by :data:`DIVERGENCE_MU_GROWTH` over
       its running minimum without returning (the iterates are moving
       away from the central path).
    6. ``stalling`` — the trailing steps collapsed below
       :data:`STALL_STEP_FLOOR`, or the geometric per-iteration ``mu``
       decay over the trailing window is slower than
       :data:`STALL_MU_DECAY` while the gap is still above tolerance.
    7. ``healthy`` — otherwise (still making progress).
    """
    if not records:
        return "unknown"
    if status is SDPStatus.PRIMAL_INFEASIBLE:
        return "diverging"
    last = records[-1]

    # -- rule 3: numerical breakdown ------------------------------------
    for rec in records:
        if not rec.get("z_cholesky_ok", True) or not rec.get("schur_cholesky_ok", True):
            return "ill_conditioned"
    ratios = _finite([r.get("schur_diag_ratio", float("nan")) for r in records])
    if ratios and max(ratios) > ILL_CONDITIONED_DIAG_RATIO:
        return "ill_conditioned"
    last_mu = float(last.get("mu", float("nan")))
    if not math.isfinite(last_mu) or last_mu < 0:
        return "ill_conditioned"

    # -- rule 4: converged ---------------------------------------------
    if (
        float(last.get("rel_gap", math.inf)) < tolerance
        and float(last.get("primal_residual", math.inf)) < tolerance
        and float(last.get("dual_residual", math.inf)) < tolerance
    ):
        return "healthy"

    mus = _finite([r.get("mu", float("nan")) for r in records])

    # -- rule 5: diverging ---------------------------------------------
    if len(mus) >= 3:
        running_min = min(mus[:-1])
        if running_min > 0 and mus[-1] > DIVERGENCE_MU_GROWTH * running_min:
            return "diverging"

    # -- rule 6: stalling ----------------------------------------------
    window = min(3, len(records))
    tail = records[-window:]
    tail_steps = [
        max(float(r.get("step_primal", float("nan"))), float(r.get("step_dual", float("nan"))))
        for r in tail
    ]
    tail_steps = _finite(tail_steps)
    if tail_steps and all(s < STALL_STEP_FLOOR for s in tail_steps):
        return "stalling"
    if len(mus) >= 4:
        k = min(5, len(mus) - 1)
        ref = mus[-1 - k]
        if ref > 0 and mus[-1] > 0:
            per_iteration_decay = (mus[-1] / ref) ** (1.0 / k)
            if per_iteration_decay > STALL_MU_DECAY:
                return "stalling"

    return "healthy"


def summarize_trace(
    trace: Optional[IPMTrace],
    tolerance: float = 1e-8,
) -> Dict[str, Any]:
    """JSON-ready summary payload for the ``sdp.ipm_trace`` event."""
    if trace is None:
        return {"n_records": 0, "dropped": 0, "records": [], "convergence": "unknown"}
    records = trace.records()
    return {
        "n_records": len(records),
        "dropped": trace.dropped,
        "records": records,
        "convergence": classify_convergence(records, tolerance=tolerance),
    }
