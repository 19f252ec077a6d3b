"""Resilience layer: typed failures, deadlines, recovery, checkpoints.

Four cooperating pieces turn the SNBC pipeline's failure modes into
classified, recoverable, or gracefully-degraded outcomes:

* :mod:`repro.resilience.errors` — the :class:`ReproError` taxonomy
  every pipeline stage raises instead of bare exceptions;
* :mod:`repro.resilience.budget` — wall-clock :class:`TimeBudget`
  deadlines that convert overruns into the paper's OOT (``timeout``)
  outcome;
* :mod:`repro.resilience.recovery` — the SDP recovery ladder
  (:func:`solve_sdp_resilient`) retrying failed solves with sound,
  escalating strategies;
* :mod:`repro.resilience.checkpoint` — bit-exact CEGIS checkpoints for
  crash/interrupt resume.

:mod:`repro.resilience.faults` holds the fault-point core consulted by
instrumented pipeline code; the user-facing injection harness is
:mod:`repro.diagnostics.faultinject`.  See ``docs/robustness.md``.
"""

from repro.resilience.budget import TimeBudget
from repro.resilience.checkpoint import (
    CHECKPOINT_KIND,
    CHECKPOINT_SCHEMA_VERSION,
    load_checkpoint,
    restore_rng,
    rng_state,
    save_checkpoint,
)
from repro.resilience.errors import (
    BudgetExhausted,
    CheckpointError,
    InclusionError,
    LearnerDivergence,
    ReproError,
    SamplingError,
    SolverNumericalError,
    WorkerCrash,
)
from repro.resilience.recovery import (
    RETRYABLE_STATUSES,
    RecoveryPolicy,
    solve_sdp_resilient,
)
from repro.resilience.retry import (
    TERMINAL,
    TRANSIENT,
    TRANSIENT_KINDS,
    RetryPolicy,
)

__all__ = [
    "BudgetExhausted",
    "CHECKPOINT_KIND",
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointError",
    "InclusionError",
    "LearnerDivergence",
    "RETRYABLE_STATUSES",
    "RecoveryPolicy",
    "ReproError",
    "RetryPolicy",
    "SamplingError",
    "SolverNumericalError",
    "TERMINAL",
    "TRANSIENT",
    "TRANSIENT_KINDS",
    "TimeBudget",
    "WorkerCrash",
    "load_checkpoint",
    "restore_rng",
    "rng_state",
    "save_checkpoint",
    "solve_sdp_resilient",
]
