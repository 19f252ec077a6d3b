"""Shared retry policy: exponential backoff + deterministic jitter.

One :class:`RetryPolicy` answers the three questions every re-execution
site in the repo has to agree on:

1. **Is this failure worth retrying?**  Classification rides on the
   :class:`~repro.resilience.errors.ReproError` taxonomy: worker deaths
   (:class:`WorkerCrash`) and numerically-lost solves
   (:class:`SolverNumericalError`) are *transient* — a fresh process or
   a re-run can genuinely change the outcome — while deadline overruns
   (:class:`BudgetExhausted`) and anything unrecognized are *terminal*
   and fail fast (a deterministic pipeline re-raising the same
   ``ValueError`` three times is three times the cost for zero new
   information).
2. **How many times?**  ``max_attempts`` bounds total executions of one
   job (first try included).
3. **How long to wait?**  Exponential backoff
   (``base_delay_s * multiplier**(attempt-1)``, capped at
   ``max_delay_s``) with *deterministic* jitter: the jitter fraction is
   derived by hashing ``(token, attempt)``, so two runs of the same
   batch produce identical schedules (no hidden RNG) while distinct
   jobs still decorrelate — the usual thundering-herd fix without
   sacrificing reproducibility.

Classification works both on exception *instances* (:meth:`classify`)
and on serialized *kind strings* (:meth:`classify_kind`) because the
service supervisor judges failures that happened in another process and
arrive as ``ReproError.to_dict()`` payloads.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.resilience.errors import ReproError

#: failure kinds a re-execution can plausibly fix (fresh worker, jitter
#: in the recovery ladder's starting point, freed memory)
TRANSIENT_KINDS: Tuple[str, ...] = ("WorkerCrash", "SolverNumericalError")

#: classification labels
TRANSIENT = "transient"
TERMINAL = "terminal"


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff/classification policy shared by every re-execution site.

    Frozen so a policy can be hashed into manifests and passed across
    processes without aliasing surprises.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.1
    max_delay_s: float = 30.0
    multiplier: float = 2.0
    #: jitter amplitude as a fraction of the raw delay (0 disables);
    #: delay is scaled by a deterministic factor in ``1 ± jitter``
    jitter: float = 0.25

    # -- classification -------------------------------------------------
    def classify_kind(self, kind: Optional[str]) -> str:
        """``transient`` / ``terminal`` for a serialized error kind.

        Unknown kinds (including plain exception class names) are
        terminal: an unclassified failure is assumed deterministic.
        """
        if kind in TRANSIENT_KINDS:
            return TRANSIENT
        return TERMINAL

    def classify(self, error: BaseException) -> str:
        """Classification for an in-process exception instance."""
        if isinstance(error, ReproError):
            return self.classify_kind(error.kind)
        return self.classify_kind(type(error).__name__)

    # -- retry decisions ------------------------------------------------
    def should_retry_kind(self, kind: Optional[str], attempt: int) -> bool:
        """Whether execution number ``attempt`` (1-based) may be followed
        by another, given it failed with ``kind``."""
        return (
            self.classify_kind(kind) == TRANSIENT
            and attempt < self.max_attempts
        )

    def should_retry(self, error: BaseException, attempt: int) -> bool:
        if isinstance(error, ReproError):
            return self.should_retry_kind(error.kind, attempt)
        return self.should_retry_kind(type(error).__name__, attempt)

    def delay_s(self, attempt: int, token: str = "") -> float:
        """Backoff before the retry that follows attempt ``attempt``.

        Deterministic: the jitter factor hashes ``(token, attempt)``, so
        replaying a batch replays its exact schedule.  Pass the job key
        as ``token`` so sibling jobs decorrelate.
        """
        raw = self.base_delay_s * (self.multiplier ** max(0, attempt - 1))
        raw = min(self.max_delay_s, raw)
        if self.jitter <= 0.0 or raw <= 0.0:
            return raw
        digest = hashlib.sha256(
            f"{token}:{attempt}".encode("utf-8")
        ).digest()
        frac = int.from_bytes(digest[:8], "big") / float(2**64)  # [0, 1)
        return raw * (1.0 + self.jitter * (2.0 * frac - 1.0))
