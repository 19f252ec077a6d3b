"""Fault-injection harness: deterministic failures at pipeline sites.

Arms :class:`~repro.resilience.faults.FaultSpec` plans against the
fault points instrumented throughout the pipeline, so tests (and the CI
fault-injection job) can assert that every failure class degrades per
policy — a classified outcome, never an unhandled traceback, and never
a fabricated ``verified``.

Instrumented sites
------------------

======================  =====================================================
site                    effect when fired
======================  =====================================================
``sdp.solve``           raises the armed exception inside ``solve_sdp`` (the
                        solver converts it to ``NUMERICAL_ERROR``)
``sdp.nonconvergence``  forces a ``MAX_ITERATIONS`` result without iterating
``sdp.ipm.mu``          corrupts the barrier parameter ``mu`` to NaN
``sdp.ipm.z_cholesky``  raises ``LinAlgError`` factoring the dual blocks
``sdp.ipm.direction``   corrupts the Newton direction to NaN
``sdp.ipm.step``        collapses both step lengths to zero (stall)
``learner.gradients``   overwrites every parameter gradient with NaN
``inclusion.lp``        raises inside the Chebyshev LP (wrapped into
                        ``InclusionError``)
``budget.deadline``     the next ``TimeBudget.check`` reports exhaustion
======================  =====================================================

Service sites (PR 9) — the certification service's chaos surface:

==============================  =============================================
site                            effect when fired
==============================  =============================================
``service.worker_kill_mid_job``  the pool worker hard-exits (``os._exit``,
                                 code 137) right after acknowledging a job —
                                 an OOM-kill mid-job; the supervisor must
                                 redeliver and respawn.  Fires *inside the
                                 worker process*: arm it through
                                 ``ServiceConfig.worker_faults``, not a
                                 parent-side ``inject`` block
``service.cache_corrupt_bundle`` the cache's deserialized bundle gets its
                                 first condition's claimed margin inflated —
                                 a self-consistent corruption only the exact
                                 recheck can reject (and must evict)
``service.journal_torn_write``   the next journal append writes only half
                                 its line and no newline — a crash mid-write
                                 that replay must skip, losing exactly one
                                 record
==============================  =============================================

Usage::

    from repro.diagnostics import faultinject as fi

    with fi.inject(fi.nan_gradients(times=100)) as plan:
        result = SNBC(problem, ...).run()
    assert plan.fired_sites()          # the fault actually triggered
    assert result.outcome != "verified"

Helpers below build the spec for each fault class; arbitrary
:class:`FaultSpec` instances compose with them in one ``inject`` call.
``at_call`` selects the k-th hit of the site (1-based) and ``times``
how many consecutive hits fire — enough to outlast retry ladders when a
*persistent* fault is being modeled.
"""

from __future__ import annotations

import numpy as np

from repro.resilience.faults import (
    FaultPlan,
    FaultSpec,
    active_plan,
    clear,
    fault_point,
    fired,
    inject,
)

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "active_plan",
    "cholesky_failure",
    "clear",
    "deadline_overrun",
    "fault_point",
    "fired",
    "inject",
    "lp_failure",
    "nan_gradients",
    "nan_mu",
    "nan_direction",
    "service_cache_corruption",
    "service_torn_journal_write",
    "service_worker_kill",
    "solver_exception",
    "solver_nonconvergence",
    "step_collapse",
]


def nan_gradients(at_call: int = 1, times: int = 1) -> FaultSpec:
    """Poison every parameter gradient with NaN after backward."""
    return FaultSpec("learner.gradients", at_call=at_call, times=times)


def cholesky_failure(at_call: int = 1, times: int = 1) -> FaultSpec:
    """``LinAlgError`` while factoring the dual blocks (Z loses PD)."""
    return FaultSpec(
        "sdp.ipm.z_cholesky",
        exception=lambda: np.linalg.LinAlgError("injected Cholesky failure"),
        at_call=at_call,
        times=times,
    )


def solver_exception(at_call: int = 1, times: int = 1) -> FaultSpec:
    """Raise ``LinAlgError`` at the top of ``solve_sdp``."""
    return FaultSpec(
        "sdp.solve",
        exception=lambda: np.linalg.LinAlgError("injected solver crash"),
        at_call=at_call,
        times=times,
    )


def solver_nonconvergence(at_call: int = 1, times: int = 1) -> FaultSpec:
    """Force a ``MAX_ITERATIONS`` outcome without iterating."""
    return FaultSpec("sdp.nonconvergence", at_call=at_call, times=times)


def nan_mu(at_call: int = 1, times: int = 1) -> FaultSpec:
    """Corrupt the IPM barrier parameter ``mu`` to NaN."""
    return FaultSpec("sdp.ipm.mu", at_call=at_call, times=times)


def nan_direction(at_call: int = 1, times: int = 1) -> FaultSpec:
    """Corrupt the IPM Newton direction to NaN."""
    return FaultSpec("sdp.ipm.direction", at_call=at_call, times=times)


def step_collapse(at_call: int = 1, times: int = 1) -> FaultSpec:
    """Collapse both IPM step lengths to zero (stall)."""
    return FaultSpec("sdp.ipm.step", at_call=at_call, times=times)


def lp_failure(at_call: int = 1, times: int = 1) -> FaultSpec:
    """Fail the polynomial-inclusion Chebyshev LP."""
    return FaultSpec(
        "inclusion.lp",
        exception=lambda: RuntimeError("injected Chebyshev LP failure"),
        at_call=at_call,
        times=times,
    )


def deadline_overrun(at_call: int = 1, times: int = 1) -> FaultSpec:
    """Force the next ``TimeBudget.check`` to report exhaustion."""
    return FaultSpec("budget.deadline", at_call=at_call, times=times)


def service_worker_kill(at_call: int = 1, times: int = 1) -> FaultSpec:
    """Hard-kill a service pool worker right after it takes a job.

    This site fires in the *worker* process, so hand the spec to the
    supervisor (``ServiceConfig.worker_faults`` takes the dict form,
    e.g. ``{"site": ..., "at_call": 2}``) rather than arming it in the
    parent with :func:`inject`.
    """
    return FaultSpec(
        "service.worker_kill_mid_job", at_call=at_call, times=times
    )


def service_cache_corruption(at_call: int = 1, times: int = 1) -> FaultSpec:
    """Corrupt the next cache read's deserialized certificate bundle
    (inflated margin claim) so only the exact recheck can reject it."""
    return FaultSpec(
        "service.cache_corrupt_bundle", at_call=at_call, times=times
    )


def service_torn_journal_write(at_call: int = 1, times: int = 1) -> FaultSpec:
    """Truncate the next journal append mid-line (crash during write)."""
    return FaultSpec(
        "service.journal_torn_write", at_call=at_call, times=times
    )
