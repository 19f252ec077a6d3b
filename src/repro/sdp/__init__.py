"""Semidefinite programming from scratch.

A primal-dual interior-point solver for block-diagonal standard-form SDPs

    min  sum_k <C_k, X_k>
    s.t. sum_k <A_{i,k}, X_k> = b_i   (i = 1..m)
         X_k >= 0 (PSD),

implementing the HKM search direction with a Mehrotra predictor-corrector,
the same algorithm family as SDPA/CSDP that backs SOSTOOLS in the paper.
This is the engine behind every LMI feasibility test in
:mod:`repro.sos` and :mod:`repro.verifier`.
"""

from repro.sdp.svec import smat, smat_batch, svec, svec_dim
from repro.sdp.problem import SDPProblem
from repro.sdp.result import SDPResult, SDPStatus
from repro.sdp.trace import IPMTrace, classify_convergence
from repro.sdp.ipm import InteriorPointOptions, WarmStart, solve_sdp
from repro.sdp.lmi import LMIResult, solve_lmi

__all__ = [
    "SDPProblem",
    "SDPResult",
    "SDPStatus",
    "IPMTrace",
    "classify_convergence",
    "InteriorPointOptions",
    "WarmStart",
    "solve_sdp",
    "solve_lmi",
    "LMIResult",
    "svec",
    "smat",
    "smat_batch",
    "svec_dim",
]
