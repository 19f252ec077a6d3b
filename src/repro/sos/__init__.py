"""Sum-of-squares programming on top of :mod:`repro.sdp`.

This layer compiles Putinar-style SOS feasibility problems — the LMI
sub-problems (13)-(15) of the paper — into block-diagonal SDPs:

* :class:`~repro.sos.expr.SOSExpr` — polynomials whose coefficients are
  affine in scalar decision variables and Gram-matrix entries (products of
  two unknowns are rejected, which is exactly the BMI non-convexity the
  paper's candidate-then-check scheme avoids);
* :class:`~repro.sos.program.SOSProgram` — declares SOS / free polynomial
  variables, accumulates ``expr in Sigma[x]`` constraints, eliminates free
  scalars by sparse pivoting (:func:`~repro.sos.program.eliminate_free`)
  and calls the interior-point solver;
* :mod:`~repro.sos.validate` — a-posteriori numerical validation of the
  returned Gram matrices (eigenvalue margin + coefficient residual bound).
"""

from repro.sos.expr import SOSExpr
from repro.sos.program import SOSProgram, SOSSolution
from repro.sos.validate import ValidationReport, validate_sos_identity
from repro.sos.bounds import sos_lower_bound, sos_range, sos_upper_bound

__all__ = [
    "SOSExpr",
    "SOSProgram",
    "SOSSolution",
    "ValidationReport",
    "validate_sos_identity",
    "sos_lower_bound",
    "sos_upper_bound",
    "sos_range",
]
