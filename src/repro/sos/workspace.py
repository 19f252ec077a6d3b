"""Cached SOS workspaces for repeated Putinar feasibility checks.

The verifier solves the same three sub-problem *shapes* every CEGIS
iteration: only the candidate ``B``'s coefficients change, while the
monomial bases, Gram block structure, multiplier degrees and the
constraint rows contributed by ``- sum_i sigma_i g_i`` plus the slack
block depend solely on (region, degrees).  A :class:`ConditionWorkspace`
builds that structural *template* once and per iteration only refreshes
the affine data: the right-hand side (from the known part of the
expression) and the free-variable columns (from ``- lambda * B``).

Result identity with the uncached :meth:`SOSProgram.compile` path is by
construction: the template rows are accumulated with the same float
operations in the same order the fresh compile would perform (the gram
dictionaries merge in identical insertion order), the varying data
lands in disjoint array slots (const -> rhs, free -> B-columns), and
the projection and SDP assembly mirror ``SOSProgram.compile`` line for
line.  The only shortcut is
skipping the multiply-by-identity projection when there are no free
variables, which is exact.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import null_space

from repro.poly import Polynomial
from repro.poly.monomials import Exponent, add_exponents, monomials_upto
from repro.sdp import SDPProblem
from repro.sdp.svec import svec_dim
from repro.sos.expr import LinCoeff, SOSExpr
from repro.sos.program import GramBlock, SOSProgram, _SQRT2


def lambda_expr(n_vars: int, degree: int) -> SOSExpr:
    """The free multiplier expression ``free_poly`` would declare.

    Free-variable ids are allocated ``0..k-1`` in ``monomials_upto``
    order in every :class:`SOSProgram`, so this expression is identical
    across program instances and can be shared by cached workspaces.
    """
    coeffs: Dict[Exponent, LinCoeff] = {}
    for fid, alpha in enumerate(monomials_upto(n_vars, degree)):
        coeffs[alpha] = LinCoeff(free={fid: 1.0})
    return SOSExpr(n_vars, coeffs)


class ConditionWorkspace:
    """Structural cache for one Putinar check ``expr - sum sigma_i g_i
    (- lambda B) - margin in SOS``.

    Parameters fix everything except the affine data: the region
    constraints, per-constraint multiplier degrees, and the free
    multiplier degree (``None`` for conditions without ``lambda``).
    """

    def __init__(
        self,
        n_vars: int,
        constraints: Sequence[Polynomial],
        multiplier_degrees: Sequence[int],
        lambda_degree: Optional[int],
    ):
        self.n_vars = int(n_vars)
        self.constraints = list(constraints)
        self.multiplier_degrees = tuple(int(d) for d in multiplier_degrees)
        self.lambda_degree = lambda_degree
        # declare the multipliers exactly as the fresh path would
        prog = SOSProgram(n_vars)
        self.multipliers: List[SOSExpr] = []
        template = SOSExpr.zero(n_vars)
        for g, deg in zip(self.constraints, self.multiplier_degrees):
            s = prog.sos_poly(deg, label="sigma")
            self.multipliers.append(s)
            template = template - s * g
        self.lam_expr: Optional[SOSExpr] = None
        if lambda_degree is not None:
            self.lam_expr = prog.free_poly(int(lambda_degree), label="lambda")
        self.program = prog
        self._mult_blocks = list(prog._blocks)
        self._template = template
        self.template_degree = template.degree
        self._slack_half: Optional[int] = None
        self.slack_block: Optional[GramBlock] = None
        # per-alpha structural rows, rebuilt when the slack degree changes
        self._rows: Dict[Exponent, np.ndarray] = {}
        self._block_sizes: List[int] = []
        self._offsets: Optional[np.ndarray] = None
        self._total_svec = 0

    # ------------------------------------------------------------------
    def matches(
        self,
        multiplier_degrees: Sequence[int],
        lambda_degree: Optional[int],
    ) -> bool:
        return (
            tuple(int(d) for d in multiplier_degrees) == self.multiplier_degrees
            and lambda_degree == self.lambda_degree
        )

    # ------------------------------------------------------------------
    def _ensure_slack(self, slack_half: int) -> None:
        """(Re)build the slack block and the structural template rows."""
        if self._slack_half == slack_half:
            return
        self._slack_half = slack_half
        basis = tuple(monomials_upto(self.n_vars, slack_half))
        slack = GramBlock(len(self._mult_blocks), basis, "slack0")
        self.slack_block = slack
        self.program._blocks = self._mult_blocks + [slack]
        block_sizes = [blk.size for blk in self.program._blocks]
        svec_dims = [svec_dim(s) for s in block_sizes]
        offsets = np.concatenate([[0], np.cumsum(svec_dims)])
        self._block_sizes = block_sizes
        self._offsets = offsets
        self._total_svec = int(offsets[-1])

        slack_pairs: Dict[Exponent, List[Tuple[int, int]]] = {}
        for i, bi in enumerate(basis):
            for j in range(i, len(basis)):
                slack_pairs.setdefault(add_exponents(bi, basis[j]), []).append(
                    (i, j)
                )
        svec_index = SOSProgram._svec_index
        rows: Dict[Exponent, np.ndarray] = {}
        for alpha in set(self._template.coeffs) | set(slack_pairs):
            row = np.zeros(self._total_svec)
            lc = self._template.coeffs.get(alpha)
            if lc is not None:
                # same accumulation the fresh compile performs for the
                # gram part of the combined expression
                for (bid, i, j), v in lc.gram.items():
                    size = block_sizes[bid]
                    idx = int(offsets[bid]) + svec_index(None, size, i, j)
                    row[idx] -= v if i == j else v / _SQRT2
            for (i, j) in slack_pairs.get(alpha, ()):
                size = block_sizes[slack.block_id]
                idx = int(offsets[slack.block_id]) + svec_index(None, size, i, j)
                weight = 1.0 if i == j else 2.0
                row[idx] += weight if i == j else weight / _SQRT2
            rows[alpha] = row
        self._rows = rows

    # ------------------------------------------------------------------
    def compile(
        self, varying: SOSExpr
    ) -> Tuple[SDPProblem, np.ndarray, np.ndarray, np.ndarray]:
        """Refresh the affine data for ``varying`` (the known polynomial
        part plus any ``- lambda * B`` free contribution) and build the
        SDP; same return contract as :meth:`SOSProgram.compile`.

        ``varying`` must carry no Gram entries — all Gram structure lives
        in the cached template.
        """
        slack_half = (max(self.template_degree, varying.degree) + 1) // 2
        self._ensure_slack(slack_half)
        n_free = self.program._n_free
        alphas = sorted(set(self._rows) | set(varying.coeffs))
        m = len(alphas)
        G = np.zeros((m, self._total_svec))
        Bf = np.zeros((m, n_free))
        r = np.zeros(m)
        for i, alpha in enumerate(alphas):
            row = self._rows.get(alpha)
            if row is not None:
                G[i] = row
            lc = varying.coeffs.get(alpha)
            if lc is not None:
                if lc.gram:
                    raise ValueError(
                        "varying expression must not carry Gram entries"
                    )
                r[i] = lc.const
                for fid, v in lc.free.items():
                    Bf[i, fid] -= v
        if n_free > 0 and Bf.size:
            N = null_space(Bf.T)
            G_proj = N.T @ G
            r_proj = N.T @ r
        else:
            # fresh compile multiplies by the identity here; skipping the
            # no-op matmul is exact
            G_proj, r_proj = G, r
        sdp = SDPProblem(self._block_sizes)
        sdp.set_trace_objective(1.0)
        # bulk add: same row data as the per-row add_constraint_svec loop
        # (bitwise-identical solves) and G_proj doubles as the problem's
        # stacked constraint-matrix memo, skipping re-concatenation
        sdp.add_constraints_from_matrix(G_proj, r_proj)
        return sdp, Bf, r, G
