"""Exact-arithmetic recheck of SOS barrier certificates (Peyrl–Parrilo
style rational rounding).

The interior-point solver proves the Putinar identities (13)-(15) only
in floating point.  This checker re-proves each one **over ℚ**, from the
captured :class:`~repro.soundness.certificate.CertificateBundle`:

1. the target polynomial is *recomputed exactly* (``B`` for (13), ``-B``
   for (14), the exact Lie derivative along the rational closed loop at
   the inclusion-error endpoint for (15)) — independent of the float
   pipeline that produced the certificate;
2. each multiplier Gram matrix is embedded into ℚ, shifted by the
   smallest dyadic ``delta_i`` that makes it *exactly* PSD
   (:func:`~repro.soundness.rational.find_psd_shift`); the shifted
   ``sigma_i`` is exactly SOS by construction;
3. the coefficient residual between the exact target and the embedded
   slack Gram polynomial is absorbed into the slack Gram entries, spread
   over every basis pair producing each monomial — after absorption the
   identity holds **exactly** (coefficient equality over ℚ, re-verified
   symbolically);
4. the absorbed slack Gram is certified PSD exactly
   (:func:`~repro.soundness.rational.find_psd_shift`), after a diagonal
   shift ``delta_s`` when needed.  A shift is not free:
   ``m^T (Q + delta I) m <= m^T Q m + delta * S`` with ``S`` the exact
   box bound on ``sum_k m_k^2``, so ``delta_s * S`` is charged against
   the strictness margin.  The condition is sound iff the *certified
   margin* ``margin - delta_s * S`` stays positive (nonnegative for the
   non-strict condition (13)).

The result is a machine-checkable :class:`SoundnessReport`;
:meth:`repro.cegis.SNBC.run` refuses to report success when it fails,
surfacing a :class:`SoundnessError` instead.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.resilience.errors import ReproError
from repro.soundness.certificate import (
    CertificateBundle,
    ConditionCertificate,
)
from repro.soundness.rational import (
    DEFAULT_DELTA_LADDER,
    RationalMatrix,
    RationalPolynomial,
    basis_square_bound,
    find_psd_shift,
    gram_polynomial,
    rational_closed_loop,
    rational_lie_derivative,
    rationalize_matrix,
    shift_diagonal,
)

SOUNDNESS_SCHEMA_VERSION = 1

#: paper numbering of the condition families (matches the verifier)
PAPER_CONDITION_NUMBERS = {"init": 13, "unsafe": 14, "lie": 15}


class SoundnessError(ReproError):
    """The exact rational recheck rejected a float-verified certificate."""

    default_phase = "soundness"


#: Gram entries are quantized via ``Fraction.limit_denominator`` to this
#: bound before absorption.  This bounds the multiplier Grams' entries;
#: the absorbed slack Gram carries wide residual shares either way.
#: Quantization error is absorbed into the slack residual, so the final
#: identity stays exact.  Diagonal shifts restoring exact PSD-ness are
#: tried from ``DEFAULT_DELTA_LADDER`` (smallest first), each charged
#: against the margin.
MAX_DENOMINATOR = 2 ** 40


@dataclass
class ConditionSoundness:
    """Exact-recheck verdict for one condition (13)/(14)/(15)."""

    name: str
    base: str
    paper_condition: Optional[int]
    ok: bool
    #: the Putinar identity holds with coefficient equality over ℚ
    identity_ok: bool
    #: the absorbed slack Gram is exactly PSD (possibly after a shift)
    psd_ok: bool
    margin: float
    #: diagonal shift applied to the slack Gram (0.0 when none needed)
    slack_shift: float
    #: exact box bound S on sum_k m_k(x)^2 for the slack basis
    basis_bound: float
    #: margin - slack_shift * basis_bound, the exactly-certified margin
    certified_margin: float
    #: the same margin as an exact fraction string (machine-checkable)
    certified_margin_exact: str
    multiplier_shifts: List[float] = field(default_factory=list)
    absorbed_terms: int = 0
    max_absorption: float = 0.0
    slack_size: int = 0
    message: str = ""
    elapsed_seconds: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ConditionSoundness":
        return cls(**doc)


@dataclass
class SoundnessReport:
    """Machine-checkable outcome of the exact recheck of one candidate.

    ``barrier_hash`` pins the exact float coefficients of the certified
    (normalized) polynomial, so two reports for the same candidate are
    bit-comparable across runs/resumes.
    """

    ok: bool
    conditions: List[ConditionSoundness]
    barrier_scale: float
    barrier_hash: str
    n_vars: int
    max_denominator: Optional[int]
    elapsed_seconds: float
    schema_version: int = SOUNDNESS_SCHEMA_VERSION

    def failed_conditions(self) -> List[str]:
        return [c.name for c in self.conditions if not c.ok]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "ok": self.ok,
            "conditions": [c.to_dict() for c in self.conditions],
            "barrier_scale": self.barrier_scale,
            "barrier_hash": self.barrier_hash,
            "n_vars": self.n_vars,
            "max_denominator": self.max_denominator,
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "SoundnessReport":
        return cls(
            ok=bool(doc["ok"]),
            conditions=[
                ConditionSoundness.from_dict(c) for c in doc["conditions"]
            ],
            barrier_scale=float(doc["barrier_scale"]),
            barrier_hash=str(doc["barrier_hash"]),
            n_vars=int(doc["n_vars"]),
            max_denominator=doc.get("max_denominator"),
            elapsed_seconds=float(doc["elapsed_seconds"]),
            schema_version=int(
                doc.get("schema_version", SOUNDNESS_SCHEMA_VERSION)
            ),
        )

    def summary(self) -> Dict[str, Any]:
        """Small additive payload for BENCH rows."""
        margins = [c.certified_margin for c in self.conditions]
        return {
            "ok": self.ok,
            "conditions": len(self.conditions),
            "min_certified_margin": min(margins) if margins else None,
            "max_slack_shift": max(
                (c.slack_shift for c in self.conditions), default=0.0
            ),
        }


def barrier_fingerprint(p) -> str:
    """Bit-exact fingerprint of a float polynomial's coefficients."""
    items = sorted(
        (tuple(alpha), float(c).hex()) for alpha, c in p.coeffs.items()
    )
    blob = repr((p.n_vars, items)).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# ----------------------------------------------------------------------
def _slack_pairs(
    basis: Sequence[Tuple[int, ...]],
) -> Dict[Tuple[int, ...], List[Tuple[int, int]]]:
    """Monomial -> every (i <= j) basis pair producing it."""
    from repro.poly.monomials import add_exponents

    pairs: Dict[Tuple[int, ...], List[Tuple[int, int]]] = {}
    for i, bi in enumerate(basis):
        for j in range(i, len(basis)):
            pairs.setdefault(add_exponents(bi, basis[j]), []).append((i, j))
    return pairs


def _absorb_residual(
    Q: RationalMatrix,
    basis: Sequence[Tuple[int, ...]],
    residual: RationalPolynomial,
) -> Tuple[int, Fraction, Optional[str]]:
    """Fold ``residual`` into the Gram entries of ``Q`` *exactly*.

    Each residual monomial is spread uniformly over every basis pair
    that produces it (diagonal pairs contribute their entry once,
    off-diagonal pairs twice), which keeps the per-entry perturbation —
    and hence the PSD shift the perturbed matrix needs — minimal.
    Returns ``(n_absorbed, max |absorbed coefficient|, error)``;
    ``error`` is a message when some monomial lies outside the slack
    basis product support (the identity is then unfixable).
    """
    pairs = _slack_pairs(basis)
    n_absorbed = 0
    max_abs = Fraction(0)
    for alpha, r in residual.coeffs.items():
        plist = pairs.get(alpha)
        if not plist:
            return (
                n_absorbed,
                max_abs,
                f"residual monomial {alpha} (coefficient {float(r):.3e}) "
                "outside the slack basis product support",
            )
        weight = sum(1 if i == j else 2 for i, j in plist)
        share = r / weight
        for i, j in plist:
            Q[i][j] = Q[i][j] + share
            if i != j:
                Q[j][i] = Q[j][i] + share
        n_absorbed += 1
        if abs(r) > max_abs:
            max_abs = abs(r)
    return n_absorbed, max_abs, None


def _check_condition(
    cert: ConditionCertificate,
    target: RationalPolynomial,
    rat_barrier: RationalPolynomial,
) -> ConditionSoundness:
    """Run steps 2-4 of the module docstring for one condition."""
    t0 = time.perf_counter()
    n_vars = target.n_vars
    margin = Fraction(float(cert.margin))
    base = cert.base
    paper = PAPER_CONDITION_NUMBERS.get(base)
    fail_kwargs = dict(
        name=cert.name,
        base=base,
        paper_condition=paper,
        margin=float(cert.margin),
        slack_size=len(cert.slack_basis),
    )

    def fail(message: str, **kw) -> ConditionSoundness:
        out = ConditionSoundness(
            ok=False,
            identity_ok=bool(kw.pop("identity_ok", False)),
            psd_ok=bool(kw.pop("psd_ok", False)),
            slack_shift=float(kw.pop("slack_shift", 0.0)),
            basis_bound=float(kw.pop("basis_bound", 0.0)),
            certified_margin=float(kw.pop("certified_margin", 0.0)),
            certified_margin_exact=str(kw.pop("certified_margin_exact", "0")),
            message=message,
            elapsed_seconds=time.perf_counter() - t0,
            **fail_kwargs,
            **kw,
        )
        return out

    # exact Putinar left-hand side: t = target - margin - sum sigma_i g_i
    # [- lambda * B]; sigma_i comes from the PSD-shifted rational Gram so
    # it is exactly SOS by construction
    t = target - margin
    consumed: List[Tuple[RationalPolynomial, RationalPolynomial]] = []
    multiplier_shifts: List[float] = []
    for mc in cert.multipliers:
        Qm = rationalize_matrix(mc.gram, MAX_DENOMINATOR)
        delta_m = find_psd_shift(Qm, DEFAULT_DELTA_LADDER)
        if delta_m is None:
            return fail(
                f"multiplier Gram for constraint {mc.constraint} cannot be "
                "made PSD within the shift ladder",
                multiplier_shifts=multiplier_shifts,
            )
        if delta_m:
            Qm = shift_diagonal(Qm, delta_m)
        multiplier_shifts.append(float(delta_m))
        sigma = gram_polynomial(mc.basis, Qm, n_vars)
        g = RationalPolynomial.from_polynomial(mc.constraint)
        consumed.append((sigma, g))
        t = t - sigma * g
    lam: Optional[RationalPolynomial] = None
    if cert.lambda_poly is not None:
        lam = RationalPolynomial.from_polynomial(cert.lambda_poly)
        t = t - lam * rat_barrier

    # embed the slack Gram and absorb the coefficient residual exactly
    Qs = rationalize_matrix(cert.slack_gram, MAX_DENOMINATOR)
    realized = gram_polynomial(cert.slack_basis, Qs, n_vars)
    residual = t - realized
    n_absorbed, max_abs, absorb_err = _absorb_residual(
        Qs, cert.slack_basis, residual
    )
    if absorb_err is not None:
        return fail(absorb_err, multiplier_shifts=multiplier_shifts)

    # symbolic re-verification of the full identity over ℚ: the absorbed
    # slack Gram polynomial plus margin, multiplier and lambda terms must
    # equal the independently recomputed target coefficient-for-coefficient
    lhs = gram_polynomial(cert.slack_basis, Qs, n_vars) + margin
    for sigma, g in consumed:
        lhs = lhs + sigma * g
    if lam is not None:
        lhs = lhs + lam * rat_barrier
    identity_ok = lhs == target
    if not identity_ok:  # absorption covers every monomial, so this
        # can only mean a bookkeeping bug — never accept
        return fail(
            "Putinar identity does not hold over ℚ after absorption",
            multiplier_shifts=multiplier_shifts,
            absorbed_terms=n_absorbed,
            max_absorption=float(max_abs),
        )

    # exact PSD certification of the absorbed slack Gram
    delta_s = find_psd_shift(Qs, DEFAULT_DELTA_LADDER)
    if delta_s is None:
        return fail(
            "slack Gram is not PSD within the shift ladder "
            f"(max absorbed coefficient {float(max_abs):.3e})",
            identity_ok=True,
            multiplier_shifts=multiplier_shifts,
            absorbed_terms=n_absorbed,
            max_absorption=float(max_abs),
        )

    # charge the shift against the strictness margin through the exact
    # basis bound: on the region's box, m^T Qs m >= -delta_s * S, so the
    # certified margin is margin - delta_s * S
    S = basis_square_bound(cert.slack_basis, cert.box_lo, cert.box_hi)
    certified = margin - delta_s * S
    # (13) is non-strict (B >= 0 on Theta): certified margin 0 is sound;
    # (14)/(15) are strict, so the certified margin must stay positive
    strict = base != "init"
    margin_ok = certified > 0 if strict else certified >= 0
    elapsed = time.perf_counter() - t0
    message = ""
    if not margin_ok:
        message = (
            f"certified margin {float(certified):.3e} "
            f"(= {float(cert.margin):.3e} - {float(delta_s):.3e} * "
            f"{float(S):.3e}) is not "
            + ("positive" if strict else "nonnegative")
        )
    return ConditionSoundness(
        ok=bool(margin_ok),
        identity_ok=True,
        psd_ok=True,
        slack_shift=float(delta_s),
        basis_bound=float(S),
        certified_margin=float(certified),
        certified_margin_exact=str(certified),
        multiplier_shifts=multiplier_shifts,
        absorbed_terms=n_absorbed,
        max_absorption=float(max_abs),
        message=message,
        elapsed_seconds=elapsed,
        **fail_kwargs,
    )


def check_certificate(problem, bundle: CertificateBundle) -> SoundnessReport:
    """Exact recheck of every condition in a captured certificate bundle.

    ``problem`` is the CCDS the certificate was produced for (duck-typed
    — only ``problem.system`` is used, to recompute the closed loop over
    ℚ).  Pure function: no telemetry, no float tolerance anywhere past
    the lossless ``Fraction(float)`` embeddings.
    """
    t0 = time.perf_counter()
    rat_barrier = RationalPolynomial.from_polynomial(bundle.barrier)
    conditions: List[ConditionSoundness] = []
    for cert in bundle.conditions:
        if cert.base == "init":
            target = rat_barrier
        elif cert.base == "unsafe":
            target = -rat_barrier
        elif cert.base == "lie":
            rat_field = rational_closed_loop(
                problem.system, bundle.controller_polys, cert.endpoint
            )
            target = rational_lie_derivative(rat_barrier, rat_field)
        else:
            raise ValueError(f"unknown condition base {cert.base!r}")
        conditions.append(
            _check_condition(cert, target, rat_barrier)
        )
    return SoundnessReport(
        ok=all(c.ok for c in conditions) and bool(conditions),
        conditions=conditions,
        barrier_scale=float(bundle.barrier_scale),
        barrier_hash=barrier_fingerprint(bundle.barrier),
        n_vars=int(bundle.barrier.n_vars),
        max_denominator=MAX_DENOMINATOR,
        elapsed_seconds=time.perf_counter() - t0,
    )


def check_verification(problem, verification) -> Optional[SoundnessReport]:
    """Convenience wrapper: recheck a :class:`VerificationResult` that
    carries a certificate bundle; ``None`` when it carries none (the
    verification failed)."""
    bundle = getattr(verification, "certificate", None)
    if bundle is None:
        return None
    return check_certificate(problem, bundle)
