"""The exact-arithmetic soundness gate: rational polynomial core, exact
LDL^T, certificate rechecking over Q, the SNBC success gate, and the
checkpoint-resume bit-identity of the resulting SoundnessReport."""

import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

from repro.cegis import SNBC, SNBCConfig
from repro.dynamics import CCDS, ControlAffineSystem
from repro.learner import LearnerConfig
from repro.poly import Polynomial
from repro.poly.monomials import monomials_upto
from repro.sets import Box
from repro.soundness import (
    DEFAULT_DELTA_LADDER,
    RationalPolynomial,
    SoundnessError,
    SoundnessReport,
    barrier_fingerprint,
    basis_square_bound,
    check_verification,
    find_psd_shift,
    gram_polynomial,
    ldlt_psd,
    rational_closed_loop,
    rational_lie_derivative,
    rationalize_matrix,
)
from repro.soundness import rational
from repro.soundness.fuzz import WIDEN
from repro.soundness.rational import ldlt_psd_shift, shift_diagonal
from repro.verifier import SOSVerifier


def decay_problem():
    x, y = Polynomial.variables(2)
    system = ControlAffineSystem.autonomous([-1.0 * x, -1.0 * y])
    return CCDS(
        system,
        theta=Box.cube(2, -0.3, 0.3, name="theta"),
        psi=Box.cube(2, -2.0, 2.0, name="psi"),
        xi=Box.cube(2, 1.5, 2.0, name="xi"),
        name="decay",
    )


def decay_barrier():
    x, y = Polynomial.variables(2)
    return Polynomial.constant(2, 1.0) - 0.5 * (x * x + y * y)


def verified_bundle(problem=None, B=None):
    problem = problem or decay_problem()
    verifier = SOSVerifier(problem, [])
    verification = verifier.verify(B or decay_barrier())
    assert verification.ok
    assert verification.certificate is not None
    return problem, verification


# ----------------------------------------------------------------------
# rational polynomial core
# ----------------------------------------------------------------------
def test_rational_round_trip_is_lossless_for_floats():
    x, y = Polynomial.variables(2)
    p = 0.1 * x * x - 3.7 * x * y + 1e-9 * y
    r = RationalPolynomial.from_polynomial(p)
    back = r.to_polynomial()
    # every IEEE double is a dyadic rational: the round trip is exact
    assert back.coeffs == p.coeffs


def test_rational_arithmetic_matches_float_eval():
    x, y = Polynomial.variables(2)
    p = 1.25 * x * x - 0.5 * y + 2.0
    q = 0.75 * x * y + 1.5
    rp, rq = (RationalPolynomial.from_polynomial(v) for v in (p, q))
    pts = np.random.default_rng(0).uniform(-1, 1, size=(32, 2))
    for rational, flt in (
        (rp + rq, p + q),
        (rp - rq, p - q),
        (rp * rq, p * q),
        (rp.diff(0), p.diff(0)),
    ):
        assert np.allclose(rational.to_polynomial()(pts), flt(pts))


def test_rational_quantization_bounds_denominators():
    x, = Polynomial.variables(1)
    p = (1.0 / 3.0) * x  # float 1/3 has a 2^52-scale denominator
    r = RationalPolynomial.from_polynomial(p, max_denominator=2**20)
    for c in r.coeffs.values():
        assert c.denominator <= 2**20


def test_rational_lie_derivative_matches_float():
    from repro.poly import lie_derivative

    x, y = Polynomial.variables(2)
    B = 1.0 - 0.5 * (x * x + y * y)
    field = [-1.0 * x + 0.25 * y * y, -1.0 * y]
    rB = RationalPolynomial.from_polynomial(B)
    rfield = [RationalPolynomial.from_polynomial(f) for f in field]
    got = rational_lie_derivative(rB, rfield).to_polynomial()
    want = lie_derivative(B, field)
    pts = np.random.default_rng(1).uniform(-2, 2, size=(32, 2))
    assert np.allclose(got(pts), want(pts))


def test_rational_closed_loop_injects_endpoint():
    x, y = Polynomial.variables(2)
    system = ControlAffineSystem.single_input(
        [-1.0 * x, Polynomial.zero(2)], [0.0, 1.0]
    )
    h = [0.5 * x]
    field = rational_closed_loop(system, h, error=[0.25])
    # row 1: f0 + G * (h + w) = 0 + 1 * (0.5 x + 0.25)
    f1 = field[1].to_polynomial()
    pts = np.array([[1.0, 0.0], [-2.0, 3.0]])
    assert np.allclose(f1(pts), 0.5 * pts[:, 0] + 0.25)


# ----------------------------------------------------------------------
# exact PSD testing
# ----------------------------------------------------------------------
def test_ldlt_accepts_psd_and_rejects_indefinite():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(4, 4))
    psd = rationalize_matrix(A @ A.T, None)
    assert ldlt_psd(psd)
    indef = rationalize_matrix(A @ A.T - 10.0 * np.eye(4), None)
    assert not ldlt_psd(indef)


def test_ldlt_zero_and_semidefinite_edges():
    assert ldlt_psd([[Fraction(0)]])
    # rank-1 PSD with an exact zero pivot left over
    one = Fraction(1)
    assert ldlt_psd([[one, one], [one, one]])
    # zero pivot but nonzero off-diagonal -> not PSD
    assert not ldlt_psd([[Fraction(0), one], [one, Fraction(0)]])


def test_find_psd_shift_zero_for_strictly_pd():
    Q = rationalize_matrix(2.0 * np.eye(3), None)
    assert find_psd_shift(Q, DEFAULT_DELTA_LADDER) == Fraction(0)


def test_find_psd_shift_picks_small_rung_for_tiny_negativity():
    Q = rationalize_matrix(np.eye(2) * 1e-14 - np.eye(2) * 2e-14, None)
    shift = find_psd_shift(Q, DEFAULT_DELTA_LADDER)
    assert shift is not None and Fraction(0) < shift <= Fraction(1, 2**30)


def test_find_psd_shift_gives_up_on_strong_indefiniteness():
    Q = rationalize_matrix(-np.eye(2), None)
    assert find_psd_shift(Q, DEFAULT_DELTA_LADDER) is None


# ----------------------------------------------------------------------
# exact PSD witnesses: find_psd_shift vs the LDL^T-only ladder
# ----------------------------------------------------------------------
def _widened(Q):
    """``Q`` scaled by ``WIDEN``: as PSD as before, wider than the grid,
    so find_psd_shift decides it by witnesses."""
    return [[q * WIDEN for q in row] for row in Q]


def _wide_gram(seed, n=21):
    """A PD Gram perturbed symmetrically by shares with a 400-bit
    denominator, the shape residual absorption leaves in a slack Gram."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    Q = rationalize_matrix(A @ A.T / n + 0.1 * np.eye(n), None)
    draw = random.Random(seed)
    den = draw.getrandbits(400) | (1 << 399) | 1
    for _ in range(30):
        i, j = draw.randrange(n), draw.randrange(n)
        share = Fraction(draw.randrange(-den, den), den << 20)
        Q[i][j] += share
        if i != j:
            Q[j][i] += share
    return Q


def _below_psd(Q, excess):
    """``Q`` shifted so its smallest eigenvalue is about ``-excess``."""
    lam = np.linalg.eigvalsh(np.array(Q, dtype=float))[0]
    return shift_diagonal(Q, -(Fraction(float(lam)) + excess))


def _pd():
    A = np.random.default_rng(4).normal(size=(6, 6))
    Q = rationalize_matrix(A @ A.T + np.eye(6), None)
    return _widened(Q), Fraction(0)


def _rank_deficient():
    # exact B B^T with rank 2 and a zero row: LDL^T ends on zero pivots
    B = [[Fraction(v) for v in row]
         for row in ([1, 2], [3, -1], [0, 0], [2, 5], [-4, 1])]
    Q = [[sum(a * b for a, b in zip(ri, rj)) for rj in B] for ri in B]
    return _widened(Q), Fraction(0)


def _tiny_negativity():
    Q, _ = _pd()
    return _below_psd(Q, Fraction(1, 2**38)), Fraction(1, 2**36)


def _grid_rounding_edge():
    # 2**62 Q rounds to a singular PSD integer matrix, but Q itself is
    # indefinite: the witness must charge the rounding error
    one = Fraction(1)
    Q = [[one, one], [one, one - Fraction(1, 2**70)]]
    return _widened(Q), Fraction(1, 2**60)


def _strongly_indefinite():
    Q = rationalize_matrix([[1.0, 0.5, 0.0], [0.5, -1.0, 0.2],
                            [0.0, 0.2, 2.0]], None)
    return _widened(Q), None


def _wide_pd():
    return _wide_gram(0), Fraction(0)


def _wide_tiny_negativity():
    return _below_psd(_wide_gram(1), Fraction(1, 2**38)), Fraction(1, 2**36)


PSD_FAMILIES = {
    "pd": _pd,
    "rank-deficient": _rank_deficient,
    "tiny-negativity": _tiny_negativity,
    "grid-rounding-edge": _grid_rounding_edge,
    "strongly-indefinite": _strongly_indefinite,
    "wide-pd": _wide_pd,
    "wide-tiny-negativity": _wide_tiny_negativity,
}


@pytest.mark.parametrize("family", list(PSD_FAMILIES))
def test_find_psd_shift_matches_ldlt_only_ladder(family):
    Q, expected = PSD_FAMILIES[family]()
    assert find_psd_shift(Q) == ldlt_psd_shift(Q) == expected


@pytest.mark.parametrize("family", list(PSD_FAMILIES))
def test_positive_witness_implies_ldlt_psd(family):
    # on every rung, not only those the float gate would try; the first
    # proved rung suffices (larger rungs only add to the diagonal)
    Q, _ = PSD_FAMILIES[family]()
    grid = rational._integer_grid(Q)
    for delta in (Fraction(0), *DEFAULT_DELTA_LADDER):
        if rational._grid_witness(grid, delta):
            assert ldlt_psd(shift_diagonal(Q, delta))
            break


def test_wide_gram_is_decided_on_its_integer_grid(monkeypatch):
    integer_inputs = []
    real_ldlt = rational.ldlt_psd

    def counting_ldlt(M):
        integer_inputs.append(
            all(q.denominator == 1 for row in M for q in row)
        )
        return real_ldlt(M)

    monkeypatch.setattr(rational, "ldlt_psd", counting_ldlt)
    assert find_psd_shift(_wide_gram(0)) == Fraction(0)
    assert integer_inputs == [True]


@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize(
    "breakage", ["eigh-raises", "eigh-overflows", "float-overflow"]
)
def test_find_psd_shift_fails_open_without_float_eigenpair(
    monkeypatch, breakage, wide
):
    Q = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1, 2**38)]]
    if wide:
        Q = _widened(Q)
    if breakage == "eigh-raises":
        def broken_eigh(M):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigh", broken_eigh)
    elif breakage == "eigh-overflows":
        # what LAPACK returns for entries near the float range's end
        def broken_eigh(M):
            return np.array([-np.inf, np.inf]), np.eye(2)

        monkeypatch.setattr(np.linalg, "eigh", broken_eigh)
    else:
        Q[0][0] *= 10**400  # float() of it overflows
    # no rung may be skipped: every one goes to exact LDL^T
    assert find_psd_shift(Q) == Fraction(1, 2**36)


def test_gram_polynomial_matches_float_expansion():
    basis = monomials_upto(2, 1)
    rng = np.random.default_rng(2)
    A = rng.normal(size=(len(basis), len(basis)))
    Qf = A @ A.T
    Q = rationalize_matrix(Qf, None)
    p = gram_polynomial(basis, Q, 2).to_polynomial()
    pts = rng.uniform(-1, 1, size=(16, 2))
    mono = np.stack([np.prod(pts ** np.array(b, float), axis=1) for b in basis])
    want = np.einsum("ik,ij,jk->k", mono, Qf, mono)
    assert np.allclose(p(pts), want)


def test_basis_square_bound_dominates_samples():
    basis = monomials_upto(2, 2)
    lo = [Fraction(-2), Fraction(-1)]
    hi = [Fraction(1), Fraction(3)]
    S = basis_square_bound(basis, lo, hi)
    rng = np.random.default_rng(3)
    pts = rng.uniform([-2.0, -1.0], [1.0, 3.0], size=(500, 2))
    sq = sum(
        np.prod(pts ** np.array(b, float), axis=1) ** 2 for b in basis
    )
    assert float(S) >= float(np.max(sq)) - 1e-9


# ----------------------------------------------------------------------
# certificate recheck over Q
# ----------------------------------------------------------------------
def test_exact_recheck_proves_decay_certificate():
    problem, verification = verified_bundle()
    report = check_verification(problem, verification)
    assert report is not None and report.ok
    assert len(report.conditions) == 3  # init, unsafe, one lie endpoint
    for cond in report.conditions:
        assert cond.identity_ok and cond.psd_ok and cond.ok
        assert Fraction(cond.certified_margin_exact) >= 0
        assert cond.certified_margin >= 0.0
    assert report.barrier_hash == barrier_fingerprint(
        verification.certificate.barrier
    )


def test_exact_recheck_rejects_tampered_margin():
    problem, verification = verified_bundle()
    bundle = verification.certificate
    # claim a huge strictness margin: the identity residual picks up a
    # -10 constant that absorption must push into the slack Gram, which
    # goes hard indefinite -> exact PSD check must reject
    tampered = dataclasses.replace(
        bundle,
        conditions=[
            dataclasses.replace(c, margin=c.margin + 10.0)
            if c.name == "init" else c
            for c in bundle.conditions
        ],
    )
    verification = dataclasses.replace(verification, certificate=tampered)
    report = check_verification(problem, verification)
    assert report is not None and not report.ok
    failed = report.failed_conditions()
    assert "init" in failed
    bad = next(c for c in report.conditions if c.name == "init")
    assert bad.message


def test_exact_recheck_rejects_wrong_barrier():
    problem, verification = verified_bundle()
    # B - 2 is negative on Theta: no nearby exact certificate exists
    wrong = dataclasses.replace(
        verification.certificate, barrier=decay_barrier() - 2.0
    )
    verification = dataclasses.replace(verification, certificate=wrong)
    report = check_verification(problem, verification)
    assert report is not None and not report.ok


def test_soundness_report_round_trip():
    problem, verification = verified_bundle()
    report = check_verification(problem, verification)
    doc = report.to_dict()
    back = SoundnessReport.from_dict(doc)
    assert back.to_dict() == doc
    summary = report.summary()
    assert summary["ok"] is True
    assert summary["min_certified_margin"] > 0.0
    # Gram entries are quantized to the one fixed bound, recorded
    assert report.max_denominator == 2**40


def test_check_verification_without_certificate_returns_none():
    problem, verification = verified_bundle()
    stripped = dataclasses.replace(verification, certificate=None)
    assert check_verification(problem, stripped) is None


# ----------------------------------------------------------------------
# the SNBC gate
# ----------------------------------------------------------------------
def snbc_for(problem, **cfg):
    defaults = dict(max_iterations=4, n_samples=150, seed=0)
    defaults.update(cfg)
    return SNBC(
        problem,
        learner_config=LearnerConfig(b_hidden=(5,), epochs=200, seed=0),
        config=SNBCConfig(**defaults),
    )


def test_snbc_success_carries_proven_soundness_report():
    res = snbc_for(decay_problem()).run()
    assert res.success
    assert res.soundness is not None and res.soundness.ok
    assert res.soundness.barrier_hash


def test_snbc_gate_off_skips_recheck():
    res = snbc_for(decay_problem(), soundness_check=False).run()
    assert res.success
    assert res.soundness is None


def test_snbc_refuses_success_when_recheck_fails(monkeypatch):
    import repro.cegis.snbc as snbc_mod

    def failing_check(problem, verification):
        report = check_verification(problem, verification)
        if report is None:
            return None
        bad = dataclasses.replace(
            report.conditions[0], ok=False, psd_ok=False,
            message="injected failure",
        )
        return dataclasses.replace(
            report, ok=False, conditions=[bad, *report.conditions[1:]]
        )

    monkeypatch.setattr(snbc_mod, "check_verification", failing_check)
    res = snbc_for(decay_problem()).run()
    assert not res.success
    assert res.outcome == "error"
    assert res.error is not None and res.error["kind"] == "SoundnessError"
    assert "injected failure" in res.error["message"]
    # the failed report is still attached for diagnosis
    assert res.soundness is not None and not res.soundness.ok


def test_soundness_error_is_typed():
    exc = SoundnessError("bad", failed_conditions=["init"])
    assert exc.phase == "soundness"
    doc = exc.to_dict()
    assert doc["kind"] == "SoundnessError"
    # ReproError.to_dict stringifies non-primitive detail values
    assert "init" in doc["details"]["failed_conditions"]


# ----------------------------------------------------------------------
# checkpoint / resume: the report must be bit-identical
# ----------------------------------------------------------------------
def _report_key(report):
    """Everything except wall-clock times (elapsed fields are the only
    legitimately run-dependent values in a SoundnessReport)."""
    doc = report.to_dict()
    doc.pop("elapsed_seconds", None)
    for cond in doc["conditions"]:
        cond.pop("elapsed_seconds", None)
    return doc


def test_recheck_report_identical_under_ldlt_only_ladder(monkeypatch):
    import repro.soundness.checker as checker_mod
    from repro.benchmarks.systems import get_benchmark

    spec = get_benchmark("C1")
    problem = spec.make_problem()
    res = SNBC(
        problem, controller=spec.make_controller(),
        learner_config=spec.learner_config(),
        config=dataclasses.replace(
            spec.snbc_config("smoke"), soundness_check=False
        ),
    ).run()
    assert res.success
    witnessed = check_verification(problem, res.verification)
    monkeypatch.setattr(checker_mod, "find_psd_shift", ldlt_psd_shift)
    reference = check_verification(problem, res.verification)
    assert witnessed.ok
    assert _report_key(witnessed) == _report_key(reference)


def test_resume_re_emits_soundness_report_bit_identically(tmp_path):
    from repro.benchmarks.systems import get_benchmark

    spec = get_benchmark("C1")
    problem = spec.make_problem()
    controller = spec.make_controller()
    ck = str(tmp_path / "c1.ck.json")
    cfg = dataclasses.replace(spec.snbc_config("smoke"), checkpoint_path=ck)

    full = SNBC(
        problem, controller=controller,
        learner_config=spec.learner_config(), config=cfg,
    ).run()
    assert full.success and full.iterations >= 2  # iteration 1 checkpointed
    assert full.soundness is not None and full.soundness.ok

    resumed = SNBC(
        problem, controller=controller,
        learner_config=spec.learner_config(), config=cfg,
    ).run(resume_from=ck)
    assert resumed.success
    assert resumed.soundness is not None and resumed.soundness.ok
    assert _report_key(resumed.soundness) == _report_key(full.soundness)
