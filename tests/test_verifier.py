"""Tests for the SOS/LMI verifier on certificates with known validity."""

import numpy as np
import pytest

from repro.dynamics import CCDS, ControlAffineSystem
from repro.poly import Polynomial
from repro.sets import Ball, Box
from repro.telemetry import InMemorySink, configure, disable
from repro.verifier import SOSVerifier, VerifierConfig


def decay_problem(n=2):
    xs = Polynomial.variables(n)
    sys_n = ControlAffineSystem.autonomous([-1.0 * x for x in xs])
    return CCDS(
        sys_n,
        theta=Box.cube(n, -0.5, 0.5, name="theta"),
        psi=Box.cube(n, -2.0, 2.0, name="psi"),
        xi=Box.cube(n, 1.5, 2.0, name="xi"),
    )


def radial_barrier(n, c=1.0, scale=0.5):
    """B = c - scale * |x|^2."""
    B = Polynomial.constant(n, c)
    for i in range(n):
        B = B - scale * Polynomial.variable(n, i) ** 2
    return B


def test_valid_certificate_accepted():
    prob = decay_problem()
    B = radial_barrier(2)  # >= 0.75 on Theta, <= -1.25 on Xi, L_fB = |x|^2
    verifier = SOSVerifier(prob, [])
    result = verifier.verify(B)
    assert result.ok
    assert result.failed_conditions() == []
    assert result.lambda_poly is not None
    names = [c.name for c in result.conditions]
    assert names == ["init", "unsafe", "lie"]


def test_invalid_on_init_rejected():
    prob = decay_problem()
    B = -1.0 * radial_barrier(2)  # negative on Theta
    result = SOSVerifier(prob, []).verify(B)
    assert not result.ok
    assert "init" in result.failed_conditions()
    # later conditions skipped
    assert any("skipped" in c.message for c in result.conditions)


def test_invalid_on_unsafe_rejected():
    prob = decay_problem()
    B = Polynomial.constant(2, 1.0)  # constant positive: fails (ii)
    result = SOSVerifier(prob, []).verify(B)
    assert not result.ok
    assert "unsafe" in result.failed_conditions()


def test_invalid_on_lie_rejected():
    # growing system: xdot = +x; B = 1 - 0.5|x|^2 gives L_fB = -|x|^2 < 0,
    # and no lambda rescues it at the Psi boundary where B << 0
    xs = Polynomial.variables(2)
    sys2 = ControlAffineSystem.autonomous([1.0 * x for x in xs])
    prob = CCDS(
        sys2,
        theta=Box.cube(2, -0.5, 0.5),
        psi=Box.cube(2, -2.0, 2.0),
        xi=Box.cube(2, 1.5, 2.0),
    )
    B = radial_barrier(2)
    result = SOSVerifier(prob, []).verify(B)
    assert not result.ok
    assert any(name.startswith("lie") for name in result.failed_conditions())


def test_ball_sets_s_procedure():
    xs = Polynomial.variables(3)
    sys3 = ControlAffineSystem.autonomous([-1.0 * x for x in xs])
    prob = CCDS(
        sys3,
        theta=Ball([0.0] * 3, 0.5, name="theta"),
        psi=Box.cube(3, -2.0, 2.0, name="psi"),
        xi=Ball([1.5, 1.5, 0.0], 0.3, name="xi"),
    )
    B = radial_barrier(3)
    result = SOSVerifier(prob, []).verify(B)
    assert result.ok


def test_controlled_system_with_inclusion_error():
    # xdot = -x + u, u = h(x) + w with h = 0 and |w| <= sigma.
    # For B = 1 - 0.5 x^2: L_fB = x^2 - x w; small sigma passes.
    x = Polynomial.variable(1, 0)
    sys1 = ControlAffineSystem.single_input([-1.0 * x], [1.0])
    prob = CCDS(
        sys1,
        theta=Box([-0.5], [0.5]),
        psi=Box([-2.0], [2.0]),
        xi=Box([1.5], [2.0]),
    )
    B = radial_barrier(1)
    h = [Polynomial.zero(1)]
    ok_result = SOSVerifier(prob, h, sigma_star=[0.05]).verify(B)
    assert ok_result.ok
    # two lie endpoints were checked
    lie_names = [c.name for c in ok_result.conditions if c.name.startswith("lie")]
    assert len(lie_names) == 2

    # huge inclusion error must break the certificate
    bad_result = SOSVerifier(prob, h, sigma_star=[50.0]).verify(B)
    assert not bad_result.ok


def test_zero_sigma_gives_single_lie_check():
    x = Polynomial.variable(1, 0)
    sys1 = ControlAffineSystem.single_input([-1.0 * x], [1.0])
    prob = CCDS(sys1, Box([-0.5], [0.5]), Box([-2.0], [2.0]), Box([1.5], [2.0]))
    result = SOSVerifier(prob, [Polynomial.zero(1)], sigma_star=[0.0]).verify(
        radial_barrier(1)
    )
    assert result.ok
    lie_names = [c.name for c in result.conditions if c.name.startswith("lie")]
    assert lie_names == ["lie"]


def test_verifier_validation_errors():
    prob = decay_problem()
    with pytest.raises(ValueError):
        SOSVerifier(prob, [Polynomial.zero(2)])  # autonomous: no polys allowed
    x = Polynomial.variable(1, 0)
    sys1 = ControlAffineSystem.single_input([-1.0 * x], [1.0])
    prob1 = CCDS(sys1, Box([-0.5], [0.5]), Box([-2.0], [2.0]), Box([1.5], [2.0]))
    with pytest.raises(ValueError):
        SOSVerifier(prob1, [])
    with pytest.raises(ValueError):
        SOSVerifier(prob1, [Polynomial.zero(1)], sigma_star=[0.1, 0.2])
    v = SOSVerifier(prob1, [Polynomial.zero(1)])
    with pytest.raises(ValueError):
        v.verify(radial_barrier(2))  # dimension mismatch


def test_condition_reports_have_timings():
    prob = decay_problem()
    result = SOSVerifier(prob, []).verify(radial_barrier(2))
    for c in result.conditions:
        assert c.elapsed_seconds >= 0
    assert result.elapsed_seconds > 0


def test_validation_can_be_disabled():
    prob = decay_problem()
    cfg = VerifierConfig(validate=False)
    result = SOSVerifier(prob, [], config=cfg).verify(radial_barrier(2))
    assert result.ok
    assert all("skipped" in c.message for c in result.conditions if c.feasible)


def test_multiplier_degree_floor():
    prob = decay_problem()
    cfg = VerifierConfig(multiplier_degree=2)
    result = SOSVerifier(prob, [], config=cfg).verify(radial_barrier(2))
    assert result.ok  # higher-degree multipliers still succeed


# ----------------------------------------------------------------------
# short-circuiting: conditions after the first failure are never solved
# ----------------------------------------------------------------------
def verify_counting_solves(verifier, B):
    """``verifier.verify(B)`` plus its number of condition SDP solves
    (recovery-ladder retries of one condition count once)."""
    sink = InMemorySink()
    configure(sink)
    try:
        result = verifier.verify(B)
    finally:
        disable()
    base = [s for s in sink.spans("sdp.solve") if s["attrs"]["rung"] == "base"]
    return result, len(base)


def test_init_failure_solves_nothing_else():
    verifier = SOSVerifier(decay_problem(), [])
    result, solves = verify_counting_solves(verifier, -1.0 * radial_barrier(2))
    assert solves == 1
    assert [(c.name, c.ok, c.message) for c in result.conditions[1:]] == [
        ("unsafe", False, "skipped (init failed)"),
        ("lie", False, "skipped (earlier failure)"),
    ]
    assert result.conditions[0].name == "init"
    assert not result.conditions[0].ok


def test_lie_failure_skips_the_second_endpoint():
    x = Polynomial.variable(1, 0)
    sys1 = ControlAffineSystem.single_input([-1.0 * x], [1.0])
    prob = CCDS(sys1, Box([-0.5], [0.5]), Box([-2.0], [2.0]), Box([1.5], [2.0]))
    verifier = SOSVerifier(prob, [Polynomial.zero(1)], sigma_star=[50.0])
    assert len(verifier._error_endpoints()) == 2
    result, solves = verify_counting_solves(verifier, radial_barrier(1))
    names = [c.name for c in result.conditions]
    assert names == ["init", "unsafe", "lie[w=[-50.0]]"]
    assert [c.ok for c in result.conditions] == [True, True, False]
    assert solves == 3


# ----------------------------------------------------------------------
# rejected candidates: the init SDP stops at a certified dual ray
# ----------------------------------------------------------------------
def test_rejected_candidate_stops_at_dual_ray():
    import warnings

    from repro.service.jobs import _VERIFY_DEFAULTS, _verify_family_problem

    # 0.05 - |x|^2 / 2 is negative on the corners of Theta = [-0.3, 0.3]^2,
    # so condition (13) has no SOS certificate
    x, y = Polynomial.variables(2)
    B = Polynomial.constant(2, 0.05) - 0.5 * (x * x + y * y)
    verifier = SOSVerifier(_verify_family_problem(_VERIFY_DEFAULTS), [])
    sink = InMemorySink()
    tel = configure(sink)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = verifier.verify(B)
    finally:
        disable()
    assert not result.ok
    init = result.conditions[0]
    assert init.name == "init" and not init.ok
    assert init.sdp_status == "primal_infeasible"
    assert init.sdp_recovery_rung == "base"
    assert init.sdp_iterations <= 10
    assert init.sdp_convergence == "diverging"
    assert tel.metrics.counter_value("sdp.recovery.engaged") == 0
