"""Result-identity tests for the hot-path performance layer.

Every optimization (SOS workspace cache, tape replay and its fixed-point
memo, one-vector Adam, compile-field memoization, incremental field
values, vectorized design matrix) must be *bitwise* identical to its
reference path.
"""

import math

import numpy as np
import pytest

from repro.autodiff import Tape, Tensor
from repro.controllers.inclusion import _design_matrix
from repro.diagnostics import faultinject as fi
from repro.dynamics import CCDS, ControlAffineSystem
from repro.learner import BarrierLearner, LearnerConfig, TrainingData
from repro.learner.loss import barrier_loss
from repro.poly import Polynomial
from repro.poly.fast_eval import (
    clear_compile_cache,
    compile_field,
    set_compile_cache_enabled,
)
from repro.poly.monomials import monomials_upto
from repro.resilience.errors import LearnerDivergence
from repro.sets import Box
from repro.telemetry import InMemorySink, configure, disable
from repro.verifier import SOSVerifier, VerifierConfig

from tests.test_nn_layers import (
    PerParameterAdam,
    assert_adam_state_identical,
    assert_same_bits,
)


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
    B = Polynomial.constant(n, c)
    for i in range(n):
        B = B - scale * Polynomial.variable(n, i) ** 2
    return B


FLOAT_FIELDS = (
    "residual_bound",
    "min_gram_eigenvalue",
    "sdp_gap",
    "sdp_primal_residual",
    "sdp_dual_residual",
)


def assert_results_identical(a, b):
    """Field-by-field equality of two VerificationResults, wall-clock
    timings aside — including the SDP endgame stats of every report."""
    assert a.ok == b.ok
    assert len(a.conditions) == len(b.conditions)
    for x, y in zip(a.conditions, b.conditions):
        assert x.name == y.name
        assert x.feasible == y.feasible
        assert x.validated == y.validated
        assert x.message == y.message
        assert x.sdp_status == y.sdp_status
        assert x.sdp_iterations == y.sdp_iterations
        for f in FLOAT_FIELDS:
            xa, ya = getattr(x, f), getattr(y, f)
            assert (math.isnan(xa) and math.isnan(ya)) or xa == ya, (
                x.name,
                f,
                xa,
                ya,
            )
    if a.lambda_poly is None:
        assert b.lambda_poly is None
    else:
        assert a.lambda_poly.coeffs == b.lambda_poly.coeffs
    la = a.lambda_polys or {}
    lb = b.lambda_polys or {}
    assert la.keys() == lb.keys()
    for k in la:
        assert la[k].coeffs == lb[k].coeffs


# ----------------------------------------------------------------------
# SOS workspace cache
# ----------------------------------------------------------------------
def test_workspace_cached_verify_identical_to_fresh():
    prob = decay_problem()
    B = radial_barrier(2)
    cached = SOSVerifier(prob, [], config=VerifierConfig(workspace_cache=True))
    fresh = SOSVerifier(prob, [], config=VerifierConfig(workspace_cache=False))
    # repeated verifies exercise the warm (hit) path of the cache
    for candidate in (B, B * 1.7 - 0.05 * Polynomial.variable(2, 0), B):
        assert_results_identical(cached.verify(candidate), fresh.verify(candidate))


def test_workspace_cached_verify_identical_on_failing_candidate():
    prob = decay_problem()
    bad = -1.0 * radial_barrier(2)
    cached = SOSVerifier(prob, [], config=VerifierConfig(workspace_cache=True))
    fresh = SOSVerifier(prob, [], config=VerifierConfig(workspace_cache=False))
    ra, rb = cached.verify(bad), fresh.verify(bad)
    assert not ra.ok
    assert_results_identical(ra, rb)


def test_workspace_reused_across_verifies():
    prob = decay_problem()
    v = SOSVerifier(prob, [], config=VerifierConfig(workspace_cache=True))
    v.verify(radial_barrier(2))
    workspaces_after_first = dict(v._workspaces)
    v.verify(radial_barrier(2, c=0.9))
    assert v._workspaces.keys() == {"init", "unsafe", "lie"}
    for key, ws in workspaces_after_first.items():
        assert v._workspaces[key] is ws  # same cached object, only affine refresh


# ----------------------------------------------------------------------
# tape replay and its fixed-point memo
# ----------------------------------------------------------------------
def reference_fit(learner, data, field, epochs):
    """The learner's epoch loop without a tape and with a per-parameter
    Adam: the loss graph is rebuilt and ``backward()`` run every epoch."""
    cfg = learner.config
    f_vals = compile_field(field)(data.s_domain)
    opt = PerParameterAdam(learner._params, lr=cfg.lr)
    history = []
    for _ in range(epochs):
        for p in learner._params:
            p.grad = None
        loss, terms = barrier_loss(
            learner.b_net,
            learner.lambda_net,
            data,
            f_vals,
            eps=cfg.eps,
            etas=cfg.etas,
            negative_slope=cfg.negative_slope,
            paper_printed_form=cfg.paper_printed_form,
        )
        loss.backward()
        opt.step()
        history.append(terms)
        if terms.total < cfg.loss_tolerance:
            break
    return history, opt


def assert_fit_matches_reference(make_learner, data, field):
    """Fit one learner and replay the same fit on a twin through
    :func:`reference_fit`; returns the fitted learner."""
    learner, ref = make_learner(), make_learner()
    learner.fit(data, field)
    history, ref_opt = reference_fit(ref, data, field, ref.config.epochs)
    assert_same_bits((p.data for p in learner._params),
                     (p.data for p in ref._params))
    assert_adam_state_identical(learner.optimizer, ref_opt)
    assert len(learner.loss_history) == len(history)
    for ta, tb in zip(learner.loss_history, history):
        assert ta.total == tb.total
        assert ta.init == tb.init
        assert ta.unsafe == tb.unsafe
        assert ta.domain == tb.domain
    return learner


def fit_replay_counts(make_learner, data, field):
    """``(replays, replays_skipped)`` of one traced fit, checked to agree
    between the ``learner.fit`` span and the telemetry counters."""
    sink = InMemorySink()
    tel = configure(sink)
    try:
        make_learner().fit(data, field)
    finally:
        disable()
    (span,) = sink.spans("learner.fit")
    replays = span["attrs"]["replays"]
    skipped = span["attrs"]["replays_skipped"]
    assert tel.metrics.counter_value("learner.tape.replays") == replays
    assert tel.metrics.counter_value("learner.tape.replays_skipped") == skipped
    return replays, skipped


def warm_learner(epochs=60, lambda_hidden=(5,)):
    """A learner warm-started to ``B = 2.5 - |x|^2``, which separates the
    decay problem's sets with margin: its loss is 0 from epoch 0."""
    learner = BarrierLearner(
        2, config=LearnerConfig(epochs=epochs, seed=7, lambda_hidden=lambda_hidden)
    )
    learner.b_net.init_from_quadratic_form(np.eye(2), 2.5, noise=0.0)
    return learner


@pytest.mark.parametrize("lambda_hidden", [(5,), None])
@pytest.mark.parametrize("arch", ["quadratic", "square"])
def test_tape_training_bitwise_identical(arch, lambda_hidden):
    prob = decay_problem()
    data = TrainingData.sample(prob, 60, rng=np.random.default_rng(0))
    field = prob.system.closed_loop([])

    def make():
        return BarrierLearner(2, config=LearnerConfig(
            epochs=40, seed=7, b_architecture=arch, lambda_hidden=lambda_hidden,
        ))

    assert_fit_matches_reference(make, data, field)


@pytest.mark.parametrize("lambda_hidden", [(5,), None])
def test_zero_loss_fit_skips_replays_bitwise(lambda_hidden):
    prob = decay_problem()
    data = TrainingData.sample(prob, 60, rng=np.random.default_rng(0))
    field = prob.system.closed_loop([])

    def make():
        return warm_learner(lambda_hidden=lambda_hidden)

    learner = assert_fit_matches_reference(make, data, field)
    assert all(t.total == 0.0 for t in learner.loss_history)
    replays, skipped = fit_replay_counts(make, data, field)
    assert replays + skipped == learner.config.epochs - 1
    assert skipped >= 0.9 * (replays + skipped)


def test_momentum_tail_fit_bitwise():
    # random init: the loss reaches 0 around epoch 20, momentum keeps the
    # parameters moving for a while, then every step is an exact no-op
    prob = decay_problem()
    data = TrainingData.sample(prob, 60, rng=np.random.default_rng(0))
    field = prob.system.closed_loop([])

    def make():
        return BarrierLearner(2, config=LearnerConfig(epochs=500, seed=0))

    learner = assert_fit_matches_reference(make, data, field)
    first_zero = next(
        i for i, t in enumerate(learner.loss_history) if t.total == 0.0
    )
    assert 0 < first_zero < 100
    replays, skipped = fit_replay_counts(make, data, field)
    assert replays > first_zero  # real replays while momentum decays
    assert skipped > 0


def test_tape_replay_matches_rebuild_for_raw_graph():
    rng = np.random.default_rng(1)
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    x = Tensor(rng.normal(size=(5, 4)))

    def build():
        h = (x @ w).tanh()
        return (h * h).sum() + h.abs().mean()

    loss = build()
    loss.backward()
    tape = Tape(loss)
    g0 = w.grad.copy()
    # perturb the leaf and replay; compare against a fresh graph build
    w.data = w.data * 1.01
    tape.run()
    g_tape = w.grad.copy()
    v_tape = loss.item()
    w.grad = None
    loss2 = build()
    loss2.backward()
    assert v_tape == loss2.item()
    assert np.array_equal(g_tape, w.grad)
    assert g0.shape == g_tape.shape


def test_tape_memo_sees_in_place_writes():
    rng = np.random.default_rng(2)
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    x = Tensor(rng.normal(size=(5, 4)))

    def build():
        h = (x @ w + b).tanh()
        return (h * h).sum()

    loss = build()
    loss.backward()
    tape = Tape(loss)
    tape.run()
    first = w.grad
    w.grad = None
    b.data = b.data.copy()  # rebound to equal bytes: still a fixed point
    assert tape.run() is loss
    assert (tape.replays, tape.replays_skipped) == (1, 1)
    assert w.grad is first

    w.data[0, 0] += 1.0  # in place: the replay must run
    tape.run()
    assert (tape.replays, tape.replays_skipped) == (2, 1)
    g_tape, v_tape = w.grad, loss.item()
    w.grad = b.grad = None
    fresh = build()
    fresh.backward()
    assert v_tape == fresh.item()
    assert_same_bits([g_tape], [w.grad])

    b.data = -b.data  # 0.0 -> -0.0 compares equal but is other bytes
    tape.run()
    assert (tape.replays, tape.replays_skipped) == (3, 1)


def test_gradient_fault_inside_skipped_stretch_still_fires():
    # the fault site is consulted every epoch, replay or not, so call
    # numbers keep counting epochs
    prob = decay_problem()
    data = TrainingData.sample(prob, 60, rng=np.random.default_rng(0))
    field = prob.system.closed_loop([])
    learner = warm_learner()
    with fi.inject(fi.nan_gradients(at_call=30)) as plan:
        with pytest.raises(LearnerDivergence) as info:
            learner.fit(data, field)
    assert plan.fired_sites() == ["learner.gradients"]
    assert info.value.details["epoch"] == 30
    assert len(learner.loss_history) == 29


# ----------------------------------------------------------------------
# compile_field memoization + incremental field values
# ----------------------------------------------------------------------
def test_compile_field_memoized_object_reused():
    clear_compile_cache()
    xs = Polynomial.variables(2)
    field = [-1.0 * xs[0] + 0.5 * xs[1], xs[0] * xs[1]]
    c1 = compile_field(field)
    # structurally identical fresh Polynomial objects hit the same entry
    field2 = [-1.0 * xs[0] + 0.5 * xs[1], xs[0] * xs[1]]
    assert compile_field(field2) is c1
    old = set_compile_cache_enabled(False)
    try:
        assert compile_field(field) is not c1
    finally:
        set_compile_cache_enabled(old)
        clear_compile_cache()


def test_incremental_field_values_bitwise_on_grown_dataset():
    prob = decay_problem()
    field = prob.system.closed_loop([])
    rng = np.random.default_rng(5)
    pts = prob.psi.sample(80, rng=rng)
    grown = np.vstack([pts, prob.psi.sample(17, rng=rng)])

    learner = BarrierLearner(2)
    ref = compile_field(field)
    first = learner._field_values(field, pts)
    assert np.array_equal(first, ref(pts))
    second = learner._field_values(field, grown)  # prefix reused
    assert np.array_equal(second, ref(grown))


# ----------------------------------------------------------------------
# satellite kernels
# ----------------------------------------------------------------------
def test_design_matrix_matches_reference_loop():
    def reference(points, degree):
        m, n = points.shape
        basis = monomials_upto(n, degree)
        pows = np.ones((degree + 1, m, n))
        for k in range(1, degree + 1):
            pows[k] = pows[k - 1] * points
        cols = []
        for alpha in basis:
            col = np.ones(m)
            for i, a in enumerate(alpha):
                if a:
                    col = col * pows[a][:, i]
            cols.append(col)
        return np.stack(cols, axis=1)

    rng = np.random.default_rng(11)
    for n, d in [(1, 4), (2, 2), (3, 3), (5, 2)]:
        pts = 2.0 * rng.normal(size=(23, n))
        assert np.array_equal(_design_matrix(pts, d), reference(pts, d))


# ----------------------------------------------------------------------
# IPM warm starts
# ----------------------------------------------------------------------
def _condition_iterations(result):
    return sum(
        c.sdp_iterations
        for c in result.conditions
        if c.sdp_iterations is not None and c.sdp_iterations > 0
    )


def test_warm_verify_c1_candidate():
    from repro.benchmarks import get_benchmark
    from repro.cegis import SNBC

    spec = get_benchmark("C1")
    problem = spec.make_problem()
    result = SNBC(problem, controller=spec.make_controller()).run()
    assert result.success
    B = result.barrier
    h = result.inclusion.polynomials
    sigma = result.inclusion.sigma_star

    rs = SOSVerifier(problem, h, sigma, config=VerifierConfig()).verify(B)
    assert rs.ok

    # warm starting is NOT bitwise (different central path) but must be
    # verdict-equivalent and must not cost extra IPM iterations
    warm = SOSVerifier(
        problem, h, sigma, config=VerifierConfig(warm_start=True)
    )
    warm.verify(B)  # seeds the per-condition warm-start store
    rw = warm.verify(B)
    assert rw.ok == rs.ok
    assert [
        (c.name, c.feasible, c.validated) for c in rw.conditions
    ] == [(c.name, c.feasible, c.validated) for c in rs.conditions]
    assert _condition_iterations(rw) <= _condition_iterations(rs)


def test_warm_store_cleared_on_failure():
    prob = decay_problem()
    v = SOSVerifier(prob, [], config=VerifierConfig(warm_start=True))
    good = radial_barrier(2)
    v.verify(good)
    assert v._warm  # seeded by the successful solves
    v.verify(-1.0 * good)
    # conditions that now fail must not keep a stale warm point
    for name, ws in v._warm.items():
        assert ws is not None
    r = v.verify(good)
    assert r.ok
