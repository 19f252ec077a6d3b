"""Tests for the benchmark registry (Table 1 metadata fidelity)."""

import numpy as np
import pytest

from repro.benchmarks import BENCHMARKS, get_benchmark, list_benchmarks
from repro.controllers import lqr_gain
from repro.sets import Box

# (n_x, d_f) per Table 1 row
TABLE1_SHAPE = {
    "C1": (2, 3),
    "C2": (2, 3),
    "C3": (2, 2),
    "C4": (2, 2),
    "C5": (2, 3),
    "C6": (3, 3),
    "C7": (3, 2),
    "C8": (4, 3),
    "C9": (5, 2),
    "C10": (6, 2),
    "C11": (6, 3),
    "C12": (7, 1),
    "C13": (9, 1),
    "C14": (12, 1),
}

TABLE1_NN_B = {
    "C1": "2-10-1",
    "C2": "2-10-1",
    "C3": "2-5-1",
    "C4": "2-20-1",
    "C5": "2-5-1",
    "C6": "3-5-1",
    "C7": "3-5-1",
    "C8": "4-5-1",
    "C9": "5-10-1",
    "C10": "6-15-1",
    "C11": "6-20-1",
    "C12": "7-20-1",
    "C13": "9-15-1",
    "C14": "12-20-1",
}


def test_registry_contains_all_rows():
    names = list_benchmarks()
    assert "example1" in names
    for i in range(1, 15):
        assert f"C{i}" in names
    # Q1: the obstacle-rich region-algebra workload (docs/scenarios.md)
    assert "Q1" in names
    assert len(names) == 16


def test_unknown_benchmark_raises():
    with pytest.raises(KeyError, match="available"):
        get_benchmark("C99")


@pytest.mark.parametrize("name", sorted(TABLE1_SHAPE))
def test_dimensions_and_degrees_match_table1(name):
    spec = get_benchmark(name)
    n_x, d_f = TABLE1_SHAPE[name]
    assert spec.n_x == n_x
    assert spec.d_f == d_f
    problem = spec.make_problem()
    assert problem.n_vars == n_x
    assert problem.system.degree() == d_f


@pytest.mark.parametrize("name", sorted(TABLE1_NN_B))
def test_network_shapes_match_table1(name):
    spec = get_benchmark(name)
    row = spec.table_row()
    assert row["NN_B"] == TABLE1_NN_B[name]


def test_constant_multiplier_rows():
    # Table 1 marks lambda = c for C10, C11, C13, C14
    for name in ("C10", "C11", "C13", "C14"):
        assert get_benchmark(name).lambda_hidden is None
        assert get_benchmark(name).table_row()["NN_lambda"] == "c"
    for name in ("C1", "C9", "C12"):
        assert get_benchmark(name).lambda_hidden is not None


def test_example1_matches_paper():
    spec = get_benchmark("example1")
    prob = spec.make_problem()
    # eq. (18): xdot = z + 8y
    f1 = prob.system.f0[0]
    assert f1.coeff((0, 1, 0)) == 8.0
    assert f1.coeff((0, 0, 1)) == 1.0
    # zdot contains -x^2 and +u on the third row
    assert prob.system.f0[2].coeff((2, 0, 0)) == -1.0
    assert prob.system.G[2][0].coeff((0, 0, 0)) == 1.0
    # sets from the paper
    assert isinstance(prob.psi, Box)
    np.testing.assert_allclose(prob.psi.lo, [-2.2] * 3)
    np.testing.assert_allclose(prob.theta.hi, [0.4] * 3)
    np.testing.assert_allclose(prob.xi.lo, [2.0] * 3)


@pytest.mark.parametrize("name", sorted(TABLE1_SHAPE))
def test_all_problems_well_formed(name):
    prob = get_benchmark(name).make_problem()
    rng = np.random.default_rng(0)
    # sets sample and are mutually consistent in dimension
    assert prob.theta.sample(5, rng=rng).shape == (5, prob.n_vars)
    assert prob.xi.sample(5, rng=rng).shape == (5, prob.n_vars)
    assert isinstance(prob.psi, Box)  # needed by the inclusion mesh
    # theta and xi disjoint (otherwise no barrier can exist)
    assert not np.any(prob.xi.contains(prob.theta.sample(200, rng=rng)))


@pytest.mark.parametrize("name", sorted(TABLE1_SHAPE))
def test_all_systems_lqr_stabilizable(name):
    prob = get_benchmark(name).make_problem()
    K = lqr_gain(prob.system)
    assert K.shape == (prob.system.n_inputs, prob.n_vars)
    assert np.all(np.isfinite(K))


def test_make_controller_produces_working_controller():
    spec = get_benchmark("C1")
    ctrl = spec.make_controller()
    u = ctrl(np.zeros((3, 2)))
    assert u.shape == (3, 1)
    assert ctrl.lipschitz_bound() < 50.0


def test_snbc_config_scales():
    spec = get_benchmark("C9")
    smoke = spec.snbc_config("smoke")
    paper = spec.snbc_config("paper")
    assert smoke.n_samples <= paper.n_samples
    assert smoke.max_iterations <= paper.max_iterations
    assert smoke.inclusion_error_mode == paper.inclusion_error_mode == "empirical"


@pytest.mark.parametrize("scale", ["Smoke", "PAPER", "ci", ""])
def test_snbc_config_rejects_unknown_scale(scale):
    # a typo must not fall through to paper-scale budgets
    with pytest.raises(ValueError, match="smoke|paper"):
        get_benchmark("C9").snbc_config(scale)
