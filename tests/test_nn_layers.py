"""Tests for NN layers, optimizers and the controller MLP."""

import json

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.nn import MLP, SGD, Adam, Dense, LeakyReLU, Sequential, Tanh
from repro.nn.layers import Parameter


def test_dense_shapes_and_params():
    rng = np.random.default_rng(0)
    layer = Dense(3, 5, rng=rng)
    out = layer(Tensor(np.zeros((7, 3))))
    assert out.shape == (7, 5)
    assert len(layer.parameters()) == 2
    assert layer.n_parameters() == 3 * 5 + 5


def test_dense_no_bias():
    layer = Dense(2, 2, bias=False)
    assert len(layer.parameters()) == 1


def test_sequential_composition():
    rng = np.random.default_rng(1)
    net = Sequential(Dense(2, 4, rng=rng), Tanh(), Dense(4, 1, rng=rng))
    out = net(Tensor(np.zeros((3, 2))))
    assert out.shape == (3, 1)
    assert len(net) == 3
    assert len(net.parameters()) == 4


def test_state_dict_roundtrip():
    rng = np.random.default_rng(2)
    net = Sequential(Dense(2, 3, rng=rng), Dense(3, 1, rng=rng))
    state = net.state_dict()
    x = np.ones((1, 2))
    y0 = net.predict(x)
    for p in net.parameters():
        p.data = p.data + 1.0
    assert not np.allclose(net.predict(x), y0)
    net.load_state_dict(state)
    np.testing.assert_allclose(net.predict(x), y0)
    with pytest.raises(ValueError):
        net.load_state_dict(state[:-1])


def test_mlp_shapes_and_repr():
    net = MLP([2, 8, 8, 1], rng=np.random.default_rng(3))
    out = net.predict(np.zeros((5, 2)))
    assert out.shape == (5, 1)
    assert "2-8-8-1" in repr(net)


def test_mlp_output_scale_saturates():
    net = MLP([1, 4, 1], output_scale=2.0, rng=np.random.default_rng(4))
    big = net.predict(np.array([[1e3]]))
    assert np.abs(big).max() <= 2.0 + 1e-9


def test_mlp_validation():
    with pytest.raises(ValueError):
        MLP([2])
    with pytest.raises(ValueError):
        MLP([2, 3, 1], activation="swish")


def test_optimizer_validation():
    p = Parameter(np.zeros(2))
    with pytest.raises(ValueError):
        SGD([], lr=0.1)
    with pytest.raises(ValueError):
        SGD([p], lr=-1.0)
    with pytest.raises(ValueError):
        Adam([p], lr=0.0)


def test_sgd_minimizes_quadratic():
    p = Parameter(np.array([5.0]))
    opt = SGD([p], lr=0.1, momentum=0.5)
    for _ in range(200):
        opt.zero_grad()
        loss = (p * p).sum()
        loss.backward()
        opt.step()
    assert abs(p.data[0]) < 1e-3


def test_adam_fits_linear_regression():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(100, 3))
    w_true = np.array([[1.0], [-2.0], [0.5]])
    y = X @ w_true
    layer = Dense(3, 1, rng=rng)
    opt = Adam(layer.parameters(), lr=0.05)
    for _ in range(400):
        opt.zero_grad()
        pred = layer(Tensor(X))
        err = pred - Tensor(y)
        loss = (err * err).mean()
        loss.backward()
        opt.step()
    np.testing.assert_allclose(layer.W.data, w_true, atol=0.05)


def test_mlp_fits_nonlinear_function():
    rng = np.random.default_rng(6)
    X = rng.uniform(-1, 1, size=(256, 1))
    y = np.sin(2.0 * X)
    net = MLP([1, 16, 16, 1], rng=rng)
    opt = Adam(net.parameters(), lr=0.01)
    for _ in range(500):
        opt.zero_grad()
        err = net(Tensor(X)) - Tensor(y)
        loss = (err * err).mean()
        loss.backward()
        opt.step()
    final = float(((net.predict(X) - y) ** 2).mean())
    assert final < 0.01


def test_leaky_relu_module():
    x = Tensor(np.array([[-1.0, 2.0]]))
    out = LeakyReLU(0.1)(x)
    np.testing.assert_allclose(out.numpy(), [[-0.1, 2.0]])


# ----------------------------------------------------------------------
# one-vector Adam vs the per-parameter loop it replaced
# ----------------------------------------------------------------------
class PerParameterAdam:
    """Reference Adam: one update per parameter array, moments per array."""

    def __init__(self, parameters, lr=1e-3, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.0):
        self.parameters = list(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.m = [np.zeros_like(p.data) for p in self.parameters]
        self.v = [np.zeros_like(p.data) for p in self.parameters]
        self.t = 0

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p, m, v in zip(self.parameters, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1 ** self.t)
            v_hat = v / (1.0 - b2 ** self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self):
        return {
            "t": self.t,
            "m": [m.tolist() for m in self.m],
            "v": [v.tolist() for v in self.v],
        }


def assert_same_bits(xs, ys):
    xs, ys = list(xs), list(ys)
    assert len(xs) == len(ys)
    for x, y in zip(xs, ys):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        assert x.shape == y.shape
        assert x.tobytes() == y.tobytes()


def assert_adam_state_identical(opt, ref):
    a, b = opt.state_dict(), ref.state_dict()
    assert a["t"] == b["t"]
    assert_same_bits(a["m"], b["m"])
    assert_same_bits(a["v"], b["v"])


def _mixed_parameters():
    rng = np.random.default_rng(0)
    return [Parameter(rng.normal(size=s)) for s in [(1,), (6,), (6, 4)]]


def _random_grads(rng, params):
    # magnitudes from 1e-9 to 1e2 and exact zeros, so the moments mix
    # scales and bias correction matters in the last bits
    grads = []
    for p in params:
        g = rng.normal(size=p.data.shape) * 10.0 ** rng.integers(-9, 3)
        g[rng.random(size=g.shape) < 0.2] = 0.0
        grads.append(g)
    return grads


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_adam_one_vector_bitwise_matches_per_parameter(weight_decay):
    params, ref_params = _mixed_parameters(), _mixed_parameters()
    opt = Adam(params, lr=0.05, weight_decay=weight_decay)
    ref = PerParameterAdam(ref_params, lr=0.05, weight_decay=weight_decay)
    rng = np.random.default_rng(1)
    for step in range(40):
        for p, q, g in zip(params, ref_params, _random_grads(rng, params)):
            p.grad, q.grad = g, g.copy()
        if step % 3 == 1:
            # a parameter without a gradient is skipped: value, m and v
            # stay untouched
            params[1].grad = ref_params[1].grad = None
            before = params[1].data
        opt.step()
        ref.step()
        if step % 3 == 1:
            assert params[1].data is before
        assert_same_bits((p.data for p in params), (q.data for q in ref_params))
        assert_adam_state_identical(opt, ref)


def test_adam_one_vector_json_round_trip_mid_run():
    params, ref_params = _mixed_parameters(), _mixed_parameters()
    opt = Adam(params, lr=0.05)
    ref = PerParameterAdam(ref_params, lr=0.05)
    rng = np.random.default_rng(2)
    for step in range(30):
        if step == 12:
            # resume from a checkpoint: fresh parameters, fresh optimizer
            params = [Parameter(p.data.copy()) for p in params]
            resumed = Adam(params, lr=0.05)
            resumed.load_state_dict(json.loads(json.dumps(opt.state_dict())))
            opt = resumed
            assert_adam_state_identical(opt, ref)
        for p, q, g in zip(params, ref_params, _random_grads(rng, params)):
            p.grad, q.grad = g, g.copy()
        opt.step()
        ref.step()
        assert_same_bits((p.data for p in params), (q.data for q in ref_params))
    assert_adam_state_identical(opt, ref)


def test_adam_load_state_dict_rejects_bad_shape_untouched():
    params = _mixed_parameters()
    opt = Adam(params, lr=0.05)
    for p in params:
        p.grad = np.ones_like(p.data)
    opt.step()
    good = opt.state_dict()
    bad = opt.state_dict()
    bad["m"] = [(2.0 * np.asarray(m)).tolist() for m in bad["m"]]
    bad["v"][2] = bad["v"][2][:-1]  # one row short
    with pytest.raises(ValueError):
        opt.load_state_dict(bad)
    assert opt.state_dict() == good
