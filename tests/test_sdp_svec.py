"""Tests for symmetric vectorization utilities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sdp import smat, svec, svec_dim
from repro.sdp.svec import smat_stack, svec_positions, sym


def random_sym(n, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    return 0.5 * (A + A.T)


def test_svec_dim():
    assert svec_dim(1) == 1
    assert svec_dim(4) == 10


def test_svec_smat_roundtrip():
    for n in (1, 2, 5, 8):
        A = random_sym(n, seed=n)
        np.testing.assert_allclose(smat(svec(A), n), A, atol=1e-12)


def test_svec_inner_product_isometry():
    A = random_sym(4, seed=1)
    B = random_sym(4, seed=2)
    assert svec(A) @ svec(B) == pytest.approx(np.sum(A * B))


def test_svec_batch():
    mats = np.stack([random_sym(3, s) for s in range(5)])
    out = svec(mats)
    assert out.shape == (5, svec_dim(3))
    np.testing.assert_allclose(out[2], svec(mats[2]))


def test_smat_stack_is_smat_with_batch_index_last():
    vecs = np.stack([svec(random_sym(4, s)) for s in range(6)])
    out = smat_stack(vecs, 4)
    assert out.shape == (4, 4, 6)
    for j in range(6):
        assert np.array_equal(out[:, :, j], smat(vecs[j], 4))
    with pytest.raises(ValueError):
        smat_stack(vecs[:, :9], 4)


def test_svec_positions_index_both_triangles():
    n = 5
    v = svec(random_sym(n, seed=3))
    upper, lower, scale = svec_positions(n)
    flat = smat(v, n).ravel()
    assert np.array_equal(flat[upper], v / scale)
    assert np.array_equal(flat[lower], flat[upper])
    assert sorted(set(upper) | set(lower)) == list(range(n * n))


def test_svec_rejects_nonsquare():
    with pytest.raises(ValueError):
        svec(np.zeros((2, 3)))


def test_smat_rejects_bad_length():
    with pytest.raises(ValueError):
        smat(np.zeros(4), 3)


def test_sym():
    A = np.array([[1.0, 2.0], [0.0, 3.0]])
    S = sym(A)
    np.testing.assert_allclose(S, S.T)
    np.testing.assert_allclose(S, [[1.0, 1.0], [1.0, 3.0]])


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6))
def test_isometry_property(n):
    rng = np.random.default_rng(n)
    A = sym(rng.normal(size=(n, n)))
    assert np.linalg.norm(svec(A)) == pytest.approx(np.linalg.norm(A))
