"""Closed-form small-block kernels against numpy.linalg."""

import numpy as np
import pytest

from detbundle._blocks import (
    bmm,
    det,
    det_logabs,
    orthonormalizer,
    smallest_singular_value,
    trace_solve,
)

from conftest import random_complex


def _blocks(k: int, seed: int) -> np.ndarray:
    """Random k x k blocks plus singular blocks and scalar multiples of unitaries."""
    rng = np.random.default_rng(seed)
    random = random_complex(rng, 60, k, k)
    u = np.linalg.qr(random_complex(rng, 20, k, k))[0]
    unitary_multiples = rng.uniform(0.1, 3.0, size=(20, 1, 1)) * u
    # rank-deficient blocks: outer products, plus exact zeros
    singular = random_complex(rng, 20, k, 1) * random_complex(rng, 20, 1, k)
    singular[:2] = 0.0
    return np.concatenate([random, unitary_multiples, singular])


@pytest.mark.parametrize("k", [1, 2])
def test_closed_form_det_matches_linalg(k):
    m = _blocks(k, 10 + k)
    ref = np.linalg.det(m)
    scale = np.linalg.norm(m, ord=2, axis=(-2, -1)) ** k
    assert np.all(np.abs(det(m) - ref) <= 1e-14 * np.maximum(scale, 1e-300))


@pytest.mark.parametrize("k", [1, 2])
def test_closed_form_smallest_singular_value_matches_svd(k):
    m = _blocks(k, 20 + k)
    s = np.linalg.svd(m, compute_uv=False)
    assert np.all(np.abs(smallest_singular_value(m) - s[..., -1]) <= 1e-14 * s[..., 0])
    assert not np.isnan(smallest_singular_value(m)).any()


@pytest.mark.parametrize("k", [1, 2])
def test_closed_form_trace_solve_matches_solve(k):
    # singular blocks have no inverse; the error scale is |M^-1| |T|
    rng = np.random.default_rng(30 + k)
    m = _blocks(k, 30 + k)[:80]
    t = random_complex(rng, len(m), k, k)
    ref = np.trace(np.linalg.solve(m, t), axis1=-2, axis2=-1)
    scale = (np.linalg.norm(t, ord=2, axis=(-2, -1))
             / np.linalg.svd(m, compute_uv=False)[..., -1])
    assert np.all(np.abs(trace_solve(m, [t])[0] - ref) <= 1e-14 * scale)


@pytest.mark.parametrize("k", [3, 4])
def test_trace_solve_stacks_right_hand_sides_above_2x2(k):
    # one solve for all right-hand sides; each gives what it gives alone
    rng = np.random.default_rng(50 + k)
    m = _blocks(k, 50 + k)[:80]
    ts = [random_complex(rng, len(m), k, k) for _ in range(3)]
    scale = 1.0 / np.linalg.svd(m, compute_uv=False)[..., -1]
    for t, got in zip(ts, trace_solve(m, ts)):
        ref = np.trace(np.linalg.solve(m, t), axis1=-2, axis2=-1)
        assert np.all(np.abs(got - ref)
                      <= 1e-14 * scale * np.linalg.norm(t, ord=2, axis=(-2, -1)))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_det_logabs_matches_slogdet(k):
    m = _blocks(k, 60 + k)[:80]
    d, logabs = det_logabs(m)
    sign, ref = np.linalg.slogdet(m)
    assert np.all(np.abs(logabs - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))
    assert np.all(np.abs(d - sign * np.exp(ref)) <= 1e-13 * np.abs(d))


def test_empty_blocks_are_the_trivial_line():
    m = np.zeros((3, 0, 0), dtype=complex)
    assert np.array_equal(det(m), np.ones(3))
    assert np.array_equal(det_logabs(m)[1], np.zeros(3))
    assert np.all(np.isinf(smallest_singular_value(m)))
    assert not trace_solve(m, [m, m])[1].any()


def test_bmm_keeps_square_products_bit_identical():
    rng = np.random.default_rng(40)
    a = random_complex(rng, 50, 2, 2)
    b = random_complex(rng, 50, 2, 2)
    expected = np.empty_like(a)
    for i in range(2):
        for j in range(2):
            expected[..., i, j] = a[..., i, 0] * b[..., 0, j] + a[..., i, 1] * b[..., 1, j]
    assert np.array_equal(bmm(a, b), expected)
    a1, b1 = random_complex(rng, 50, 1, 1), random_complex(rng, 50, 1, 1)
    assert np.array_equal(bmm(a1, b1), a1 * b1)


@pytest.mark.parametrize("p,n,q", [(2, 4, 2), (1, 5, 1), (2, 3, 1), (2, 1, 2), (3, 4, 3)])
def test_bmm_matches_matmul_for_any_inner_dimension(p, n, q):
    rng = np.random.default_rng(41)
    a = random_complex(rng, 7, 5, p, n)
    b = random_complex(rng, 5, n, q)
    assert np.abs(bmm(a, b) - a @ b).max() <= 1e-14 * n


@pytest.mark.parametrize("k", [1, 2, 3])
def test_orthonormalizer_inverts_the_cholesky_factor(k):
    # R^-1 is upper triangular with a positive diagonal and R* R = a, so X R^-1
    # is orthonormal for X* X = a; oracle: numpy's Cholesky factor L = R*
    rng = np.random.default_rng(70 + k)
    x = random_complex(rng, 40, k + 2, k)
    a = np.swapaxes(x.conj(), -1, -2) @ x
    r_inv = orthonormalizer(a)
    assert np.abs(np.tril(r_inv, -1)).max(initial=0.0) <= 1e-15
    diag = np.diagonal(r_inv, axis1=-2, axis2=-1)
    assert np.abs(diag.imag).max() <= 1e-15 and diag.real.min() > 0.0
    want = np.linalg.inv(np.swapaxes(np.linalg.cholesky(a).conj(), -1, -2))
    assert np.abs(r_inv - want).max() <= 1e-13 * np.abs(want).max()
    q = x @ r_inv
    assert np.abs(np.swapaxes(q.conj(), -1, -2) @ q - np.eye(k)).max() <= 1e-13
