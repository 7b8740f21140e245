"""Finite trace/determinant calculus against dense linear-algebra oracles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detbundle.errors import SeriesCancellation
from detbundle.opcalc import (
    as_matrix,
    compound_matrix,
    fredholm_det,
    operator_norm,
    schatten_profile,
    trace,
    trace_norm,
    wedge_trace,
)

from conftest import random_complex


def test_trace_matches_eigenvalue_sum():
    # oracle: eigendecomposition of a Hermitian matrix
    rng = np.random.default_rng(11)
    a = random_complex(rng, 8, 8)
    a = a + a.conj().T
    expected = np.sum(np.linalg.eigvalsh(a))
    assert abs(trace(a) - expected) < 1e-12


def test_trace_norm_of_zero():
    assert trace_norm(np.zeros((5, 5))) == 0.0


def _graded(rng) -> np.ndarray:
    """Q1 diag(1, 0.5, 1e-3, 1e-7, 1e-10, 1e-12) Q2* with random unitary Q1, Q2:
    the squares of its smaller singular values are lost to rounding in A* A."""
    q1, q2 = (np.linalg.qr(random_complex(rng, 6, 6))[0] for _ in range(2))
    return q1 @ np.diag([1.0, 0.5, 1e-3, 1e-7, 1e-10, 1e-12]) @ q2.conj().T


def test_trace_norm_matches_svd_oracle():
    rng = np.random.default_rng(12)
    for a in (random_complex(rng, 10, 6), _graded(rng)):
        expected = np.sum(np.linalg.svd(a, compute_uv=False))
        assert abs(trace_norm(a) - expected) <= 1e-10 * expected


def test_operator_norm_matches_svd_oracle():
    rng = np.random.default_rng(13)
    for a in (random_complex(rng, 7, 9), _graded(rng)):
        expected = np.linalg.svd(a, compute_uv=False)[0]
        assert abs(operator_norm(a) - expected) <= 1e-12 * expected


def test_schatten_profile_orders_norms():
    rng = np.random.default_rng(14)
    a = random_complex(rng, 6, 6)
    prof = schatten_profile(a)
    assert prof.operator_norm <= prof.trace_norm
    assert prof.trace_norm == pytest.approx(trace_norm(a))


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_matrix(np.ones(3))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_wedge_trace_order_one_is_trace():
    rng = np.random.default_rng(15)
    a = random_complex(rng, 5, 5)
    assert wedge_trace(a, 1) == pytest.approx(trace(a))


def test_wedge_trace_diagonal_two_by_two():
    # oracle: the characteristic polynomial of diag(a, b) is
    # x^2 - (a+b) x + ab, so the order-2 wedge trace is the product ab
    a, b = 1.7 - 0.3j, -0.4 + 2.2j
    m = np.diag([a, b])
    coeffs = np.poly(m)
    assert wedge_trace(m, 2) == pytest.approx(a * b)
    assert wedge_trace(m, 2) == pytest.approx(coeffs[2])


@given(dim=st.integers(2, 7), r=st.integers(0, 7), seed=st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_wedge_trace_matches_compound_matrix(dim, r, seed):
    if r > dim:
        r = dim
    rng = np.random.default_rng(seed)
    a = random_complex(rng, dim, dim)
    expected = np.trace(compound_matrix(a, r)) if r else 1.0
    assert wedge_trace(a, r) == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_compound_matrix_rejects_bad_order():
    with pytest.raises(ValueError):
        compound_matrix(np.eye(3), 4)
    with pytest.raises(ValueError):
        compound_matrix(np.eye(3), -1)


@given(dim=st.integers(2, 12), r=st.integers(1, 6), seed=st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_wedge_schatten_bound(dim, r, seed):
    # |tr wedge^r A| <= trace_norm(A)^r / r!
    if r > dim:
        r = dim
    rng = np.random.default_rng(seed)
    a = random_complex(rng, dim, dim)
    bound = trace_norm(a) ** r / math.factorial(r)
    assert abs(wedge_trace(a, r)) <= bound * (1.0 + 1e-9)


@given(dim=st.integers(2, 24), seed=st.integers(0, 2**31))
@example(dim=19, seed=17)  # a series stopped at its first term below 1e-12 is off by 2.5e-13
@settings(max_examples=80, deadline=None)
def test_fredholm_series_matches_dense(dim, seed):
    rng = np.random.default_rng(seed)
    a = random_complex(rng, dim, dim)
    a *= min(1.0, 4.0 / trace_norm(a))
    dense = fredholm_det(a, method="dense")
    series = fredholm_det(a, method="series")
    assert series == pytest.approx(dense, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("seed", range(5))
def test_fredholm_series_raises_when_newton_identities_cancel(seed):
    # 64x64 with entries (N(0,1) + i N(0,1)) 3/8: Newton's identities cancel
    # so far that the summed series is up to 5.5e-2 off dense
    a = random_complex(np.random.default_rng(seed), 64, 64, scale=3.0 / 8.0)
    with pytest.raises(SeriesCancellation, match="cancellation"):
        fredholm_det(a, method="series")


@pytest.mark.parametrize("seed", range(5))
def test_wedge_trace_raises_when_newton_identities_cancel(seed):
    # the matrices above: wedge_trace(a, 64) against det(a) is up to 1.0 off
    a = random_complex(np.random.default_rng(seed), 64, 64, scale=3.0 / 8.0)
    with pytest.raises(SeriesCancellation, match="wedge trace e_64 lost its digits"):
        wedge_trace(a, 64)
    with pytest.raises(SeriesCancellation, match="Fredholm series sum of e_r lost its digits"):
        fredholm_det(a, method="series")


def test_fredholm_dense_matches_lu_oracle():
    rng = np.random.default_rng(16)
    a = random_complex(rng, 9, 9, scale=0.4)
    expected = np.linalg.det(np.eye(9) + a)
    assert fredholm_det(a) == pytest.approx(expected, rel=1e-12)


@given(dim=st.integers(2, 16), seed=st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_fredholm_multiplicativity(dim, seed):
    # (I+A)(I+B) = I + (A + B + AB)
    rng = np.random.default_rng(seed)
    a = random_complex(rng, dim, dim, scale=0.5)
    b = random_complex(rng, dim, dim, scale=0.5)
    lhs = fredholm_det(a + b + a @ b)
    rhs = fredholm_det(a) * fredholm_det(b)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_fredholm_rejects_unknown_method():
    with pytest.raises(ValueError):
        fredholm_det(np.eye(3), method="magic")


def test_log_derivative_slope_richardson():
    # d/dt log det(I + tA) at t=0 equals trace(A); two-step Richardson on the
    # centered slope of the determinant itself kills the h^2 term
    rng = np.random.default_rng(17)
    a = random_complex(rng, 10, 10, scale=0.3)

    def slope(eps: float) -> complex:
        up = fredholm_det(eps * a)
        dn = fredholm_det(-eps * a)
        return (up - dn) / (2.0 * eps)

    eps = 1e-5
    rich = (4.0 * slope(eps) - slope(2.0 * eps)) / 3.0
    assert abs(rich - trace(a)) <= 1e-8
