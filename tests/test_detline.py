"""Determinant-line elements, charts, transitions, sewing and the metric."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detbundle._blocks import _cond_ok
from detbundle.detline import (
    LineElement,
    canonical_det,
    chart_coordinate,
    coordinate,
    inner_product,
    metric_norm_sq,
    norm_sq,
    pair_metric_sq,
    sew,
    sew_gauge_factor,
    transition,
)
from detbundle.errors import OutOfChart
from detbundle.grassmann import BaseGrid, Projection, graph_projection, spectral_projection
from detbundle.models import constant_scalar_family
from detbundle.opcalc import fredholm_det

from conftest import _count_calls, random_complex, random_frame


SQUARE_ONLY = {
    "canonical_det": canonical_det,
    "LineElement": lambda m: LineElement(m, m, 1.0),
    "transition": lambda m: transition(m, m, m),
    "spectral_projection": spectral_projection,
    "graph_projection": graph_projection,
}


@pytest.mark.parametrize("call", SQUARE_ONLY.values(), ids=SQUARE_ONLY.keys())
def test_lines_and_projections_need_a_square_matrix(call):
    # opcalc.square_matrix is the one square check behind all five
    with pytest.raises(ValueError, match="square matrix required"):
        call(np.ones((2, 3)))


def test_line_elements_take_no_singular_values(monkeypatch):
    # square_matrix already asks what trace class asks at finite size, so a
    # line element makes no svd to re-check its perturbation
    rng = np.random.default_rng(40)
    calls = _count_calls(monkeypatch, "svd")
    e = sew(canonical_det(np.eye(3) + random_complex(rng, 3, 3, scale=0.2)),
            canonical_det(np.eye(3) + random_complex(rng, 3, 3, scale=0.2)))
    assert e.dim == 3
    assert len(calls) == 0


def test_moved_representative_keeps_the_class():
    rng = np.random.default_rng(41)
    a = np.eye(4) + random_complex(rng, 4, 4, scale=0.2)
    e = canonical_det(a)
    q = np.eye(4) + random_complex(rng, 4, 4, scale=0.2)
    moved = LineElement(e.base, e.rep @ q, e.scale / np.linalg.det(q))
    alpha = random_complex(rng, 4, 4, scale=0.3)
    assert chart_coordinate(moved, alpha) == pytest.approx(chart_coordinate(e, alpha), rel=1e-10)


def test_invertible_base_has_nonzero_coordinate():
    rng = np.random.default_rng(42)
    a = np.eye(5) + random_complex(rng, 5, 5, scale=0.1)
    z = chart_coordinate(canonical_det(a), np.zeros((5, 5)))
    assert abs(z) > 0.1


def test_coordinate_matches_dense_determinant_oracle():
    # z_alpha = scale * det(T) / det(A + alpha) for a representative T
    rng = np.random.default_rng(43)
    a = random_complex(rng, 6, 6)
    t = a @ (np.eye(6) + random_complex(rng, 6, 6, scale=0.2))
    lam = 1.3 - 0.4j
    alpha = random_complex(rng, 6, 6)
    e = LineElement(a, t, lam)
    expected = lam * np.linalg.det(t) / np.linalg.det(a + alpha)
    assert chart_coordinate(e, alpha) == pytest.approx(expected, rel=1e-9)


def test_singular_chart_raises():
    e = canonical_det(np.zeros((3, 3)))
    with pytest.raises(OutOfChart):
        chart_coordinate(e, np.zeros((3, 3)))


def test_transition_of_equal_charts_is_one():
    rng = np.random.default_rng(44)
    a = random_complex(rng, 4, 4)
    alpha = np.eye(4) - a  # keeps A + alpha invertible
    assert transition(a, alpha, alpha) == pytest.approx(1.0)


def test_transition_matches_determinant_ratio():
    rng = np.random.default_rng(45)
    a = random_complex(rng, 5, 5)
    alpha = np.eye(5) + random_complex(rng, 5, 5, scale=0.2)
    beta = 2.0 * np.eye(5) + random_complex(rng, 5, 5, scale=0.2)
    expected = np.linalg.det(a + alpha) / np.linalg.det(a + beta)
    assert transition(a, alpha, beta) == pytest.approx(expected, rel=1e-10)


@given(dim=st.integers(2, 10), seed=st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_transition_cocycle(dim, seed):
    rng = np.random.default_rng(seed)
    a = random_complex(rng, dim, dim)
    shifts = [(k + 1.0) * np.eye(dim) + random_complex(rng, dim, dim, scale=0.2)
              for k in range(3)]
    g01 = transition(a, shifts[0], shifts[1])
    g12 = transition(a, shifts[1], shifts[2])
    g20 = transition(a, shifts[2], shifts[0])
    assert g01 * g12 * g20 == pytest.approx(1.0, rel=1e-9)


@given(dim=st.integers(2, 10), seed=st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_coordinate_gauge_law(dim, seed):
    # changing charts multiplies the coordinate by the transition factor
    rng = np.random.default_rng(seed)
    a = random_complex(rng, dim, dim)
    e = LineElement(a, a @ (np.eye(dim) + random_complex(rng, dim, dim, scale=0.2)),
                    0.7 + 0.2j)
    alpha = np.eye(dim) + random_complex(rng, dim, dim, scale=0.2)
    beta = 2.0 * np.eye(dim) + random_complex(rng, dim, dim, scale=0.2)
    za = chart_coordinate(e, alpha)
    zb = chart_coordinate(e, beta)
    assert zb == pytest.approx(transition(e.base, alpha, beta) * za, rel=1e-10)


# -- inner product ---------------------------------------------------------------


def test_norm_of_unitary_canonical_element_is_one():
    rng = np.random.default_rng(46)
    q, _ = np.linalg.qr(random_complex(rng, 5, 5))
    assert norm_sq(canonical_det(q)) == pytest.approx(1.0, rel=1e-12)


def test_norm_scales_quadratically():
    rng = np.random.default_rng(47)
    a = np.eye(4) + random_complex(rng, 4, 4, scale=0.2)
    e = canonical_det(a)
    mu = 0.3 - 1.1j
    scaled = LineElement(e.base, e.rep, mu * e.scale)
    assert norm_sq(scaled) == pytest.approx(abs(mu) ** 2 * norm_sq(e), rel=1e-12)


def test_norm_matches_dense_determinant_oracle():
    rng = np.random.default_rng(48)
    t = random_complex(rng, 5, 5)
    lam = 0.8 + 0.5j
    e = LineElement(t, t, lam)
    expected = abs(lam) ** 2 * abs(np.linalg.det(t)) ** 2
    assert norm_sq(e) == pytest.approx(expected, rel=1e-10)


def test_inner_product_hermitian_and_antilinear_left():
    rng = np.random.default_rng(49)
    a = np.eye(4) + random_complex(rng, 4, 4, scale=0.3)
    e1 = LineElement(a, a @ (np.eye(4) + random_complex(rng, 4, 4, scale=0.2)), 1.1)
    e2 = LineElement(a, a @ (np.eye(4) + random_complex(rng, 4, 4, scale=0.2)), 0.4j)
    assert inner_product(e1, e2) == pytest.approx(np.conj(inner_product(e2, e1)))
    mu = 0.2 - 0.9j
    assert inner_product(LineElement(e1.base, e1.rep, mu * e1.scale), e2) == pytest.approx(
        np.conj(mu) * inner_product(e1, e2))


# -- sewing ----------------------------------------------------------------------


def test_sew_of_identity_segments_is_identity_toeplitz():
    rng = np.random.default_rng(50)
    p = Projection(random_frame(rng, 6, 3))
    phi = p.matrix @ p.matrix
    sewn = sew(canonical_det(phi), canonical_det(phi))
    target = canonical_det(phi @ phi)
    np.testing.assert_allclose(sewn.base, target.base, atol=1e-12)
    np.testing.assert_allclose(sewn.rep, target.rep, atol=1e-12)
    assert sewn.scale == target.scale


def test_sew_rank_mismatch_raises():
    with pytest.raises(ValueError):
        sew(canonical_det(np.eye(3)), canonical_det(np.eye(2)))


@given(seed=st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_sew_coordinate_multiplicativity(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 9))
    phi01 = np.eye(dim) + random_complex(rng, dim, dim, scale=0.3)
    phi12 = np.eye(dim) + random_complex(rng, dim, dim, scale=0.3)
    alpha = 0.5 * np.eye(dim) + random_complex(rng, dim, dim, scale=0.1)
    beta = 0.5 * np.eye(dim) + random_complex(rng, dim, dim, scale=0.1)
    gamma = 0.5 * np.eye(dim) + random_complex(rng, dim, dim, scale=0.1)
    e01 = canonical_det(phi01)
    e12 = canonical_det(phi12)
    z_sewn = chart_coordinate(sew(e01, e12), gamma)
    za = chart_coordinate(e01, alpha)
    zb = chart_coordinate(e12, beta)
    factor = sew_gauge_factor(phi01, phi12, alpha, beta, gamma)
    assert z_sewn == pytest.approx(za * zb * factor, rel=1e-9)


@given(seed=st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_sew_associativity(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 9))
    mats = [np.eye(dim) + random_complex(rng, dim, dim, scale=0.3) for _ in range(3)]
    e01, e12, e23 = (canonical_det(m) for m in mats)
    gamma = 0.5 * np.eye(dim) + random_complex(rng, dim, dim, scale=0.1)
    left = chart_coordinate(sew(sew(e01, e12), e23), gamma)
    right = chart_coordinate(sew(e01, sew(e12, e23)), gamma)
    assert left == pytest.approx(right, rel=1e-9)


def test_block_triangular_multiplicativity():
    # a block upper-triangular perturbation splits the determinant line; the
    # coordinate in the block-diagonal chart is the product of the blocks'
    rng = np.random.default_rng(51)
    n = 3
    a00 = np.eye(n) + random_complex(rng, n, n, scale=0.2)
    a11 = np.eye(n) + random_complex(rng, n, n, scale=0.2)
    coupling = random_complex(rng, n, n, scale=0.4)
    whole = np.block([[a00, coupling], [np.zeros((n, n)), a11]])
    z = chart_coordinate(canonical_det(whole), np.zeros((2 * n, 2 * n)))
    z0 = chart_coordinate(canonical_det(a00), np.zeros((n, n)))
    z1 = chart_coordinate(canonical_det(a11), np.zeros((n, n)))
    assert z == pytest.approx(z0 * z1, rel=1e-9)


# -- canonical metric -------------------------------------------------------------


def test_pair_metric_matches_restricted_laplacian():
    # oracle: det of P0 P1 P0 restricted to ran(P0) through the regularized
    # determinant of the associated contraction
    rng = np.random.default_rng(52)
    p0 = Projection(random_frame(rng, 8, 3))
    p1 = Projection(random_frame(rng, 8, 3))
    lap = p0.matrix @ p1.matrix @ p0.matrix + (np.eye(8) - p0.matrix)
    expected = fredholm_det(lap - np.eye(8)).real
    assert pair_metric_sq(p0, p1) == pytest.approx(expected, rel=1e-9)


def test_metric_vanishes_exactly_on_kernel_locus():
    g = BaseGrid.line(4, 0.0, 3.0)  # integer potentials at every sample
    fam = constant_scalar_family(g, steps_per_half=512)
    for k in range(4):
        assert metric_norm_sq(fam, (k,)) <= 1e-9


def test_metric_positive_off_kernel_locus():
    g = BaseGrid.line(4, 0.1, 0.9)
    fam = constant_scalar_family(g, steps_per_half=64)
    for k in range(4):
        assert metric_norm_sq(fam, (k,)) > 1e-3


def test_metric_agrees_between_trivializations(demo16, rot16):
    # the canonical norm is chart independent: evaluate the same elements
    # through two different shifted trivializations and compare
    from detbundle.curvature import default_cover, pair_overlap_field, restricted_shift_field

    sec0, sec1 = demo16.boundary_pair()[0], rot16
    overlap = pair_overlap_field(sec0, sec1)
    charts = default_cover(sec0.dim)
    shifts = [restricted_shift_field(sec0, sec1, c) for c in charts[1:3]]
    domains = [_cond_ok(overlap + shift) for shift in shifts]
    both = domains[0] & domains[1]
    assert both.mean() >= 0.95
    checked = 0
    for idx in np.ndindex(*demo16.grid.shape):
        if not both[idx]:
            continue
        e = canonical_det(overlap[idx])
        za = coordinate(e, shifts[0], idx)
        zb = coordinate(e, shifts[1], idx)
        # chart independence: |z_alpha|^2 ||s_alpha||^2 == |z_beta|^2 ||s_beta||^2
        lhs = abs(za) ** 2 * norm_sq(canonical_det(overlap[idx] + shifts[0][idx]))
        rhs = abs(zb) ** 2 * norm_sq(canonical_det(overlap[idx] + shifts[1][idx]))
        assert lhs == pytest.approx(rhs, rel=1e-8)
        checked += 1
    assert checked >= 0.95 * np.prod(demo16.grid.shape)
