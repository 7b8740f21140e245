"""Determinant lines of finite operator families.

An element of the line over a base operator A is an equivalence class
[T, scale] with T - A trace class; [T q, scale] and [T, det(q) scale] agree
whenever q is a determinant-class change of T.  At finite size every
perturbation qualifies, so the calculus below is exact linear algebra; the
charts, transition factors and sewing maps are the parts that survive the
infinite-dimensional limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blocks import _cond_ok, bmm, det
from .errors import OutOfChart
from .grassmann import Projection
from .opcalc import as_matrix, fredholm_det, square_matrix

__all__ = [
    "LineElement",
    "canonical_det",
    "chart_coordinate",
    "coordinate",
    "transition",
    "inner_product",
    "norm_sq",
    "sew",
    "sew_gauge_factor",
    "metric_norm_sq",
]


@dataclass(frozen=True)
class LineElement:
    """Class [rep, scale] in the determinant line of the square operator ``base``."""

    base: np.ndarray
    rep: np.ndarray
    scale: complex

    def __post_init__(self):
        b = square_matrix(self.base)
        r = square_matrix(self.rep)
        if b.shape != r.shape:
            raise ValueError("representative and base act on different spaces")
        object.__setattr__(self, "base", b)
        object.__setattr__(self, "rep", r)
        object.__setattr__(self, "scale", complex(self.scale))

    @property
    def dim(self) -> int:
        return self.base.shape[0]


def canonical_det(a) -> LineElement:
    """Canonical element [A, 1] of the determinant line of A."""
    return LineElement(a, a, 1.0)


def _chart_det(m: np.ndarray, rhs: np.ndarray, message: str) -> complex:
    """det(m^-1 rhs) as fredholm_det(q - I); OutOfChart(message) when m fails COND_BOUND."""
    if not _cond_ok(m):
        raise OutOfChart(message)
    q = np.linalg.solve(m, rhs)
    return fredholm_det(q - np.eye(q.shape[0]))


def chart_coordinate(e: LineElement, alpha) -> complex:
    """Coordinate of ``e`` in the chart shifted by the finite-rank matrix alpha.

    Equals scale * det((A + alpha)^-1  rep); raises OutOfChart when A + alpha
    fails the chart's condition bound.
    """
    return e.scale * _chart_det(e.base + as_matrix(alpha), e.rep,
                                "base + shift is not invertible within the condition bound")


def transition(a, alpha, beta) -> complex:
    """Chart transition factor det((A + alpha)(A + beta)^-1) between two shifts."""
    a = square_matrix(a)
    return _chart_det(a + as_matrix(beta), a + as_matrix(alpha),
                      "beta-chart is not invertible at this point")


def coordinate(e: LineElement, shifts: np.ndarray, idx) -> complex:
    """Coordinate of ``e`` in the chart of a grid field of shifts at grid index ``idx``."""
    return chart_coordinate(e, shifts[idx])


def inner_product(e1: LineElement, e2: LineElement) -> complex:
    """Hermitian pairing conj(scale1) scale2 det(rep1* rep2), antilinear on the left."""
    if e1.base.shape != e2.base.shape:
        raise ValueError("elements live over different spaces")
    m = e1.rep.conj().T @ e2.rep
    return np.conj(e1.scale) * e2.scale * fredholm_det(m - np.eye(e1.dim))


def norm_sq(e: LineElement) -> float:
    return float(inner_product(e, e).real)


def sew(e01: LineElement, e12: LineElement) -> LineElement:
    """Compose line elements of two adjoining operator segments.

    The representative is the composition through the shared middle space and
    the scales multiply; the base composes the same way.
    """
    if e12.base.shape[1] != e01.base.shape[0]:
        raise ValueError("rank mismatch: segments do not share the middle space")
    return LineElement(e12.base @ e01.base, e12.rep @ e01.rep, e12.scale * e01.scale)


def sew_gauge_factor(phi01, phi12, alpha, beta, gamma) -> complex:
    """Chart correction relating sewn coordinates to the product of factors.

    With z evaluated in charts alpha, beta for the two segments and gamma for
    the composite, z_gamma(sew) = z_alpha * z_beta * factor.  The factor is
    det((Phi12 Phi01 + gamma)^-1 (Phi12 + beta)(Phi01 + alpha)) and collapses
    to 1 when gamma is the composition of the shifted segment charts.
    """
    phi01 = as_matrix(phi01)
    phi12 = as_matrix(phi12)
    return _chart_det(phi12 @ phi01 + as_matrix(gamma),
                      (phi12 + as_matrix(beta)) @ (phi01 + as_matrix(alpha)),
                      "composite chart is not invertible at this point")


def frame_metric_sq(f0: np.ndarray, f1: np.ndarray) -> np.ndarray:
    """Squared canonical metric |det(F1* F0)|^2 of (stacked) orthonormal range frames.

    This is det of the restricted pair Laplacian (P0 P1 P0)|ran(P0), so it
    does not depend on the choice of frames; rank 0 gives 1.
    """
    return np.abs(det(bmm(np.swapaxes(f1.conj(), -1, -2), f0))) ** 2


def pair_metric_sq(p0: Projection, p1: Projection) -> float:
    """Squared canonical norm of the determinant of the pair compression."""
    if p0.rank != p1.rank:
        raise ValueError("pair metric needs equal ranks")
    return float(frame_metric_sq(p0.frame(), p1.frame()))


def metric_norm_sq(model, idx) -> float:
    """Canonical metric of the model's full boundary pair at one grid point."""
    sec0, sec1 = model.boundary_pair()
    return float(frame_metric_sq(sec0.frames()[idx], sec1.frames()[idx]))
