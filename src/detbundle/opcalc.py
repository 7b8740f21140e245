"""Trace calculus for dense complex matrices.

Finite matrices stand in for trace-class perturbations of the identity, so
every regularized quantity here reduces to exact linear algebra.  Determinants
of ``I + A`` are exposed both through an LU route and through the exterior
power series rebuilt from power-sum traces; the two must agree and tests hold
them to that.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import SeriesCancellation

__all__ = [
    "SchattenProfile",
    "trace",
    "trace_norm",
    "schatten_profile",
    "wedge_trace",
    "fredholm_det",
    "compound_matrix",
]


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a finite complex 2-d array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def square_matrix(a) -> np.ndarray:
    """``as_matrix(a)``, required to be square."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"square matrix required, got shape {m.shape}")
    return m


def trace(a) -> complex:
    """Sum of diagonal entries of a square matrix."""
    return complex(np.trace(square_matrix(a)))


def trace_norm(a) -> float:
    """Schatten-1 norm: sum of singular values."""
    return schatten_profile(a).trace_norm


def operator_norm(a) -> float:
    """Largest singular value."""
    return schatten_profile(a).operator_norm


@dataclass(frozen=True)
class SchattenProfile:
    """Recorded norm pair of a finite operator, with operator_norm <= trace_norm."""

    trace_norm: float
    operator_norm: float

    def __post_init__(self):
        if not (np.isfinite(self.trace_norm) and np.isfinite(self.operator_norm)):
            raise ValueError("norms must be finite")
        if self.operator_norm > self.trace_norm + 1e-12 * max(1.0, self.trace_norm):
            raise ValueError("operator norm cannot exceed trace norm")


def schatten_profile(a) -> SchattenProfile:
    """Both norms from one svd; its singular values come largest first."""
    s = np.linalg.svd(as_matrix(a), compute_uv=False)
    top = float(s[0]) if s.size else 0.0
    return SchattenProfile(trace_norm=float(np.sum(s)), operator_norm=top)


def _power_traces(a: np.ndarray, rmax: int) -> np.ndarray:
    p = np.empty(rmax + 1, dtype=complex)
    p[0] = a.shape[0]
    pw = np.eye(a.shape[0], dtype=complex)
    for k in range(1, rmax + 1):
        pw = pw @ a
        p[k] = np.trace(pw)
    return p


def _elementary_from_powers(p: np.ndarray):
    """e_0, e_1, ... of the eigenvalues from the power sums p[0..rmax], and the
    largest Newton term |e_{r-k} p_k| / r met on the way."""
    # Newton's identities: r*e_r = sum_{k=1..r} (-1)^(k-1) e_{r-k} p_k
    e = np.zeros(len(p), dtype=complex)
    e[0] = 1.0
    largest = 0.0
    for r in range(1, len(p)):
        acc = 0.0 + 0.0j
        sign = 1.0
        for k in range(1, r + 1):
            term = sign * e[r - k] * p[k]
            acc += term
            largest = max(largest, abs(term) / r)
            sign = -sign
        e[r] = acc / r
    return e, largest


# Newton's identities are trusted while eps * (largest term) / max(1, |value|) <= SERIES_TOL
SERIES_TOL = 1e-10


def _checked(value: complex, largest: float, what: str) -> complex:
    """``value``, or SeriesCancellation naming ``what`` when its rounding estimate exceeds SERIES_TOL."""
    estimate = np.finfo(float).eps * largest / max(1.0, abs(value))
    if estimate > SERIES_TOL:
        raise SeriesCancellation(f"{what} lost its digits to cancellation: "
                                 f"relative error estimate {estimate:.1e} exceeds {SERIES_TOL:.0e}")
    return complex(value)


def wedge_trace(a, r: int) -> complex:
    """Trace of the r-th exterior power of ``a``.

    The r-th elementary symmetric function of the eigenvalues, from power-sum
    traces through Newton's identities (no eigendecomposition); raises
    SeriesCancellation when they cancel.  1 for r = 0, exactly 0 for r > dim.
    """
    m = square_matrix(a)
    if not isinstance(r, (int, np.integer)) or r < 0:
        raise ValueError("wedge order must be a non-negative integer")
    if r > m.shape[0]:
        return 0.0 + 0.0j
    e, largest = _elementary_from_powers(_power_traces(m, r))
    return _checked(e[r], largest, f"wedge trace e_{r}")


def fredholm_det(a, method: str = "dense") -> complex:
    """Regularized determinant det(I + A) of a finite matrix A.

    method="dense" evaluates det(I + A) by LU.  method="series" sums the
    exterior-power traces e_0 + e_1 + ... + e_dim, a finite series.  Newton's
    identities cancel when their terms dwarf the result (Bornemann, Math. Comp.
    79 (2010)); the series raises SeriesCancellation when eps times its
    largest term exceeds SERIES_TOL * max(1, |det|).
    """
    m = square_matrix(a)
    n = m.shape[0]
    if method == "dense":
        return complex(np.linalg.det(np.eye(n) + m))
    if method != "series":
        raise ValueError(f"unknown method {method!r}")
    e, largest = _elementary_from_powers(_power_traces(m, n))
    return _checked(sum(e), largest, "Fredholm series sum of e_r")  # summed in order, e_0 first


def compound_matrix(a, r: int) -> np.ndarray:
    """r-th compound (exterior power) matrix, entries det(a[I, J]) over r-subsets.

    Intended for small dimensions; used to check wedge bounds against the
    Schatten calculus.
    """
    m = square_matrix(a)
    n = m.shape[0]
    if not isinstance(r, (int, np.integer)) or r < 0 or r > n:
        raise ValueError("compound order must satisfy 0 <= r <= dim")
    if r == 0:
        return np.ones((1, 1), dtype=complex)
    subsets = np.array(list(combinations(range(n), r)))
    # minors[i, j] = m[subsets[i]][:, subsets[j]], all in one stacked det
    minors = m[subsets[:, None, :, None], subsets[None, :, None, :]]
    return np.linalg.det(minors).astype(complex)
