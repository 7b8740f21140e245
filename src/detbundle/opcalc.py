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

__all__ = [
    "SchattenProfile",
    "as_matrix",
    "trace",
    "trace_norm",
    "operator_norm",
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


def _square(a) -> np.ndarray:
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"square matrix required, got shape {m.shape}")
    return m


def trace(a) -> complex:
    """Sum of diagonal entries of a square matrix."""
    return complex(np.trace(_square(a)))


def _singular_values(a) -> np.ndarray:
    # eigenvalues of A*A are the squared singular values; clip roundoff
    m = as_matrix(a)
    w = np.linalg.eigvalsh(m.conj().T @ m)
    return np.sqrt(np.clip(w, 0.0, None))


def trace_norm(a) -> float:
    """Schatten-1 norm: sum of singular values."""
    return float(np.sum(_singular_values(a)))


def operator_norm(a) -> float:
    """Largest singular value."""
    s = _singular_values(a)
    return float(s[-1]) if s.size else 0.0


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
    s = _singular_values(a)
    top = float(s[-1]) if s.size else 0.0
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
    """Yield e_1, e_2, ... of the eigenvalues from the power sums p[0..rmax]."""
    # Newton's identities: r*e_r = sum_{k=1..r} (-1)^(k-1) e_{r-k} p_k
    e = np.zeros(len(p), dtype=complex)
    e[0] = 1.0
    for r in range(1, len(p)):
        acc = 0.0 + 0.0j
        sign = 1.0
        for k in range(1, r + 1):
            acc += sign * e[r - k] * p[k]
            sign = -sign
        e[r] = acc / r
        yield e[r]


def wedge_trace(a, r: int) -> complex:
    """Trace of the r-th exterior power of ``a``.

    Equals the r-th elementary symmetric function of the eigenvalues,
    computed from power-sum traces through Newton's identities (no
    eigendecomposition).  Returns 1 for r = 0 and exactly 0 for r > dim.
    """
    m = _square(a)
    if not isinstance(r, (int, np.integer)) or r < 0:
        raise ValueError("wedge order must be a non-negative integer")
    n = m.shape[0]
    if r == 0:
        return 1.0 + 0.0j
    if r > n:
        return 0.0 + 0.0j
    *_, e_r = _elementary_from_powers(_power_traces(m, r))
    return complex(e_r)


def fredholm_det(a, method: str = "dense") -> complex:
    """Regularized determinant det(I + A) of a finite matrix A.

    method="dense" evaluates det(I + A) by LU.  method="series" sums the
    exterior-power traces and truncates once the incremental term drops
    below 1e-12 * (1 + |partial sum|); the series is finite (order <= dim)
    so truncation only saves work.
    """
    m = _square(a)
    n = m.shape[0]
    if method == "dense":
        return complex(np.linalg.det(np.eye(n) + m))
    if method != "series":
        raise ValueError(f"unknown method {method!r}")
    total = 1.0 + 0.0j
    for e_r in _elementary_from_powers(_power_traces(m, n)):
        total += e_r
        if abs(e_r) < 1e-12 * (1.0 + abs(total)):
            break
    return complex(total)


def compound_matrix(a, r: int) -> np.ndarray:
    """r-th compound (exterior power) matrix, entries det(a[I, J]) over r-subsets.

    Intended for small dimensions; used to check wedge bounds against the
    Schatten calculus.
    """
    m = _square(a)
    n = m.shape[0]
    if not isinstance(r, (int, np.integer)) or r < 0 or r > n:
        raise ValueError("compound order must satisfy 0 <= r <= dim")
    if r == 0:
        return np.ones((1, 1), dtype=complex)
    subsets = np.array(list(combinations(range(n), r)))
    # minors[i, j] = m[subsets[i]][:, subsets[j]], all in one stacked det
    minors = m[subsets[:, None, :, None], subsets[None, :, None, :]]
    return np.linalg.det(minors).astype(complex)
