"""Kernels on stacks of small blocks.

np.linalg and np.matmul make one LAPACK or BLAS call per block, which
dominates on stacks of thousands of tiny blocks.  Blocks with at most two
rows and columns get elementwise closed forms here; larger blocks fall
through to numpy.  expi's closed form is the 1x1 phase; 2x2 exponentials are
taken in su(2) coordinates, a unit quaternion per block (su2_exp, su2_unitary).
"""

from __future__ import annotations

import numpy as np


def bmm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched product a @ b; elementwise when the output block is at most 2x2.

    The inner dimension is arbitrary.  Terms are summed left to right, so
    1x1 and 2x2 square blocks give a*b and a0*b0 + a1*b1 exactly.
    """
    p, n, q = a.shape[-2], a.shape[-1], b.shape[-1]
    if n == 1:
        return a * b
    if p > 2 or q > 2:
        return a @ b
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (p, q)
    out = np.empty(shape, dtype=np.result_type(a, b))
    for i in range(p):
        for j in range(q):
            acc = a[..., i, 0] * b[..., 0, j]
            for m in range(1, n):
                acc += a[..., i, m] * b[..., m, j]
            out[..., i, j] = acc
    return out


def su2_coords(h: np.ndarray):
    """(h0, h1, h2, h3) with H = h0 I + (h1, h2, h3) . sigma, per 2x2 block.

    Reads only the diagonal and the lower triangle, like eigh; no view keeps h alive.
    """
    d0, d1 = h[..., 0, 0].real, h[..., 1, 1].real
    low = h[..., 1, 0]  # h1 + i h2
    return 0.5 * (d0 + d1), low.real.copy(), low.imag.copy(), 0.5 * (d0 - d1)


def su2_exp(h1, h2, h3):
    """Unit quaternion (e0, e1, e2, e3) with exp(i h . sigma) = e0 I + i e . sigma."""
    theta = np.sqrt(h1 * h1 + h2 * h2 + h3 * h3)
    e0, s = np.cos(theta), np.sinc(theta / np.pi)
    return e0, s * h1, s * h2, s * h3


def su2_unitary(phase, q0, q1, q2, q3) -> np.ndarray:
    """The 2x2 blocks phase (q0 I + i q . sigma), one per grid point."""
    t = np.empty(np.shape(q0) + (2, 2), dtype=complex)
    t[..., 0, 0] = phase * (q0 + 1j * q3)
    t[..., 0, 1] = phase * (q2 + 1j * q1)
    t[..., 1, 0] = phase * (1j * q1 - q2)
    t[..., 1, 1] = phase * (q0 - 1j * q3)
    return t


def expi(h: np.ndarray) -> np.ndarray:
    """exp(i H) for Hermitian H (batched): a phase for 1x1 blocks, one eigh above."""
    if h.shape[-1] == 1:
        return np.exp(1j * h.real)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def det(m: np.ndarray) -> np.ndarray:
    """Determinant of every block; closed forms up to 2x2, 1 for 0x0 blocks."""
    k = m.shape[-1]
    if k == 0:
        return np.ones(m.shape[:-2], dtype=m.dtype)
    if k == 1:
        return m[..., 0, 0].copy()
    if k == 2:
        return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    return np.linalg.det(m)


def smallest_singular_value(m: np.ndarray) -> np.ndarray:
    """Smallest singular value of every block; +inf for 0x0 blocks.

    For 2x2, s_min = |det| / s_max with
    s_max^2 = (|M|_F^2 + sqrt(|M|_F^4 - 4 |det|^2)) / 2.  With column norms
    p, r and column overlap w, |M|_F^4 - 4 |det|^2 = (p - r)^2 + 4 |w|^2,
    which is evaluated in that form: it does not cancel when the two singular
    values are close (scalar multiples of unitaries).
    """
    k = m.shape[-1]
    if k == 0:
        return np.full(m.shape[:-2], np.inf)
    if k == 1:
        return np.abs(m[..., 0, 0])
    if k != 2:
        return np.linalg.svd(m, compute_uv=False)[..., -1]
    c0, c1 = m[..., :, 0], m[..., :, 1]
    p = (c0.real * c0.real + c0.imag * c0.imag).sum(axis=-1)
    r = (c1.real * c1.real + c1.imag * c1.imag).sum(axis=-1)
    w = np.abs((c0.conj() * c1).sum(axis=-1))
    half_gap = 0.5 * (p - r)
    smax = np.sqrt(0.5 * (p + r) + np.sqrt(half_gap * half_gap + w * w))
    d = np.abs(det(m))
    return np.where(smax > 0, d / np.where(smax > 0, smax, 1.0), 0.0)


def largest_singular_value(m: np.ndarray) -> np.ndarray:
    """Largest singular value (operator 2-norm) of every block, by one svd."""
    return np.linalg.svd(m, compute_uv=False)[..., 0]


def det_logabs(m: np.ndarray):
    """(det M, log|det M|) of every block; closed forms up to 2x2, one slogdet above."""
    if m.shape[-1] > 2:
        sign, logabs = np.linalg.slogdet(m)
        return sign * np.exp(logabs), logabs
    d = det(m)
    return d, np.log(np.abs(d))


def trace_solve(m: np.ndarray, ts) -> list[np.ndarray]:
    """tr(M^-1 T) of every block for each T in ts; 0 for 0x0 blocks.

    Up to 2x2 it is tr(adj(M) T) / det M; larger blocks make one solve with
    the right-hand sides stacked.
    """
    k = m.shape[-1]
    if k > 2:
        x = np.linalg.solve(m, np.concatenate(ts, axis=-1))
        return [np.trace(x[..., i * k:(i + 1) * k], axis1=-2, axis2=-1) for i in range(len(ts))]
    if k == 0:
        return [np.zeros(m.shape[:-2], dtype=complex) for _ in ts]
    d = det(m)
    if k == 1:
        return [t[..., 0, 0] / d for t in ts]
    return [(m[..., 1, 1] * t[..., 0, 0] - m[..., 0, 1] * t[..., 1, 0]
             - m[..., 1, 0] * t[..., 0, 1] + m[..., 0, 0] * t[..., 1, 1]) / d for t in ts]


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# condition-number bound of a chart domain: sigma_max <= COND_BOUND * sigma_min
COND_BOUND = 1e8


def _cond_ok(m: np.ndarray) -> np.ndarray:
    """Per matrix of a stack: nonzero and within COND_BOUND."""
    s = np.linalg.svd(m, compute_uv=False)
    return (s[..., -1] * COND_BOUND >= s[..., 0]) & (s[..., 0] > 0)


def orthonormalizer(a: np.ndarray) -> np.ndarray:
    """Upper-triangular R^-1 with R* R = a, so X R^-1 is orthonormal when X* X = a;
    R* is the Cholesky factor of a."""
    return np.swapaxes(np.linalg.inv(np.linalg.cholesky(a)).conj(), -1, -2)
