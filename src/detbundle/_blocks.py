"""Kernels on stacks of small blocks.

np.linalg and np.matmul make one LAPACK or BLAS call per block, which
dominates on stacks of thousands of tiny blocks.  Blocks with at most two
rows and columns get elementwise closed forms here; larger blocks fall
through to numpy.  expi's closed form is the 1x1 phase; 2x2 exponentials are
taken in su(2) coordinates, a unit quaternion per block (su2_exp, su2_unitary).

Work that splits into independent parts runs on the calling thread and at
most one worker (_both): a large stack of blocks (_fill, so expi) while the
BLAS is pinned, and the two half-circle transfers of models.Dirac1DFamily.
Every part takes the same calls on the same data either way, so no output
depends on whether or how the work is split.  No other module starts a thread.
"""

from __future__ import annotations

import contextvars
import os
import threading

import numpy as np

from . import _BLAS_PINNED


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


def _outs(out, shape) -> tuple:
    return out if out is not None else tuple(np.empty(shape) for _ in range(4))


def su2_coords(h: np.ndarray, out=None):
    """(h0, h1, h2, h3) with H = h0 I + (h1, h2, h3) . sigma, per 2x2 block.

    Reads only the diagonal and the lower triangle, like eigh; no view keeps h
    alive.  With out, four float arrays of the grid's shape, they are filled.
    """
    d0, d1 = h[..., 0, 0].real, h[..., 1, 1].real
    low = h[..., 1, 0]  # h1 + i h2
    c0, c1, c2, c3 = out = _outs(out, d0.shape)
    np.add(d0, d1, out=c0)
    c0 *= 0.5
    np.copyto(c1, low.real)
    np.copyto(c2, low.imag)
    np.subtract(d0, d1, out=c3)
    c3 *= 0.5
    return out


def su2_exp(h1, h2, h3, out=None):
    """Unit quaternion (e0, e1, e2, e3) with exp(i h . sigma) = e0 I + i e . sigma.

    With out, four float arrays of the broadcast shape that share no memory
    with h, they are filled.  The operations are those of
    cos(theta), sinc(theta / pi) * h with theta = |h|, in numpy's order.
    """
    e0, e1, e2, e3 = out = _outs(out, np.broadcast_shapes(np.shape(h1), np.shape(h2), np.shape(h3)))
    np.multiply(h1, h1, out=e0)
    e0 += np.multiply(h2, h2, out=e1)
    e0 += np.multiply(h3, h3, out=e1)
    theta = np.sqrt(e0, out=e0)
    # np.sinc(t) = sin(y) / y with y = pi t, and eps in place of y = 0
    y = np.multiply(np.divide(theta, np.pi, out=e1), np.pi, out=e1)
    np.copyto(y, np.finfo(float).eps, where=y == 0)
    s = np.divide(np.sin(y, out=e2), y, out=e1)
    np.cos(theta, out=e0)
    np.multiply(s, h2, out=e2)
    np.multiply(s, h3, out=e3)
    np.multiply(s, h1, out=e1)
    return out


def su2_unitary(phase, q0, q1, q2, q3) -> np.ndarray:
    """The 2x2 blocks phase (q0 I + i q . sigma), one per grid point."""
    t = np.empty(np.shape(q0) + (2, 2), dtype=complex)
    t[..., 0, 0] = phase * (q0 + 1j * q3)
    t[..., 0, 1] = phase * (q2 + 1j * q1)
    t[..., 1, 0] = phase * (1j * q1 - q2)
    t[..., 1, 1] = phase * (q0 - 1j * q3)
    return t


# Ranges hold about RANGE_WORK n^3 * blocks (at least one block); a stack is
# split between two threads from two ranges on, so from about 4e6.  Measured
# crossover, expi on random Hermitian stacks, median of 11, 2-vCPU VM with one
# BLAS thread, splitting forced at every size:
#   blocks x n     n^3 * blocks   inline     split
#     500 x 9           0.4e6     14.0 ms    17.4 ms
#      36 x 33          1.3e6     14.6 ms    14.6 ms   (one range)
#    2000 x 9           1.5e6     62.1 ms    56.9 ms
#      72 x 33          2.6e6     27.8 ms    24.7 ms
#    4000 x 9           2.9e6    117.1 ms    76.9 ms
#  150000 x 3           4.0e6    802.8 ms   558.2 ms
#    1000 x 17          4.9e6    110.1 ms    63.9 ms
#     144 x 33          5.2e6     56.9 ms    34.5 ms
#     144 x 65         39.5e6    153.9 ms    95.1 ms
#      64 x 129       137.4e6    318.1 ms   185.7 ms
RANGE_WORK = 2_000_000


def _cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _both(first, second):
    """(first(), second()), second on one worker thread.

    The worker runs in a copy of the caller's context, so np.errstate holds
    there too.  It is joined before anything is raised; an error of first
    is raised before one of second.
    """
    got = []

    def work() -> None:
        try:
            got.append((second(), None))
        except BaseException as exc:
            got.append((None, exc))

    worker = threading.Thread(target=contextvars.copy_context().run, args=(work,))
    worker.start()
    try:
        a = first()
    finally:
        worker.join()
    b, error = got[0]
    if error is not None:
        raise error
    return a, b


def _fill(kernel, src: np.ndarray, out: np.ndarray) -> None:
    """kernel(src[lo:hi], out[lo:hi]) over the (blocks, n, n) stack src, filling out.

    From two ranges on, with 2 CPUs and the BLAS pinned to one thread (its
    eigh is threaded otherwise), the caller runs the even ranges and one
    worker thread (_both) the odd ones, so the two share no state.  A thread
    stops at its own first error, which is raised after the join.
    """
    blocks, n = src.shape[0], src.shape[-1]
    step = max(1, RANGE_WORK // n ** 3)
    if blocks < 2 * step or _cpus() < 2 or not _BLAS_PINNED:
        kernel(src, out)
        return

    def run(first: int) -> None:
        for lo in range(first * step, blocks, 2 * step):
            kernel(src[lo:lo + step], out[lo:lo + step])

    _both(lambda: run(0), lambda: run(1))


def expi(h: np.ndarray, first: int = 0) -> np.ndarray:
    """exp(i H)[..., first:] for Hermitian H (batched): the columns from first on.

    A phase for 1x1 blocks, one eigh above.  The product forms the columns
    from the multiple of 8 at or below first: the BLAS computes output columns
    in tiles (of 4 on the AVX-512 zgemm kernel), so a start on a tile edge
    makes every kept column bit-equal to that column of the full product.
    """
    n = h.shape[-1]
    if n == 1:
        return np.exp(1j * h.real)[..., first:]
    lead = first - first % 8

    def kernel(blk, dst):
        w, v = np.linalg.eigh(blk)
        np.matmul(v * np.exp(1j * w)[..., None, :], np.swapaxes(v[..., lead:, :].conj(), -1, -2), out=dst)

    out = np.empty(h.shape[:-1] + (n - lead,), dtype=complex)
    _fill(kernel, h.reshape(-1, n, n), out.reshape(-1, n, n - lead))
    return out[..., first - lead:]


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
