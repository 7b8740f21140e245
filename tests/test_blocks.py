"""Closed-form small-block kernels against numpy.linalg, and the two-thread
split of large block stacks."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from detbundle import BaseGrid, additivity_residual, demo_family, rotated_interface
import detbundle._blocks as kernels
from detbundle._blocks import (
    bmm,
    det,
    det_logabs,
    expi,
    orthonormalizer,
    smallest_singular_value,
    su2_coords,
    su2_exp,
    trace_solve,
)

from conftest import STEPS, random_complex


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


def test_su2_kernels_in_place_are_bit_identical_to_the_formulas():
    # the transfer's buffers take the same operations as the closed forms
    rng = np.random.default_rng(90)
    h = 3.0 * rng.standard_normal((3, 50))
    h[:, :3] = 0.0  # theta = 0, where sinc takes its eps
    h[2, 3] = -0.0
    out = tuple(np.empty(50) for _ in range(4))
    for h3 in (h[2], 0.0):
        theta = np.sqrt(h[0] * h[0] + h[1] * h[1] + h3 * h3)
        s = np.sinc(theta / np.pi)
        want = (np.cos(theta), s * h[0], s * h[1], s * h3)
        got = su2_exp(h[0], h[1], h3, out=out)
        assert all(g is o for g, o in zip(got, out))
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert [g.tobytes() for g in su2_exp(h[0], h[1], h3)] == [w.tobytes() for w in want]
    m = random_complex(rng, 50, 2, 2)
    d0, d1, low = m[:, 0, 0].real, m[:, 1, 1].real, m[:, 1, 0]
    want = (0.5 * (d0 + d1), low.real, low.imag, 0.5 * (d0 - d1))
    assert [g.tobytes() for g in su2_coords(m, out=out)] == [w.tobytes() for w in want]


def test_both_returns_both_results_and_raises_the_callers_error_first():
    def fail(message):
        raise ArithmeticError(message)

    on_main = kernels._both(threading.current_thread, threading.current_thread)
    assert on_main[0] is threading.main_thread() and on_main[1] is not on_main[0]
    with pytest.raises(ArithmeticError, match="^caller$"):
        kernels._both(lambda: fail("caller"), lambda: fail("worker"))
    with pytest.raises(ArithmeticError, match="^worker$"):
        kernels._both(lambda: None, lambda: fail("worker"))


def _hermitian(seed: int, blocks: int, n: int) -> np.ndarray:
    a = random_complex(np.random.default_rng(seed), blocks, n, n)
    return 0.5 * (a + np.swapaxes(a.conj(), -1, -2))


def _expi_inline(h: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def test_split_expi_is_bit_identical_to_inline(two_cpus, started):
    # 144 x 65^3 is the cylinder's stack at truncation 32, above the cut-over
    h = _hermitian(80, 144, 65).reshape(12, 12, 65, 65)
    assert 144 >= 2 * max(1, kernels.RANGE_WORK // 65 ** 3)
    assert np.array_equal(expi(h), _expi_inline(h))
    assert started[0] == 1


@pytest.mark.parametrize("first", [0, 1, 5, 8, 13, 32])
def test_expi_kept_columns_are_bit_identical_to_the_full_product(first):
    h = _hermitian(81, 6, 65)
    assert np.array_equal(expi(h, first), _expi_inline(h)[..., first:])


def _thread_path(kernel, blocks=64, n=65):
    """Run kernel through _fill on a stack above the cut-over.  The caller
    holds its first range until the worker has started and ended, so the
    worker runs all its own (odd) ranges first, or stops at its first error."""
    worker, started = [], threading.Event()

    def paced(src, dst):
        if threading.current_thread() is threading.main_thread():
            assert started.wait(10.0)
            worker[0].join(10.0)
            assert not worker[0].is_alive()
        elif not started.is_set():
            worker.append(threading.current_thread())
            started.set()
        kernel(src, dst)

    src = np.zeros((blocks, n, n))
    kernels._fill(paced, src, np.empty_like(src))


def test_every_range_is_handed_out_once(two_cpus, monkeypatch):
    # one block per range and a short switch interval: ranges that both
    # threads ran, or neither, would fill a block twice or leave it empty
    monkeypatch.setattr(kernels, "RANGE_WORK", 1)
    out = np.zeros((20000, 1, 1))

    def kernel(src, dst):
        dst += 1.0

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        kernels._fill(kernel, out.copy(), out)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(out, np.ones_like(out))


def test_worker_error_is_raised_in_the_caller(two_cpus):
    taken = []

    def kernel(src, dst):
        taken.append(threading.current_thread() is threading.main_thread())
        if not taken[-1]:
            raise ArithmeticError("range failed in the worker")

    with pytest.raises(ArithmeticError, match="^range failed in the worker$"):
        _thread_path(kernel)
    # the worker stops at its first range; the caller runs its own 5 even
    # ranges of the 10 (7 blocks each)
    assert taken == [False] + [True] * 5


def test_worker_honours_the_callers_errstate(two_cpus):
    def kernel(src, dst):
        if threading.current_thread() is not threading.main_thread():
            dst[...] = 1.0 / src

    with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
        _thread_path(kernel)


def test_no_thread_below_the_cut_over(two_cpus, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading, "Thread", refuse)
    h = _hermitian(82, 36, 33)
    assert np.array_equal(expi(h), _expi_inline(h))
    fam = demo_family(BaseGrid.torus(16, 16), steps_per_half=STEPS)
    additivity_residual(fam, rotated_interface(fam))


def _noop(src, dst) -> None:
    pass


# the rows of the measured crossover table above _blocks.RANGE_WORK: the split
# was faster from 4e6 n^3 * blocks on
@pytest.mark.parametrize("blocks, n, threads", [
    (500, 9, 0), (36, 33, 0), (2000, 9, 0), (72, 33, 0), (4000, 9, 0),
    (150000, 3, 1), (1000, 17, 1), (144, 33, 1), (144, 65, 1), (64, 129, 1)])
def test_crossover_table_rows_keep_their_side(two_cpus, started, blocks, n, threads):
    stack = np.empty((blocks, n, n))
    kernels._fill(_noop, stack, stack)
    assert started[0] == threads


@pytest.mark.parametrize("n", [3, 9, 65, 129])
def test_split_from_two_ranges_on(two_cpus, started, n):
    step = max(1, kernels.RANGE_WORK // n ** 3)
    for blocks, threads in ((2 * step - 1, 0), (2 * step, 1)):
        stack = np.empty((blocks, n, n))
        kernels._fill(_noop, stack, stack)
        assert started[0] == threads


def test_caller_runs_the_even_ranges_and_the_worker_the_odd(two_cpus, started):
    n, step = 65, 7
    assert max(1, kernels.RANGE_WORK // n ** 3) == step
    out = np.full((64, n, n), -1.0)

    def kernel(src, dst):
        dst[...] = threading.current_thread() is not threading.main_thread()

    kernels._fill(kernel, np.empty_like(out), out)
    assert started[0] == 1
    for i, lo in enumerate(range(0, 64, step)):
        assert (out[lo:lo + step] == i % 2).all()


_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_HASH_SCRIPT = """
import hashlib
import detbundle
import numpy as np
a = np.random.default_rng(0).standard_normal((129, 129))
w, v = np.linalg.eigh(a + a.T)
print(hashlib.sha256((a @ a).tobytes() + w.tobytes() + v.tobytes()).hexdigest())
"""


def _python(script: str, pin: str | None, *args: str) -> str:
    """Stdout of script in a fresh interpreter, the BLAS variables at pin or unset."""
    env = {k: v for k, v in os.environ.items() if k not in _PINS}
    env.update(dict.fromkeys(_PINS, pin) if pin else {})
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, "-c", script, *args], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_importing_detbundle_first_pins_blas_to_one_thread():
    # at n = 129 the BLAS rounds differently at 1 and 2 threads; on a 1-CPU
    # runner both runs take one thread, and the test passes trivially
    assert _python(_HASH_SCRIPT, None) == _python(_HASH_SCRIPT, "1")


_SPLIT_SCRIPT = """
import sys
import threading
if sys.argv[1] == "numpy":
    import numpy
import detbundle._blocks as kernels
import numpy as np
started = []
start = threading.Thread.start
threading.Thread.start = lambda self: started.append(1) or start(self)
kernels._cpus = lambda: 2
a = np.random.default_rng(0).standard_normal((144, 65, 65))
kernels.expi(a + np.swapaxes(a, -1, -2))
print(len(started))
"""


def test_expi_splits_only_while_blas_is_pinned():
    # numpy imported first with the variables unset: its BLAS may run one
    # thread per CPU, so the cylinder's stack runs inline
    assert _python(_SPLIT_SCRIPT, None, "numpy") == "0\n"
    assert _python(_SPLIT_SCRIPT, None, "detbundle") == "1\n"
