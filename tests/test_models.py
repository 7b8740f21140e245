"""Transfer-matrix families, Cauchy-data bundles and the truncated cylinder."""

import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from detbundle import models, verify
from detbundle._blocks import bmm, su2_coords, su2_exp, su2_unitary
from detbundle.detline import metric_norm_sq
from detbundle.grassmann import BaseGrid, graph_projection
from detbundle.models import (
    DEMO_COEFFICIENTS,
    CylinderFamily,
    Dirac1DFamily,
    _expi,
    coefficient_family,
    constant_scalar_family,
    demo_family,
    potential_from_coefficients,
    rotated_interface,
    smoothing_perturbation,
    vortex_interface,
)
from detbundle.opcalc import trace_norm

from conftest import _count_calls


# -- transfer matrices ------------------------------------------------------------


def test_zero_potential_transfer_is_identity():
    fam = constant_scalar_family(BaseGrid.line(4, 0.0, 1.0), value=0.0, rank=2,
                                 steps_per_half=16)
    t = fam.transfer_field(0.0, 2.0 * np.pi)[0]
    np.testing.assert_allclose(t, np.eye(2), atol=1e-12)


def test_constant_scalar_transfer_closed_form():
    # oracle: i psi' = c psi integrates to exp(i c dx)
    g = BaseGrid.line(5, 0.3, 0.7)
    fam = constant_scalar_family(g, steps_per_half=512)
    c = g.axis_coords(0)
    t = fam.transfer_field(0.0, 0.5 * np.pi)
    expected = np.exp(1j * c * 0.5 * np.pi)
    assert np.abs(t[:, 0, 0] - expected).max() <= 1e-9


def test_transfer_composition():
    fam = demo_family(BaseGrid.torus(6, 6), steps_per_half=32)
    whole = fam.transfer_field(0.0, 2.0 * np.pi)
    halves = fam.transfer_field(np.pi, 2.0 * np.pi) @ fam.transfer_field(0.0, np.pi)
    assert np.abs(whole - halves).max() <= 1e-10


def test_transfer_inverse_direction():
    # transfers only run forward; T(pi -> 0) is not cached as an inverse
    fam = demo_family(BaseGrid.torus(6, 6), steps_per_half=32)
    with pytest.raises(ValueError, match="forward"):
        fam.transfer_field(np.pi, 0.0)
    assert fam._flows == {}


def test_transfer_unitarity_for_hermitian_potential():
    fam = demo_family(BaseGrid.torus(6, 6), steps_per_half=128)
    t = fam.transfer_field(0.0, 2.0 * np.pi)
    th = np.swapaxes(t.conj(), -1, -2)
    assert np.abs(th @ t - np.eye(2)).max() <= 1e-8


def test_magnus_step_is_fourth_order():
    # doubling the steps shrinks the gap to a 4x finer lattice by 2^4
    grid = BaseGrid.torus(16, 16)

    def gap(steps):
        coarse = coefficient_family(grid, DEMO_COEFFICIENTS, steps_per_half=steps)
        fine = coefficient_family(grid, DEMO_COEFFICIENTS, steps_per_half=4 * steps)
        return np.abs(coarse.transfer_field(0.0, np.pi) - fine.transfer_field(0.0, np.pi)).max()

    assert 12.0 <= gap(64) / gap(128) <= 20.0


def test_magnus_transfer_is_unitary_to_rounding():
    fam = demo_family(BaseGrid.torus(6, 6), steps_per_half=128)
    t = fam.transfer_field(0.0, 2.0 * np.pi)
    th = np.swapaxes(t.conj(), -1, -2)
    assert np.abs(th @ t - np.eye(2)).max() <= 1e-13


def test_magnus_is_exact_for_commuting_potential():
    # a constant scalar potential commutes with itself at every x, so even
    # a coarse lattice reproduces exp(i c dx) to rounding
    g = BaseGrid.line(5, 0.3, 0.7)
    fam = constant_scalar_family(g, steps_per_half=16)
    t = fam.transfer_field(0.0, 0.5 * np.pi)
    expected = np.exp(1j * g.axis_coords(0) * 0.5 * np.pi)
    assert np.abs(t[:, 0, 0] - expected).max() <= 1e-13


@pytest.mark.parametrize("n", [1, 2])
def test_expi_closed_forms_match_eigh(n):
    # n = 1 is expi's phase; n = 2 the su(2) kernels, exp(i h0) (e0 I + i e.sigma)
    rng = np.random.default_rng(n)
    a = rng.standard_normal((40, n, n)) + 1j * rng.standard_normal((40, n, n))
    h = a + np.swapaxes(a.conj(), -1, -2)
    h[0] = 0.0
    h[1] = 0.7 * np.eye(n)
    h[2] = -2.5 * np.eye(n)
    w, v = np.linalg.eigh(h)
    oracle = (v * np.exp(1j * w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
    if n == 1:
        closed = _expi(h)
    else:
        h0, h1, h2, h3 = su2_coords(h)
        closed = su2_unitary(np.exp(1j * h0), *su2_exp(h1, h2, h3))
    assert np.abs(closed - oracle).max() <= 1e-14


def test_rank2_transfer_and_rotated_interface_share_the_su2_exponential(monkeypatch):
    # one su2_exp per Magnus step of both half-circle transfers, one for the
    # whole interface
    fam = demo_family(BaseGrid.torus(6, 6), steps_per_half=16)
    calls = _count_calls(monkeypatch, "_su2_exp", (models,))
    fam.transfer_field(0.0, np.pi)
    assert len(calls) == 32
    fam.calderon_section("left").frames()
    calls.clear()
    rotated_interface(fam)
    assert len(calls) == 1


def _count_linalg_calls(monkeypatch):
    calls = []

    def wrap(name, fn):
        return lambda *a, **k: calls.append(name) or fn(*a, **k)

    for name in np.linalg.__all__:
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):
            monkeypatch.setattr(np.linalg, name, wrap(name, fn))
    return calls


@pytest.mark.parametrize("kind", ["rank2_table", "rank1_scalar"])
def test_transfer_makes_no_linalg_calls(monkeypatch, kind):
    # the rank-1 and rank-2 steps are closed forms, with no per-block BLAS
    # or LAPACK call
    if kind == "rank2_table":
        fam = coefficient_family(BaseGrid.torus(32, 32), DEMO_COEFFICIENTS, steps_per_half=16)
    else:
        fam = constant_scalar_family(BaseGrid.line(9, 0.0, 1.0), steps_per_half=16)
    calls = _count_linalg_calls(monkeypatch)
    fam.transfer_field(0.0, np.pi)
    assert calls == []


def _magnus_oracle(fam, x0: float, x1: float) -> np.ndarray:
    """The matrix Magnus loop: exp(i gen) by expi, block products by bmm."""
    h = np.pi / fam.steps_per_half
    gauss = np.sqrt(3.0) / 6.0
    n = fam.rank
    t = np.broadcast_to(np.eye(n, dtype=complex), fam.grid.shape + (n, n)).copy()
    for k in range(round(x0 / h), round(x1 / h)):
        a1 = np.asarray(fam.potential(fam._b1, fam._b2, (k + 0.5 - gauss) * h), dtype=complex)
        a2 = np.asarray(fam.potential(fam._b1, fam._b2, (k + 0.5 + gauss) * h), dtype=complex)
        x = bmm(a2, a1)
        comm = x - np.swapaxes(x.conj(), -1, -2)
        gen = (0.5 * h) * (a1 + a2) + (1j * gauss * 0.5 * h * h) * comm
        t = bmm(_expi(gen), t)
    return t


# x-dependent s1/s2 channels beside a strong b-dependent s3: the commutator
# term is large, so a flipped sign of it moves T far beyond rounding
_COMMUTATOR_TABLE = {"s0.one.sin.one": 0.3, "s3.cos.one.one": 1.5,
                     "s1.one.one.cos": 0.8, "s2.one.one.sin": 0.8, "s1.sin.cos.sin": 0.4}


@pytest.mark.parametrize("kind", ["demo16", "line_table", "commutator_table", "scalar_rank2"])
def test_rank2_transfer_matches_the_matrix_magnus_oracle(kind, demo16):
    # the su(2) state (phase and unit quaternion) against the matrix loop,
    # on both halves of the circle
    if kind == "demo16":
        fam = demo16
    elif kind == "line_table":
        # the dirac sweep's shape: b2 zero-filled on a 1-axis line
        fam = coefficient_family(BaseGrid.line(40, -0.5, 2.5), DEMO_COEFFICIENTS, steps_per_half=32)
    elif kind == "commutator_table":
        fam = coefficient_family(BaseGrid.torus(12, 10), _COMMUTATOR_TABLE, steps_per_half=16)
    else:
        fam = constant_scalar_family(BaseGrid.line(9, -0.5, 2.5), rank=2, steps_per_half=16)
    for x0, x1 in ((0.0, np.pi), (np.pi, 2.0 * np.pi)):
        t = fam.transfer_field(x0, x1)
        assert np.abs(t - _magnus_oracle(fam, x0, x1)).max() <= 1e-13
    if kind == "scalar_rank2":
        c = fam.grid.axis_coords(0)
        expected = np.exp(1j * c * np.pi)[:, None, None] * np.eye(2)
        assert np.abs(t - expected).max() <= 1e-13


def test_rank2_transfer_samples_the_potential_at_the_gauss_points_in_order():
    fam = coefficient_family(BaseGrid.torus(6, 6), DEMO_COEFFICIENTS, steps_per_half=16)
    xs = []
    potential = fam.potential

    def counted(b1, b2, x):
        xs.append(x)
        return potential(b1, b2, x)

    fam.potential = counted
    fam.transfer_field(0.0, np.pi)
    h = np.pi / 16
    gauss = np.sqrt(3.0) / 6.0
    # the sibling half pi -> 2pi follows, integrated in the same call
    expected = [(k + 0.5 + sign * gauss) * h for k in range(32) for sign in (-1, 1)]
    assert len(xs) == 4 * fam.steps_per_half
    np.testing.assert_allclose(xs, expected, rtol=0.0, atol=1e-15)


def test_monodromy_composes_the_cached_halves():
    fam = demo_family(BaseGrid.torus(6, 6), steps_per_half=32)
    mono = fam.monodromy_field()
    assert (0, 64) not in fam._flows
    assert {(0, 32), (32, 64)} <= set(fam._flows)
    whole = demo_family(BaseGrid.torus(6, 6), steps_per_half=32).transfer_field(0.0, 2.0 * np.pi)
    assert np.abs(mono - np.linalg.det(np.eye(2) - whole)).max() <= 1e-12


def test_cached_transfers_are_read_only():
    # an in-place write into a cached transfer used to move the monodromy
    fam = demo_family(BaseGrid.torus(8, 8), steps_per_half=16)
    mono = fam.monodromy_field()
    t = fam.transfer_field(0.0, np.pi)
    with pytest.raises(ValueError):
        t *= 2
    np.testing.assert_array_equal(fam.monodromy_field(), mono)


def test_models_suite_takes_the_base_tolerance():
    checks = {c.name: c for c in verify.run_suite("models", tol=1e-3)}
    for name in ("transfer_constant_closed_form", "monodromy_half_integer_value",
                 "kernel_locus_integer"):
        assert checks[name].threshold == 1e-3
    assert checks["transfer_composition"].threshold == 1e-10


def test_transfer_requires_lattice_aligned_endpoints():
    fam = demo_family(BaseGrid.torus(6, 6), steps_per_half=32)
    with pytest.raises(ValueError):
        fam.transfer_field(0.0, 1.0)


@pytest.mark.parametrize("rank, block, message", [
    # the Magnus step would return I here, not I + i pi a
    (2, np.broadcast_to(np.array([[0.0, 1.0], [0.0, 0.0]]), (4, 4, 2, 2)), "Hermitian"),
    # the 1x1 closed form would drop the imaginary part
    (1, np.broadcast_to(np.array([[0.3 + 0.5j]]), (4, 4, 1, 1)), "Hermitian"),
    (2, np.eye(3), r"shape \(3, 3\), want \(4, 4, 2, 2\)"),
    # a scalar or a 1x1 sample is not c*I, and a row is not a block
    (2, 0.3, r"shape \(\), want \(4, 4, 2, 2\)"),
    (2, np.array([[0.3]]), r"shape \(1, 1\), want \(4, 4, 2, 2\)"),
    (2, np.array([0.3, 0.1]), r"shape \(2,\), want \(4, 4, 2, 2\)"),
    # one block per grid point: a single (n, n) block is not broadcast
    (2, 0.3 * np.eye(2), r"shape \(2, 2\), want \(4, 4, 2, 2\)"),
])
def test_transfer_rejects_non_hermitian_or_misshaped_potentials(rank, block, message):
    fam = Dirac1DFamily(BaseGrid.torus(4, 4), lambda b1, b2, x: block, rank=rank,
                        steps_per_half=16)
    with pytest.raises(ValueError, match=message):
        fam.transfer_field(0.0, np.pi)


# -- Cauchy-data bundles ----------------------------------------------------------


def test_zero_potential_left_bundle_is_diagonal_graph():
    fam = constant_scalar_family(BaseGrid.line(4, 0.0, 1.0), value=0.0, rank=1,
                                 steps_per_half=16)
    sec = fam.calderon_section("left")
    expected = graph_projection(np.eye(1)).matrix  # span{(v, v)}
    assert np.abs(sec.values - expected).max() <= 1e-12


def test_constant_scalar_left_bundle_closed_form():
    g = BaseGrid.line(4, 0.2, 0.8)
    fam = constant_scalar_family(g, steps_per_half=512)
    c = g.axis_coords(0)
    sec = fam.calderon_section("left")
    for k in range(4):
        expected = graph_projection(np.array([[np.exp(1j * c[k] * np.pi)]])).matrix
        assert np.abs(sec.values[k] - expected).max() <= 1e-9


def test_bundle_intersection_iff_monodromy_eigenvalue_one():
    # oracle: a periodic solution exists exactly when the two Cauchy-data
    # ranges meet, i.e. when the largest principal angle closes to zero
    for value, expect_meet in ((1.0, True), (0.5, False)):
        fam = constant_scalar_family(BaseGrid.line(4, 0.0, 1.0), value=value,
                                     steps_per_half=512)
        f_left = fam.calderon_section("left").frames()[0]
        f_right = fam.calderon_section("right").frames()[0]
        smax = np.linalg.svd(f_left.conj().T @ f_right, compute_uv=False)[0]
        if expect_meet:
            assert smax >= 1.0 - 1e-9
        else:
            assert smax <= 1.0 - 1e-3


def test_monodromy_zero_potential():
    fam = constant_scalar_family(BaseGrid.line(4, 0.0, 1.0), value=0.0,
                                 steps_per_half=16)
    assert abs(fam.monodromy_field()[0]) <= 1e-12


def test_monodromy_half_integer_closed_form():
    # det(1 - e^{2 pi i c}) = 2 exactly at c = 1/2
    fam = constant_scalar_family(BaseGrid.line(4, 0.0, 1.0), value=0.5,
                                 steps_per_half=512)
    assert abs(fam.monodromy_field()[0] - 2.0) <= 1e-9


def test_kernel_locus_matches_pair_determinant():
    # zeros of the monodromy oracle and of the canonical pair metric coincide
    g = BaseGrid.line(121, -0.5, 1.5)
    fam = constant_scalar_family(g, steps_per_half=64)
    mono = np.abs(fam.monodromy_field())
    metric = np.array([metric_norm_sq(fam, (k,)) for k in range(121)])
    zeros_mono = {k for k in range(121) if mono[k] <= 1e-6}
    zeros_metric = {k for k in range(121) if metric[k] <= 1e-6}
    assert zeros_mono == zeros_metric
    c = g.axis_coords(0)
    assert {round(c[k]) for k in zeros_mono} == {0, 1}


# -- potential coefficient tables ---------------------------------------------------


SIGMA = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def _demo_potential(b1, b2, x):
    # the demo family written out by hand: 0.5 I + 0.22 n(b) . sigma
    # + 0.18 (cos x sigma_1 + sin x sigma_2)
    n1 = np.cos(b1)
    n2 = np.sin(b1) * np.cos(b2)
    n3 = np.sin(b1) * np.sin(b2)
    base = (0.5 * np.eye(2))[(None,) * n1.ndim]
    bulk = 0.22 * (n1[..., None, None] * SIGMA[0]
                   + n2[..., None, None] * SIGMA[1]
                   + n3[..., None, None] * SIGMA[2])
    drive = 0.18 * (np.cos(x) * SIGMA[0] + np.sin(x) * SIGMA[1])
    return base + bulk + drive[(None,) * n1.ndim]


def test_coefficient_table_reproduces_demo_potential():
    grid = BaseGrid.torus(8, 8)
    table = coefficient_family(grid, DEMO_COEFFICIENTS, steps_per_half=16)
    for x in (0.0, 0.4, 1.3, np.pi, 5.9):
        a_table = table.potential(table._b1, table._b2, x)
        a_oracle = _demo_potential(table._b1, table._b2, x)
        assert np.abs(a_table - a_oracle).max() <= 1e-14
    oracle = Dirac1DFamily(grid, _demo_potential, rank=2, steps_per_half=16)
    demo = demo_family(grid, steps_per_half=16)
    t0 = oracle.transfer_field(0.0, np.pi)
    t1 = demo.transfer_field(0.0, np.pi)
    assert np.abs(t0 - t1).max() <= 1e-13


def test_coefficient_table_periodicity():
    pot = potential_from_coefficients({"s1.cos.sin.cos": 0.7})
    x = 0.3
    a0 = pot(np.array(0.2), np.array(1.1), x)
    a1 = pot(np.array(0.2 + 2 * np.pi), np.array(1.1 - 2 * np.pi), x)
    assert np.abs(a0 - a1).max() <= 1e-12


def test_coefficient_table_rejects_bad_keys():
    with pytest.raises(ValueError):
        potential_from_coefficients({"s4.one.one.one": 1.0})
    with pytest.raises(ValueError):
        potential_from_coefficients({"s1.tan.one.one": 1.0})
    with pytest.raises(ValueError):
        potential_from_coefficients({})


def test_coefficient_potential_reuses_stacked_fields_for_read_only_coordinates(monkeypatch):
    args = []
    for name, fn in list(models._TRIG_BASIS.items()):
        monkeypatch.setitem(models._TRIG_BASIS, name, lambda t, fn=fn: args.append(t) or fn(t))
    fam = coefficient_family(BaseGrid.torus(8, 8), DEMO_COEFFICIENTS, steps_per_half=16)

    def on_grid():
        return sum(t is fam._b1 or t is fam._b2 for t in args)

    fam.potential(fam._b1, fam._b2, 0.3)
    assert on_grid() > 0
    args.clear()
    a = fam.potential(fam._b1, fam._b2, 1.1)
    assert on_grid() == 0
    assert np.abs(a - _demo_potential(fam._b1, fam._b2, 1.1)).max() <= 1e-14


def test_coefficient_potential_reevaluates_writable_coordinates():
    pot = potential_from_coefficients(DEMO_COEFFICIENTS)
    b1, b2 = BaseGrid.torus(8, 8).coords()
    before = pot(b1, b2, 0.3)
    b1 += 0.5  # edited in place: the same array object comes back
    after = pot(b1, b2, 0.3)
    assert np.abs(after - _demo_potential(b1, b2, 0.3)).max() <= 1e-14
    assert np.abs(after - before).max() > 0.01


def test_rank2_transfer_keeps_one_potential_block_alive():
    # every earlier block is freed before the next potential call, so the
    # heap never holds two of them at once
    fam = coefficient_family(BaseGrid.torus(64, 64), DEMO_COEFFICIENTS, steps_per_half=16)
    potential = fam.potential
    blocks, alive = [], []

    def tracked(b1, b2, x):
        alive.append(sum(f.alive for f in blocks))
        out = potential(b1, b2, x)
        blocks.append(weakref.finalize(out, lambda: None))
        return out

    fam.potential = tracked
    fam.transfer_field(0.0, np.pi)
    assert len(alive) == 4 * fam.steps_per_half
    assert max(alive) == 0


def test_coefficient_potential_allocates_one_block_per_call():
    fam = coefficient_family(BaseGrid.torus(64, 64), DEMO_COEFFICIENTS, steps_per_half=16)
    fam.potential(fam._b1, fam._b2, 0.0)  # stacks the fields
    tracemalloc.start()
    try:
        a = fam.potential(fam._b1, fam._b2, 0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * a.nbytes


def _split_forced(monkeypatch, fam):
    # the cut-over at this family's grid size, so its two halves run at once
    monkeypatch.setattr(models, "SPLIT_POINTS", fam._b1.size)
    return fam


@pytest.mark.parametrize("table", [DEMO_COEFFICIENTS, _COMMUTATOR_TABLE])
def test_split_halves_are_bit_identical_to_inline(two_cpus, started, monkeypatch, table):
    inline = coefficient_family(BaseGrid.torus(12, 10), table, steps_per_half=16)
    halves = [inline.transfer_field(0.0, np.pi), inline.transfer_field(np.pi, 2.0 * np.pi)]
    assert started[0] == 0
    fam = _split_forced(monkeypatch, coefficient_family(BaseGrid.torus(12, 10), table, steps_per_half=16))
    assert np.array_equal(fam.transfer_field(np.pi, 2.0 * np.pi), halves[1])
    assert set(fam._flows) == {(0, 16), (16, 32)}
    assert np.array_equal(fam.transfer_field(0.0, np.pi), halves[0])
    assert started[0] == 1


def test_split_needs_two_cpus_and_the_cut_over(started, monkeypatch):
    # inline, both halves are still integrated, in turn on the calling thread
    monkeypatch.setattr(models._blocks, "_cpus", lambda: 1)
    fam = _split_forced(monkeypatch, demo_family(BaseGrid.torus(8, 8), steps_per_half=16))
    fam.transfer_field(0.0, np.pi)
    assert set(fam._flows) == {(0, 16), (16, 32)}
    monkeypatch.setattr(models._blocks, "_cpus", lambda: 2)
    monkeypatch.setattr(models, "SPLIT_POINTS", 65)
    fam = demo_family(BaseGrid.torus(8, 8), steps_per_half=16)
    fam.transfer_field(0.0, np.pi)
    assert set(fam._flows) == {(0, 16), (16, 32)}
    assert started[0] == 0


def test_half_transfers_do_not_depend_on_cpus_or_the_cut_over(started, monkeypatch):
    # one rule on every machine: with 1 or 2 CPUs, and the cut-over at or
    # above the 8x8 grid, transfer_field(0, pi) caches both halves, bit for
    # bit the same, and a potential that overflows only for x > pi raises the
    # same one error there and caches nothing
    def overflowing(b1, b2, x, base=potential_from_coefficients(_COMMUTATOR_TABLE)):
        return base(b1, b2, x) * (1e300 if x > np.pi else 1.0)

    runs = []
    for cpus, cut_over in ((1, 64), (1, 65), (2, 64), (2, 65)):
        monkeypatch.setattr(models._blocks, "_cpus", lambda cpus=cpus: cpus)
        monkeypatch.setattr(models, "SPLIT_POINTS", cut_over)
        threads = started[0]
        fam = coefficient_family(BaseGrid.torus(8, 8), _COMMUTATOR_TABLE, steps_per_half=16)
        fam.transfer_field(0.0, np.pi)
        bad = Dirac1DFamily(BaseGrid.torus(8, 8), overflowing, 2, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError) as err:
                bad.transfer_field(0.0, np.pi)
        assert bad._flows == {}
        assert started[0] - threads == (2 if cpus == 2 and cut_over == 64 else 0)
        runs.append((fam._flows, str(err.value)))
    flows, message = runs[0]
    assert set(flows) == {(0, 16), (16, 32)}
    assert message == "transfer matrices are not finite"
    for other, other_message in runs[1:]:
        assert set(other) == set(flows) and other_message == message
        assert all(other[k].tobytes() == flows[k].tobytes() for k in flows)


def test_overflow_in_either_half_is_the_one_error_in_the_caller(two_cpus, started, monkeypatch):
    # only the worker's half overflows: inline too, asking for the caller's
    # half integrates both, so it raises and caches nothing
    def pot(b1, b2, x, base=potential_from_coefficients(DEMO_COEFFICIENTS)):
        return base(b1, b2, x) * (1e300 if x > np.pi else 1.0)

    inline = Dirac1DFamily(BaseGrid.torus(8, 8), pot, 2, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="^transfer matrices are not finite$"):
            inline.transfer_field(0.0, np.pi)
    assert inline._flows == {} and started[0] == 0
    table = dict(DEMO_COEFFICIENTS, **{"s1.one.one.cos": 1e300})
    fam = _split_forced(monkeypatch, coefficient_family(BaseGrid.torus(8, 8), table, steps_per_half=16))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="^transfer matrices are not finite$"):
            fam.transfer_field(0.0, np.pi)
    assert fam._flows == {} and started[0] == 1

    fam = Dirac1DFamily(BaseGrid.torus(8, 8), pot, 2, 16)
    threads = set()
    potential = fam.potential
    fam.potential = lambda b1, b2, x: threads.add(threading.current_thread()) or potential(b1, b2, x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="^transfer matrices are not finite$"):
            fam.transfer_field(0.0, np.pi)
    assert len(threads) == 2 and started[0] == 2


@pytest.mark.parametrize("split", [False, True])
def test_stacked_fields_live_as_long_as_the_integration(two_cpus, monkeypatch, split):
    # one stacking serves both halves, split or not, and it is freed once
    # both are integrated: the cache holds only the two transfers
    args = []
    for name, fn in list(models._TRIG_BASIS.items()):
        monkeypatch.setitem(models._TRIG_BASIS, name, lambda t, fn=fn: args.append(np.shape(t)) or fn(t))
    fam = coefficient_family(BaseGrid.torus(64, 64), DEMO_COEFFICIENTS, steps_per_half=16)
    if split:
        _split_forced(monkeypatch, fam)
    tracemalloc.start()
    try:
        fam.transfer_field(0.0, np.pi)
        fam.transfer_field(np.pi, 2.0 * np.pi)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert args.count((64, 64)) == 2 * len(DEMO_COEFFICIENTS)
    transfers = 2 * 64 * 64 * 4 * 16
    stacked = 3 * 64 * 64 * 4 * 16  # one field per factor h(x): one, cos, sin
    assert transfers <= held < transfers + stacked // 2


def test_real_coefficients_give_hermitian_potential():
    pot = potential_from_coefficients({"s2.sin.cos.sin": 0.4, "s0.one.one.one": 0.3})
    a = pot(np.array(0.7), np.array(-0.2), 1.9)
    assert np.abs(a - a.conj().T).max() <= 1e-14


# -- interface sections -------------------------------------------------------------


def test_rotated_interface_matches_base_at_zero_strength(demo16):
    base = demo16.calderon_section("left")
    rot = rotated_interface(demo16, strength=0.0)
    assert np.abs(rot.values - base.values).max() <= 1e-12


def test_rotated_interface_keeps_rank(demo16, rot16):
    assert rot16.base_rank == demo16.calderon_section("left").base_rank
    assert rot16.grid == demo16.grid


def test_vortex_interface_twists_only_inside_disc(demo16):
    sec = vortex_interface(demo16, radius=1.1)
    base = demo16.calderon_section("left")
    b1, b2 = demo16.grid.coords()
    outside = (b1 - np.pi) ** 2 + (b2 - np.pi) ** 2 >= 1.1 ** 2
    diff = np.abs(sec.values - base.values).max(axis=(-2, -1))
    assert diff[outside].max() <= 1e-12
    assert diff[~outside].max() > 0.1
    assert sec.base_rank == base.base_rank


def _inv_sqrt_hermitian(h):
    w, v = np.linalg.eigh(h)
    return (v / np.sqrt(w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


@pytest.mark.parametrize("orientation", [1, -1, 2, 0])
def test_vortex_interface_matches_projection_formula(demo16, orientation):
    # oracle: the projection formula P_a - f f* + u u*, with the symmetric
    # (Loewdin) graph frames frame_a of the left graph and frame_c of its
    # complement; T is unitary, so they agree with the Cholesky graph frames
    fam = demo16
    t = fam.transfer_field(0.0, np.pi)
    th = np.swapaxes(t.conj(), -1, -2)
    eye = np.broadcast_to(np.eye(fam.rank, dtype=complex), t.shape)
    frame_a = np.concatenate([eye, t], axis=-2) @ _inv_sqrt_hermitian(eye + th @ t)
    frame_c = np.concatenate([-th, eye], axis=-2) @ _inv_sqrt_hermitian(eye + t @ th)
    f, gvec = frame_a[..., :, 0], frame_c[..., :, 0]
    b1, b2 = fam.grid.coords()
    dx = (b1 - np.pi + np.pi) % (2 * np.pi) - np.pi
    dy = (b2 - np.pi + np.pi) % (2 * np.pi) - np.pi
    rho = np.hypot(dx, dy)
    phi = orientation * np.arctan2(dy, dx)
    theta = np.pi * np.where(rho < 1.1, np.cos(0.5 * np.pi * rho / 1.1) ** 2, 0.0)
    u = (np.cos(0.5 * theta)[..., None] * f
         + (np.sin(0.5 * theta) * np.exp(1j * phi))[..., None] * gvec)
    want = (frame_a @ np.swapaxes(frame_a.conj(), -1, -2)
            - f[..., :, None] * f.conj()[..., None, :]
            + u[..., :, None] * u.conj()[..., None, :])
    sec = vortex_interface(fam, radius=1.1, orientation=orientation)
    assert np.abs(sec.values - want).max() <= 1e-13


def test_frame_first_sections_make_no_eigh(monkeypatch):
    fam = demo_family(BaseGrid.torus(8, 8), steps_per_half=16)
    calls = _count_calls(monkeypatch, "eigh")
    # the pair's second leg is the graph of -T*, built from the transfer
    for sec in (*fam.boundary_pair(), fam.calderon_section("right"), vortex_interface(fam)):
        sec.frames()
    assert len(calls) == 0
    # a generic complement has no frame at hand
    fam.calderon_section("left").complement()
    assert len(calls) == 1
    # the rotated interface exponentiates its 2x2 generator in closed form
    rotated_interface(fam).frames()
    assert len(calls) == 1


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_right_calderon_complement_is_the_graph_of_minus_t_adjoint(rank):
    fam = constant_scalar_family(BaseGrid.torus(6, 6), rank=rank, steps_per_half=16) \
        if rank != 2 else demo_family(BaseGrid.torus(6, 6), steps_per_half=16)
    right = fam.calderon_section("right")
    comp = fam.boundary_pair()[1]
    assert comp.base_rank == rank and fam.boundary_pair()[1] is comp
    assert np.abs(comp.values - (np.eye(2 * rank) - right.values)).max() <= 1e-14
    # the pair's second leg is the graph {(v, -T* v)}
    t = fam.transfer_field(np.pi, 2.0 * np.pi)
    f = comp.frames()
    assert np.abs(f[..., rank:, :] + np.swapaxes(t.conj(), -1, -2) @ f[..., :rank, :]).max() <= 1e-14
    # and the right section is {(T w, w)} with T = T(pi -> 2pi)
    f = right.frames()
    assert np.abs(f[..., :rank, :] - t @ f[..., rank:, :]).max() <= 1e-14


def test_conjugated_section_makes_one_eigh(monkeypatch):
    fam = CylinderFamily(BaseGrid.torus(6, 6), truncation=8, seed=2)
    calls = _count_calls(monkeypatch, "eigh")
    sec = fam.conjugated_section(0.7, 2)
    sec.frames()
    assert len(calls) == 1
    assert sec.base_rank == 9 and sec.dim == 17


def test_aps_section_makes_two_eigh(monkeypatch):
    # one for the boundary operator's exponential, one for its spectral frames
    fam = CylinderFamily(BaseGrid.torus(6, 6), truncation=16)
    calls = _count_calls(monkeypatch, "eigh")
    sec = fam.aps_section()
    sec.frames()
    assert len(calls) == 2
    assert sec.base_rank == 17 and sec.dim == 33


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_rotated_interface_matches_the_dense_exponential(rank):
    # oracle: exp(i s K (x) I_n) by eigh of the dense 2n x 2n generator
    fam = constant_scalar_family(BaseGrid.torus(6, 6), value=0.3, rank=rank, steps_per_half=16) \
        if rank != 2 else demo_family(BaseGrid.torus(6, 6), steps_per_half=16)
    eye = np.eye(rank)
    k = (np.sin(fam._b1)[..., None, None] * np.kron(np.array([[0, 1], [1, 0]]), eye)
         + (np.sin(fam._b2) * np.cos(fam._b1))[..., None, None]
         * np.kron(np.array([[0, -1j], [1j, 0]]), eye))
    w, v = np.linalg.eigh(0.4 * k)
    u = (v * np.exp(1j * w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
    want = u @ fam.calderon_section("left").frames()
    assert np.abs(rotated_interface(fam, 0.4).frames() - want).max() <= 1e-14


# -- truncated cylinder --------------------------------------------------------------


def test_cylinder_flat_spectral_projection():
    fam = CylinderFamily(BaseGrid.torus(4, 4), truncation=2, amplitude=0.0)
    sec = fam.aps_section()
    # modes are ordered -N..N; the non-negative half {0, 1, 2} survives
    expected = np.diag([0.0, 0.0, 1.0, 1.0, 1.0])
    assert sec.base_rank == 3
    assert np.abs(sec.values - expected).max() <= 1e-12


def test_cylinder_conjugated_closed_form():
    fam = CylinderFamily(BaseGrid.torus(6, 6), truncation=16, gamma=0.6, seed=3,
                         style="conjugated")
    aps = fam.aps_section()
    closed = fam.conjugated_section(fam.amplitude, 0)
    assert np.abs(aps.values - closed.values).max() <= 1e-10


def test_cylinder_additive_style_survives_exact_zero_mode():
    # the additive boundary operator keeps the k=0 mode on the non-negative
    # side; eigh jitter below zero must not trip the gap guard
    fam = CylinderFamily(BaseGrid.torus(4, 4), truncation=8, gamma=0.8, seed=1,
                         amplitude=0.0, style="additive")
    sec = fam.aps_section()
    assert sec.base_rank == 9


def test_cylinder_rejects_bad_style():
    with pytest.raises(ValueError):
        CylinderFamily(BaseGrid.torus(4, 4), truncation=4, style="imaginary")


@pytest.mark.parametrize("kwargs, message", [
    ({"gamma": 0.0}, "gamma"), ({"gamma": -0.6}, "gamma"), ({"gamma": float("nan")}, "gamma"),
    ({"gamma": float("inf")}, "gamma"), ({"seed": -1}, "seed"),
    ({"amplitude": float("nan")}, "amplitude"), ({"amplitude": float("inf")}, "amplitude"),
], ids=["gamma_zero", "gamma_negative", "gamma_nan", "gamma_inf", "seed_negative",
        "amplitude_nan", "amplitude_inf"])
def test_cylinder_checks_its_numbers_at_construction(kwargs, message):
    # each of these used to construct, then fail in numpy or LAPACK on first use
    with pytest.raises(ValueError, match=message):
        CylinderFamily(BaseGrid.torus(8, 8), truncation=4, **kwargs)


def test_section_continuity_bound():
    fam = CylinderFamily(BaseGrid.torus(8, 8), truncation=16, gamma=0.6, seed=0)
    sec = fam.aps_section()
    # recorded smoothness constant keeps edge increments well below the gap
    assert sec.smoothness * fam.grid.spacing[0] <= 0.75


# -- smoothing perturbations ----------------------------------------------------------


def test_smoothing_decay_bound():
    s = smoothing_perturbation(5, 0.7, 12)
    modes = np.arange(-12, 13)
    bound = np.exp(-0.7 * (np.abs(modes)[:, None] + np.abs(modes)[None, :]))
    assert np.all(np.abs(s) <= bound + 1e-12)
    assert np.abs(s - s.conj().T).max() <= 1e-12


def test_smoothing_truncations_nest():
    small = smoothing_perturbation(5, 0.6, 8)
    large = smoothing_perturbation(5, 0.6, 16)
    inner = large[8:25, 8:25]
    np.testing.assert_array_equal(small, inner)


def test_smoothing_trace_norm_truncation_stable():
    n32 = trace_norm(smoothing_perturbation(2, 0.6, 32))
    n64 = trace_norm(smoothing_perturbation(2, 0.6, 64))
    assert abs(n64 - n32) <= 0.01 * n32


def test_smoothing_rejects_nonpositive_decay():
    with pytest.raises(ValueError):
        smoothing_perturbation(0, 0.0, 8)


@pytest.mark.parametrize("seed, gamma, truncation, message", [
    (0, float("nan"), 3, "decay rate gamma must be positive and finite"),
    (0, float("inf"), 3, "decay rate gamma must be positive and finite"),
    (-1, 0.6, 3, "seed must be non-negative"),
    (0, 0.6, 8193, "truncation must be at most 8192"),
], ids=["gamma_nan", "gamma_inf", "seed_negative", "truncation_above_8192"])
def test_smoothing_rejects_non_finite_decay_and_negative_seed(seed, gamma, truncation, message):
    # a nan gamma returned a matrix of nans; a negative seed or a mode label
    # below -8192 failed inside numpy
    with pytest.raises(ValueError, match=f"^{message}$"):
        smoothing_perturbation(seed, gamma, truncation)


def _smoothing_oracle(seed: int, gamma: float, n: int) -> np.ndarray:
    """One generator per entry j <= k, seeded by (seed, j, k) in absolute mode labels."""
    out = np.zeros((2 * n + 1, 2 * n + 1), dtype=complex)
    for j in range(-n, n + 1):
        for k in range(j, n + 1):
            rng = np.random.default_rng([seed, j + 8192, k + 8192])
            amp = np.exp(-gamma * (abs(j) + abs(k)))
            if j == k:
                out[j + n, k + n] = amp * (2.0 * rng.random() - 1.0)
            else:
                c = amp * rng.random() * np.exp(2j * np.pi * rng.random())
                out[j + n, k + n], out[k + n, j + n] = c, np.conj(c)
    return out


# the last three seeds take 1, 2 and 3 uint32 words; 2**64 + 5 gives 5
# entropy words, one more than the SeedSequence pool holds
@pytest.mark.parametrize("seed, gamma, n", [
    (0, 0.6, 32), (5, 0.5, 64), (3, 0.6, 8), (123456, 1.3, 40), (0, 0.6, 1),
    (2**32 - 1, 0.6, 8), (2**32, 0.6, 8), (2**64 + 5, 0.6, 8)])
def test_smoothing_matches_the_per_entry_generator_oracle(seed, gamma, n):
    # equal bytes, so also the guard of the array exp on other machines
    s = smoothing_perturbation(seed, gamma, n)
    assert s.tobytes() == _smoothing_oracle(seed, gamma, n).tobytes()
    with pytest.raises(ValueError):
        s[0, 0] = 1.0


def test_smoothing_draws_no_per_entry_generator(monkeypatch):
    def default_rng(*args):
        raise AssertionError("smoothing seeded a generator")

    monkeypatch.setattr("numpy.random.default_rng", default_rng)
    s = smoothing_perturbation(0, 0.6, 8)
    assert s.shape == (17, 17)


def test_cylinder_construction_draws_no_smoothing_matrix(monkeypatch):
    def draw(*args):
        raise AssertionError("construction drew a smoothing matrix")

    monkeypatch.setattr("detbundle.models.smoothing_perturbation", draw)
    CylinderFamily(BaseGrid.torus(8, 8), truncation=5, gamma=0.45, seed=91)
