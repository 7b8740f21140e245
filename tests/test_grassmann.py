"""Projection fields, compressions and discrete forms against dense oracles."""

import csv

import numpy as np
import pytest

from detbundle.errors import DegenerateSpectrum, GridDomainError, OutOfChart
from detbundle.grassmann import (
    BaseGrid,
    DiscreteForm,
    Projection,
    ProjectionSection,
    SPECTRAL_GAP,
    curvature_trace_form,
    graph_frames,
    graph_projection,
    second_fundamental_form,
    section_links,
    spectral_frames,
    spectral_projection,
    toeplitz_inverse,
)
from detbundle.curvature import connection_one_form, curvature_families_formula, plaquette_winding
from detbundle.models import (
    CylinderFamily,
    bloch_curvature_density,
    bloch_section,
    bloch_vector,
    constant_scalar_family,
    demo_family,
    rotated_interface,
    vortex_interface,
)
from detbundle.opcalc import operator_norm

from conftest import random_complex, random_frame, random_projection


# -- grids ---------------------------------------------------------------------


def test_torus_grid_layout():
    g = BaseGrid.torus(8, 16)
    assert g.shape == (8, 16)
    assert g.spacing == (2.0 * np.pi / 8, 2.0 * np.pi / 16)
    assert g.ndim == 2
    g.require_torus()
    assert g.plaquette_area() == pytest.approx(g.spacing[0] * g.spacing[1])


def test_line_grid_includes_endpoints():
    g = BaseGrid.line(7, -0.5, 2.5)
    c = g.axis_coords(0)
    assert c[0] == pytest.approx(-0.5)
    assert c[-1] == pytest.approx(2.5)
    assert g.ndim == 1
    with pytest.raises(GridDomainError):
        g.require_torus()


def test_roll_wraps_only_on_the_torus():
    g = BaseGrid.torus(4, 4)
    v = np.arange(16).reshape(4, 4)
    assert g.roll(v, 0, +1)[3, 0] == v[0, 0]
    assert g.roll(v, 1, -1)[2, 0] == v[2, 3]
    line = BaseGrid.line(4, 0.0, 1.0)
    with pytest.raises(GridDomainError):
        line.roll(np.arange(4), 0, 1)


TORUS_ONLY = {
    "roll": lambda line, sec: line.roll(np.zeros(line.shape), 0, 1),
    "plaquette_area": lambda line, sec: line.plaquette_area(),
    "DiscreteForm": lambda line, sec: DiscreteForm(line, 0, np.zeros(line.shape)),
    "section_links": lambda line, sec: section_links(sec),
    "connection_one_form": lambda line, sec: connection_one_form(sec, sec),
    "curvature_families_formula": lambda line, sec: curvature_families_formula(sec, sec),
    "plaquette_winding": lambda line, sec: plaquette_winding(line, np.ones(line.shape + (2,))),
    "vortex_interface": lambda line, sec: vortex_interface(
        constant_scalar_family(line, steps_per_half=16)),
    "CylinderFamily": lambda line, sec: CylinderFamily(line, truncation=2),
}


@pytest.mark.parametrize("call", TORUS_ONLY.values(), ids=TORUS_ONLY.keys())
def test_torus_operations_reject_a_line_grid(call):
    # require_torus is the one grid-kind guard, and every torus operation meets it
    line = BaseGrid.line(6, 0.0, 1.0)
    sec = ProjectionSection.build(line, np.broadcast_to(np.eye(2, 1, dtype=complex), (6, 2, 1)))
    with pytest.raises(GridDomainError):
        call(line, sec)


def test_grid_rejects_tiny_axes():
    with pytest.raises(ValueError):
        BaseGrid.torus(3, 8)


# -- projections ---------------------------------------------------------------


def test_spectral_projection_sign_split():
    p = spectral_projection(np.diag([1.0, -1.0]))
    np.testing.assert_allclose(p.matrix, np.diag([1.0, 0.0]), atol=1e-14)


def test_spectral_projection_matches_eigensolver_oracle():
    rng = np.random.default_rng(21)
    # gapped Hermitian: push eigenvalues away from zero, keep eigenvectors
    a = random_complex(rng, 12, 12)
    a = a + a.conj().T
    w, v = np.linalg.eigh(a)
    w = np.where(w >= 0, w + 1.0, w - 1.0)
    m = (v * w) @ v.conj().T
    expected = (v[:, w >= 0]) @ (v[:, w >= 0]).conj().T
    p = spectral_projection(m)
    assert np.linalg.norm(p.matrix - expected) <= 1e-9


def test_spectral_projection_keeps_exact_kernel():
    p = spectral_projection(np.diag([1.0, 0.0, -1.0]))
    assert p.rank == 2


def test_spectral_projection_rejects_forbidden_band():
    # an eigenvalue below the band is a plain negative one and is left out;
    # one inside it makes the split ill-posed
    p = spectral_projection(np.diag([1.0, -2 * SPECTRAL_GAP, -1.0]))
    np.testing.assert_allclose(p.matrix, np.diag([1.0, 0.0, 0.0]), atol=1e-15)
    for inside in (-1e-9, -SPECTRAL_GAP / 2):
        with pytest.raises(DegenerateSpectrum):
            spectral_projection(np.diag([1.0, inside, -1.0]))


def test_spectral_frames_match_pointwise_and_reject_mixed_ranks():
    # a constant-rank stack (3 kept eigenvalues, one an exact zero); the
    # pointwise view is the oracle
    q, _ = np.linalg.qr(random_complex(np.random.default_rng(32), 4, 4))
    spectra = ([-1.0, 2.0, 3.0, 4.0], [-1.0, 0.0, 2.0, 3.0], [-4.0, 1.0, 2.0, 3.0],
               [-2.0, 1.0, 1.5, 5.0])
    stack = np.stack([(q * np.array(w)) @ q.conj().T for w in spectra])
    frames = spectral_frames(stack)
    assert frames.shape == (4, 4, 3)
    for m, f in zip(stack, frames):
        np.testing.assert_allclose(f @ f.conj().T, spectral_projection(m).matrix, atol=1e-12)
    # ranks 3, 3, 0, 3 have no common frame width
    mixed = stack.copy()
    mixed[2] = (q * np.array([-4.0, -3.0, -2.0, -1.0])) @ q.conj().T
    with pytest.raises(DegenerateSpectrum, match="changes rank"):
        spectral_frames(mixed)
    stack[2] = np.diag([1.0, -1e-9, -1.0, 2.0])
    with pytest.raises(DegenerateSpectrum, match="forbidden band"):
        spectral_frames(stack)


def test_graph_projection_of_zero_block():
    p = graph_projection(np.zeros((3, 3)))
    expected = np.zeros((6, 6))
    expected[:3, :3] = np.eye(3)
    np.testing.assert_allclose(p.matrix, expected, atol=1e-14)


def test_graph_projection_matches_qr_oracle():
    rng = np.random.default_rng(22)
    t = random_complex(rng, 4, 4)
    q, _ = np.linalg.qr(np.concatenate([np.eye(4), t], axis=0))
    expected = q @ q.conj().T
    p = graph_projection(t)
    assert np.linalg.norm(p.matrix - expected) <= 1e-9


def test_projection_validation():
    with pytest.raises(ValueError):
        Projection(np.array([[0.5, 0.5], [0.0, 0.5]]))  # columns not orthonormal
    with pytest.raises(ValueError):
        Projection(0.5 * np.eye(2))  # columns of norm 1/2


def test_projection_rejects_malformed_frames():
    f = random_frame(np.random.default_rng(28), 5, 2)
    bad = f.copy()
    bad[3, 1] = np.nan
    with pytest.raises(FloatingPointError):
        Projection(bad)
    with pytest.raises(ValueError, match="orthonormal"):
        Projection(1.01 * f)
    with pytest.raises(ValueError, match="k <= dim"):
        Projection(np.eye(5, 6))
    with pytest.raises(ValueError, match="k <= dim"):
        Projection(f[None])
    p = Projection(f)
    assert (p.dim, p.rank) == (5, 2)
    assert np.array_equal(p.frame(), f)
    assert np.abs(p.matrix - f @ f.conj().T).max() <= 1e-15
    for a in (p.frame(), p.matrix):
        with pytest.raises(ValueError):
            a[0, 0] = 1.0


def test_both_complements_are_identity_minus_projection():
    # a section's complement: the +1 eigenspace of I - 2P, cached; the
    # complement of the complement projects back onto the section
    sec = rotated_interface(demo_family(BaseGrid.torus(8, 8), steps_per_half=16))
    comp = sec.complement()
    assert comp.base_rank == 2 and sec.complement() is comp
    assert np.abs(comp.values - (np.eye(4) - sec.values)).max() <= 1e-14
    assert np.abs(comp.complement().values - sec.values).max() <= 1e-14


# -- compressions --------------------------------------------------------------


def test_toeplitz_of_equal_projections_is_identity_on_range():
    rng = np.random.default_rng(23)
    p = Projection(random_frame(rng, 6, 3))
    phi = p.matrix @ p.matrix
    np.testing.assert_allclose(phi @ p.matrix, p.matrix, atol=1e-12)


def test_toeplitz_inverse_of_projection_is_projection():
    # rank 0 takes the general path too: the smallest singular value of an
    # empty compression is +inf, and X is the dim x dim zero matrix
    rng = np.random.default_rng(24)
    for rank in (2, 0):
        p = Projection(random_frame(rng, 5, rank))
        x = toeplitz_inverse(p, p, p.matrix)
        assert x.shape == (5, 5)
        np.testing.assert_allclose(x, p.matrix, atol=1e-10)


def test_toeplitz_inverse_two_sided_laws():
    # graph projections of two nearby blocks have invertible overlap; the
    # oracle inverts the frame-compressed matrix densely
    rng = np.random.default_rng(25)
    t0 = random_complex(rng, 2, 2, scale=0.3)
    p0 = graph_projection(t0)
    p1 = graph_projection(t0 + 0.1 * random_complex(rng, 2, 2))
    phi = p1.matrix @ p0.matrix
    x = toeplitz_inverse(p0, p1, phi)
    assert np.linalg.norm(x @ phi - p0.matrix) <= 1e-10
    assert np.linalg.norm(phi @ x - p1.matrix) <= 1e-10
    f0, f1 = p0.frame(), p1.frame()
    oracle = f0 @ np.linalg.inv(f1.conj().T @ phi @ f0) @ f1.conj().T
    assert np.linalg.norm(x - oracle) <= 1e-10


def test_toeplitz_inverse_raises_on_orthogonal_ranges():
    p0 = Projection(np.array([[1.0], [0.0]]))
    p1 = Projection(np.array([[0.0], [1.0]]))
    with pytest.raises(OutOfChart):
        toeplitz_inverse(p0, p1, p1.matrix @ p0.matrix)


def test_spectral_frames_of_reflections_span_range():
    # ran(P) is the +1 eigenspace of the reflection 2P - I
    rng = np.random.default_rng(26)
    vals = np.stack([random_projection(rng, 6, 2) for _ in range(4)])
    f = spectral_frames(2.0 * vals - np.eye(6))
    assert f.shape == (4, 6, 2)
    recon = f @ np.swapaxes(f.conj(), -1, -2)
    np.testing.assert_allclose(recon, vals, atol=1e-10)


# -- sections and derivatives ----------------------------------------------------


def _constant_section(grid: BaseGrid, f: np.ndarray) -> ProjectionSection:
    return ProjectionSection.build(grid, np.broadcast_to(f, grid.shape + f.shape))


def test_second_fundamental_form_of_constant_section_is_zero():
    rng = np.random.default_rng(28)
    g = BaseGrid.torus(6, 6)
    sec = _constant_section(g, random_frame(rng, 4, 2))
    s = second_fundamental_form(sec, (1, 1), 1)
    assert np.linalg.norm(s) <= 1e-13


def test_second_fundamental_form_matches_angular_speed():
    # rank-1 oracle: ||(I-P) dP P|| is half the angular speed of the
    # direction field; frozen bound 2.6e-3 measured at this resolution
    g = BaseGrid.torus(48, 48)
    sec = bloch_section(g, mass=1.0)
    b1, b2 = g.coords()
    h = 1e-6
    for idx in [(3, 7), (11, 30), (25, 14), (40, 41)]:
        for ax in (0, 1):
            s = second_fundamental_form(sec, idx, ax)
            db = [0.0, 0.0]
            db[ax] = h
            speed = np.linalg.norm(
                (bloch_vector(b1[idx] + db[0], b2[idx] + db[1])
                 - bloch_vector(b1[idx] - db[0], b2[idx] - db[1])) / (2.0 * h))
            assert abs(operator_norm(s) - 0.5 * speed) <= 0.01


# -- curvature forms -------------------------------------------------------------


def test_curvature_form_of_constant_section_is_zero():
    rng = np.random.default_rng(29)
    g = BaseGrid.torus(8, 8)
    sec = _constant_section(g, random_frame(rng, 4, 2))
    f = curvature_trace_form(sec)
    assert np.abs(f.samples).max() <= 1e-13


def test_bloch_curvature_matches_analytic_density():
    g = BaseGrid.torus(48, 48)
    sec = bloch_section(g, mass=1.0)
    form = curvature_trace_form(sec)
    b1c, b2c = g.coords(offset=0.5 * g.spacing[0])
    exact = bloch_curvature_density(b1c, b2c, mass=1.0)
    assert np.abs(form.density() - exact).max() <= 0.01


def test_bloch_curvature_integral_is_quantized():
    # solid-angle oracle: the integral is -2 pi i times the degree of the
    # direction field, +1 at mass 1 and -1 at mass -1
    for mass, deg in ((1.0, 1), (-1.0, -1)):
        g = BaseGrid.torus(48, 48)
        total = curvature_trace_form(bloch_section(g, mass=mass)).total()
        assert abs(total - (-2j * np.pi * deg)) <= 0.06


def test_calderon_curvature_flat_and_rotated_converges(demo16, demo32, demo64):
    # the plain Cauchy-data section of a self-adjoint potential has a global
    # frame, so its trace curvature vanishes; the rotated interface does not,
    # and its samples must decay at least O(h^2) under refinement
    flat = curvature_trace_form(demo32.calderon_section("left"))
    assert np.abs(flat.samples).max() <= 1e-9

    def coarsen(samples):
        m = samples.shape[0] // 2
        return samples.reshape(m, 2, m, 2).sum(axis=(1, 3))

    f16 = curvature_trace_form(rotated_interface(demo16)).samples
    f32 = curvature_trace_form(rotated_interface(demo32)).samples
    f64 = curvature_trace_form(rotated_interface(demo64)).samples
    e1 = np.abs(f16 - coarsen(f32)).max()
    e2 = np.abs(f32 - coarsen(f64)).max()
    assert e2 <= e1 / 3.5


# -- discrete forms ---------------------------------------------------------------


def test_coboundary_squared_is_zero():
    rng = np.random.default_rng(30)
    g = BaseGrid.torus(6, 10)
    f = DiscreteForm(g, 0, random_complex(rng, 6, 10))
    dd = f.coboundary().coboundary()
    assert np.abs(dd.samples).max() <= 1e-13


def test_coboundary_masks_the_edges_of_a_masked_point():
    # an edge is excluded when either end is, the rule of the chart edge data
    g = BaseGrid.torus(8, 8)
    samples = np.ones((8, 8), dtype=complex)
    mask = np.zeros((8, 8), dtype=bool)
    samples[3, 3], mask[3, 3] = np.nan, True
    d = DiscreteForm(g, 0, samples, mask=mask).coboundary()
    expected = np.zeros((8, 8, 2), dtype=bool)
    expected[3, 3] = True  # the two edges leaving (3, 3)
    expected[2, 3, 0] = expected[3, 2, 1] = True  # the two arriving
    assert np.array_equal(d.mask, expected)
    assert d.max_density_residual() == 0.0


def test_form_total_skips_masked_cells():
    g = BaseGrid.torus(4, 4)
    samples = np.ones((4, 4))
    mask = np.zeros((4, 4), dtype=bool)
    mask[0, 0] = True
    f = DiscreteForm(g, 2, samples, mask=mask)
    assert f.total() == pytest.approx(15.0)


def test_form_mask_is_always_present():
    g = BaseGrid.torus(4, 6)
    f = DiscreteForm(g, 1, np.ones((4, 6, 2)))
    assert f.mask.shape == (4, 6, 2) and f.mask.dtype == bool and not f.mask.any()
    assert f.coboundary().mask.shape == (4, 6) and not f.coboundary().mask.any()
    with pytest.raises(ValueError):
        DiscreteForm(g, 2, np.ones((4, 6, 2, 2)))
    with pytest.raises(ValueError):
        DiscreteForm(g, 2, np.ones((4, 6)), mask=np.zeros((4, 6, 1), dtype=bool))


def _csv_writer_oracle(form, path):
    """Row-by-row csv.writer export, the reference for the bytes of to_csv."""
    header = ["i", "j"][: form.grid.ndim] + (["mu"] if form.degree == 1 else [])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header + ["re", "im"])
        for idx in np.ndindex(*form.samples.shape):
            v = complex(form.samples[idx])
            w.writerow([*idx, repr(v.real), repr(v.imag)])


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("dtype", [complex, float])
def test_form_csv_bytes_match_csv_writer(tmp_path, degree, dtype):
    g = BaseGrid.torus(4, 5)
    shape = g.shape + ((2,) if degree == 1 else ())
    rng = np.random.default_rng(32)
    samples = random_complex(rng, *shape) if dtype is complex else rng.standard_normal(shape)
    special = [-0.0, np.nan, np.inf, -np.inf, 1e-05, 1e16, 0.1, -3.0]
    flat = samples.reshape(-1)
    flat[: len(special)] = special
    if dtype is complex:
        flat[len(special): 2 * len(special)] = [complex(0.5, s) for s in special]
    form = DiscreteForm(g, degree, samples)
    form.to_csv(tmp_path / "got.csv")
    _csv_writer_oracle(form, tmp_path / "ref.csv")
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "ref.csv").read_bytes()
    assert got.count(b"\r\n") == flat.size + 1


def test_form_csv_schema(tmp_path):
    g = BaseGrid.torus(4, 4)
    f = DiscreteForm(g, 2, np.full((4, 4), 1.5 + 0.5j))
    path = tmp_path / "form.csv"
    f.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "i,j,re,im"
    assert len(lines) == 17
    assert lines[1] == "0,0,1.5,0.5"


def test_section_build_keeps_its_frames():
    rng = np.random.default_rng(31)
    g = BaseGrid.torus(4, 4)
    f = np.linalg.qr(random_complex(rng, 4, 4, 5, 2))[0]
    sec = ProjectionSection.build(g, f)
    assert sec.base_rank == 2 and sec.dim == 5
    assert np.array_equal(sec.frames(), f)
    assert np.array_equal(sec.values, f @ np.swapaxes(f.conj(), -1, -2))
    # a read-only copy: the caller's array stays its own
    f[0, 0] = 0.0
    assert not np.array_equal(sec.frames(), f)
    for a in (sec.frames(), sec.values):
        with pytest.raises(ValueError):
            a[0, 0, 0, 0] = 1.0


def test_section_build_rejects_malformed_frames():
    rng = np.random.default_rng(32)
    g = BaseGrid.torus(4, 4)
    f = np.linalg.qr(random_complex(rng, 4, 4, 5, 2))[0]
    with pytest.raises(ValueError, match="orthonormal"):
        ProjectionSection.build(g, 1.01 * f)
    skew = f.copy()
    skew[1, 2, :, 1] += 1e-6 * skew[1, 2, :, 0]
    with pytest.raises(ValueError, match="orthonormal"):
        ProjectionSection.build(g, skew)
    bad = f.copy()
    bad[3, 0, 4, 1] = np.inf
    with pytest.raises(FloatingPointError):
        ProjectionSection.build(g, bad)
    with pytest.raises(ValueError, match="k <= dim"):
        ProjectionSection.build(g, np.zeros(g.shape + (2, 3)))
    with pytest.raises(ValueError, match="grid of"):
        ProjectionSection.build(g, f[:3])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_graph_frames_span_the_graph(k):
    # oracle: the graph projection [[G, G T*], [T G, T G T*]], G = (I + T*T)^-1
    rng = np.random.default_rng(33 + k)
    t = random_complex(rng, 30, k, k)
    th = np.swapaxes(t.conj(), -1, -2)
    f = graph_frames(t)
    assert np.abs(np.swapaxes(f.conj(), -1, -2) @ f - np.eye(k)).max() <= 1e-13
    gi = np.linalg.inv(np.eye(k) + th @ t)
    want = np.concatenate([np.concatenate([gi, gi @ th], axis=-1),
                           np.concatenate([t @ gi, t @ gi @ th], axis=-1)], axis=-2)
    assert np.abs(f @ np.swapaxes(f.conj(), -1, -2) - want).max() <= 1e-13


def test_section_build_rejects_non_finite_values():
    g = BaseGrid.torus(4, 4)
    values = np.zeros(g.shape + (2, 2), dtype=complex)
    values[1, 2, 0, 0] = np.nan
    with pytest.raises(FloatingPointError):
        ProjectionSection.build(g, values)


def test_section_links_records_closed_loop_gauge_invariants():
    g = BaseGrid.torus(8, 8)
    sec = bloch_section(g, mass=1.0)
    links = section_links(sec)
    assert links.shape == (8, 8, 2)
    # per-plaquette products are frame-gauge independent and unimodular up to
    # the curvature; magnitudes stay strictly positive on a resolved section
    assert np.abs(links).min() > 0.5
