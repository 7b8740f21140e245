"""Charted connection forms, curvature, additivity and Chern numbers."""

import csv
import dataclasses

import numpy as np
import pytest

from detbundle.detline import pair_metric_sq
from detbundle.errors import CoverageError, OutOfChart, VortexOnLink
from detbundle.grassmann import (
    BaseGrid,
    Projection,
    ProjectionSection,
    _plaquette_corners,
    nearest_projection,
    section_links,
    spectral_frames,
    toeplitz_inverse,
)
from detbundle.models import (
    CylinderFamily,
    bloch_section,
    constant_scalar_family,
    demo_family,
    rotated_interface,
    vortex_interface,
)
from detbundle.curvature import (
    _chart_edge_data,
    additivity_residual,
    chern_number,
    chern_of_pair,
    chern_of_section,
    composition_trace_identity,
    connection_one_form,
    curvature_families_formula,
    curvature_of,
    default_cover,
    f_function,
    f_function_field,
    pair_metric_field,
    patching_residuals,
    plaquette_winding,
    swap_trace_identity,
)
from detbundle.verify import CheckResult

from conftest import STEPS, _count_calls, random_complex, random_frame


def _constant_pair(grid, f):
    sec = ProjectionSection.build(grid, np.broadcast_to(f, grid.shape + f.shape))
    return sec, sec


# -- connection forms --------------------------------------------------------------


def test_constant_pair_connection_vanishes():
    rng = np.random.default_rng(61)
    g = BaseGrid.torus(6, 6)
    sec0, sec1 = _constant_pair(g, random_frame(rng, 4, 2))
    conn = connection_one_form(sec0, sec1)
    assert np.abs(conn.omega[0].samples).max() <= 1e-12


def test_zero_connection_has_zero_curvature():
    rng = np.random.default_rng(62)
    g = BaseGrid.torus(6, 6)
    sec0, sec1 = _constant_pair(g, random_frame(rng, 4, 2))
    f = curvature_of(connection_one_form(sec0, sec1))
    assert np.abs(f.samples).max() <= 1e-12


def test_patching_identities_refine_at_second_order(demo16, rot16, demo32, rot32):
    # gauge law: omega_alpha - omega_beta equals the discrete d log of the
    # chart-ratio determinant, with O(h^2) density
    def residual(fam, sec):
        s0, s1 = fam.boundary_pair()[0], sec
        out = patching_residuals(connection_one_form(s0, s1), 0, 1)
        return (out["inverse_ratio"].max_density_residual(),
                out["adjoint_ratio"].max_density_residual())

    inv16, adj16 = residual(demo16, rot16)
    inv32, adj32 = residual(demo32, rot32)
    assert 2.5 <= inv16 / inv32 <= 5.5
    assert 2.5 <= adj16 / adj32 <= 5.5
    # both identities measure the same obstruction through conjugate charts
    assert inv16 == pytest.approx(adj16, rel=1e-9)


def test_metric_compatibility_is_exact(demo16, rot16):
    # along each edge the increment of log |det M|^2 is twice the real part
    # of the edge connection sample, with no discretization error at all
    sec0, sec1 = demo16.boundary_pair()[0], rot16
    conn = connection_one_form(sec0, sec1)
    form = conn.omega[0]
    metric = pair_metric_field(sec0, sec1)
    logm = np.log(metric)
    worst = 0.0
    for ax in (0, 1):
        inc = np.roll(logm, -1, axis=ax) - logm
        resid = np.abs(inc - 2.0 * form.samples[..., ax].real)
        if form.mask is not None:
            resid = np.where(form.mask[..., ax], 0.0, resid)
        worst = max(worst, float(resid.max()))
    assert worst <= 1e-12


def _ambient_chart_edge_data(sec0, sec1, chart, sing_floor):
    """Reference chart data from the ambient compression Phi = P1 (I + C) P0.

    Phi is differenced in the ambient space and then compressed with the
    frames at the centre point; every block goes through numpy.linalg.
    """
    g = sec0.grid
    f0, f1 = sec0.frames(), sec1.frames()
    amb = np.eye(sec0.dim) + (0.0 if chart is None else chart)
    f1h = np.swapaxes(f1.conj(), -1, -2)
    m = f1h @ (amb @ f0)
    k = m.shape[-1]
    smin = np.linalg.svd(m, compute_uv=False)[..., -1] if k else np.full(g.shape, np.inf)
    healthy = smin >= sing_floor
    msafe = np.where(healthy[..., None, None], m, np.eye(k, dtype=complex))
    logm = 2.0 * np.linalg.slogdet(msafe)[1]
    phi = (sec1.values @ amb) @ sec0.values
    comps, masks = [], []
    for ax in range(g.ndim):
        dphi = (g.roll(phi, ax, +1) - g.roll(phi, ax, -1)) / (2.0 * g.spacing[ax])
        t = f1h @ dphi @ f0
        di = np.trace(np.linalg.solve(msafe, t), axis1=-2, axis2=-1).imag
        re = 0.5 * (g.roll(logm, ax, +1) - logm)
        im = 0.5 * g.spacing[ax] * (di + g.roll(di, ax, +1))
        comps.append(re + 1j * im)
        masks.append(~(healthy & g.roll(healthy, ax, +1)))
    return {"omega": np.stack(comps, axis=g.ndim), "edge_mask": np.stack(masks, axis=g.ndim),
            "healthy": healthy, "det": np.linalg.det(msafe)}


def _oracle_pair(name, request):
    if name == "rank0":
        zero = ProjectionSection.build(BaseGrid.torus(8, 8), np.zeros((8, 8, 2, 0)))
        return zero, zero
    if name.startswith("scalar_rank"):
        fam = constant_scalar_family(BaseGrid.torus(8, 8), rank=int(name[-1]),
                                     steps_per_half=32)
        return fam.boundary_pair()
    if name == "cylinder_t6":
        return CylinderFamily(BaseGrid.torus(8, 8), truncation=6).boundary_pair()
    if name == "vortex_12x20":
        fam = demo_family(BaseGrid.torus(12, 20), steps_per_half=STEPS)
        return fam.boundary_pair()[0], vortex_interface(fam)
    demo16 = request.getfixturevalue("demo16")
    if name == "demo_full":
        return demo16.boundary_pair()
    which, kind = name.split("_")
    sec = request.getfixturevalue("rot16") if kind == "rotated" else vortex_interface(demo16)
    return (demo16.boundary_pair()[0], sec) if which == "left" else (sec, demo16.boundary_pair()[1])


@pytest.mark.parametrize("name", [
    "demo_full", "left_rotated", "right_rotated", "left_vortex", "right_vortex",
    "vortex_12x20", "scalar_rank1", "scalar_rank3", "cylinder_t6", "rank0"])
def test_rank_space_chart_data_matches_ambient_oracle(name, request):
    sec0, sec1 = _oracle_pair(name, request)
    for chart in default_cover(sec0.dim):
        omega, healthy, dets = _chart_edge_data(sec0, sec1, chart, 0.1)
        ref = _ambient_chart_edge_data(sec0, sec1, chart, 0.1)
        assert np.array_equal(healthy, ref["healthy"])
        assert np.array_equal(omega.mask, ref["edge_mask"])
        assert np.abs(omega.samples - ref["omega"]).max(initial=0.0) <= 1e-13
        assert np.abs(dets - ref["det"]).max(initial=0.0) <= 1e-13


# -- curvature formulas --------------------------------------------------------------


def test_families_formula_of_equal_sections_is_zero(rot16):
    f = curvature_families_formula(rot16, rot16)
    assert np.abs(f.samples).max() <= 1e-12


def test_families_formula_variants_agree(demo16, rot16):
    # the full formula against the split-fibration shortcut tr(R1) - tr(R0)
    sec0, sec1 = demo16.boundary_pair()[0], rot16
    full = curvature_families_formula(sec0, sec1)
    tr0, tr1 = (np.trace(s.plaquette_blocks[1], axis1=-2, axis2=-1) for s in (sec0, sec1))
    diff = np.abs(full.samples - (tr1 - tr0))
    if full.mask is not None:
        diff = np.where(full.mask, 0.0, diff)
    assert diff.max() <= 1e-9


def test_families_formula_matches_connection_curvature(demo16, rot16, demo32, rot32):
    def gap(fam, sec):
        s0, s1 = fam.boundary_pair()[0], sec
        by_conn = curvature_of(connection_one_form(s0, s1))
        by_blocks = curvature_families_formula(s0, s1)
        d = np.abs(by_conn.samples - by_blocks.samples)
        for m in (by_conn.mask, by_blocks.mask):
            if m is not None:
                d = np.where(m, 0.0, d)
        return float(d.max()) / fam.grid.plaquette_area()

    g16 = gap(demo16, rot16)
    g32 = gap(demo32, rot32)
    assert 2.5 <= g16 / g32 <= 5.5


def test_families_formula_takes_center_frames_from_the_plaquette_blocks(monkeypatch):
    # on fresh sections: the frames are read, and one eigh per section for
    # its plaquette blocks also gives the center frames; none on a repeat
    fam = demo_family(BaseGrid.torus(8, 8), steps_per_half=16)
    s0, s1 = fam.boundary_pair()[0], rotated_interface(fam)
    calls = _count_calls(monkeypatch, "eigh")
    got = curvature_families_formula(s0, s1)
    assert len(calls) == 2
    assert curvature_families_formula(s0, s1).samples.tolist() == got.samples.tolist()
    assert len(calls) == 2
    # oracle: frames from an eigh of each center projection, tr(X N) by solve
    monkeypatch.undo()
    pcs, rs = [], []
    for s in (s0, s1):
        pc, comm = _plaquette_corners(s.values, s.grid)
        pc, _ = nearest_projection(pc, s.base_rank)
        pcs.append(pc)
        rs.append(pc @ comm @ pc * s.grid.plaquette_area())
    f0c, f1c = (spectral_frames(2.0 * pc - np.eye(4)) for pc in pcs)
    f1ch = np.swapaxes(f1c.conj(), -1, -2)
    want = (np.trace(np.linalg.solve(f1ch @ f0c, f1ch @ rs[1] @ f0c), axis1=-2, axis2=-1)
            - np.trace(rs[0], axis1=-2, axis2=-1))
    assert not got.mask.any()
    assert np.abs(got.samples - want).max() <= 1e-13


# -- splitting comparison function -----------------------------------------------------


def test_f_function_is_one_when_section_equals_first_leg(demo16):
    left = demo16.calderon_section("left")
    assert f_function(demo16, left, (3, 5)) == pytest.approx(1.0, rel=1e-10)


def test_f_function_raises_out_of_chart_at_an_excluded_point():
    # at c = 1 the periodic kernel is open everywhere, so the full pair's
    # compression is singular at every point
    fam = constant_scalar_family(BaseGrid.torus(8, 8), value=1.0, steps_per_half=64)
    with pytest.raises(OutOfChart, match="near-singular at"):
        f_function(fam, fam.calderon_section("left"), (0, 0))


def test_additivity_report_demo(demo16, rot16):
    rep = additivity_residual(demo16, rot16, label="demo")
    r = rep.residuals
    assert r["excluded_edge_fraction"] <= 0.05
    assert r["curvature_real_max"] <= 1e-9
    assert r["f_winding_integrality"] <= 1e-6
    assert r["chern_additivity_gap"] == 0.0
    assert rep.chern_additive
    s = rep.summary()
    assert s["grid"] == [16, 16]
    assert set(s["chern"]) == {"full", "left", "right", "additive"}
    assert set(s["residuals"]) == set(r)


def test_additivity_diagonalises_each_section_once(monkeypatch):
    # sections cache their frames, complement and links, so the whole report
    # needs one eigendecomposition per section (the two boundary legs and the
    # interface); each pair's four charts are evaluated once, on rank-2
    # blocks, with closed forms and no further numpy.linalg call
    fam = demo_family(BaseGrid.torus(16, 16), steps_per_half=STEPS)
    sec = rotated_interface(fam)
    calls = {name: _count_calls(monkeypatch, name)
             for name in ("eigh", "svd", "solve", "slogdet", "det")}
    additivity_residual(fam, sec)
    assert len(calls["eigh"]) <= 3
    for name in ("svd", "solve", "slogdet", "det"):
        assert len(calls[name]) == 0, name
    assert sec.frames() is sec.frames()
    assert section_links(sec) is section_links(sec)
    assert sec.complement() is sec.complement()
    with pytest.raises(ValueError):
        sec.values[0, 0, 0, 0] = 1.0


def test_chart_data_are_read_only(demo16, rot16):
    sec0 = demo16.boundary_pair()[0]
    conn = connection_one_form(sec0, rot16)
    cover = default_cover(sec0.dim)
    stored = [a for form, healthy, dets in (_chart_edge_data(sec0, rot16, c, 0.1) for c in cover)
              for a in (healthy, dets, form.samples, form.mask)]
    assert len(stored) == 4 * len(cover)
    atlas = [*conn.healthy, *conn.det, *(f.samples for f in conn.omega), *(f.mask for f in conn.omega)]
    assert len(atlas) == 4 * len(conn.omega)
    assert not any(a.flags.writeable for a in stored + atlas)


def test_plaquette_chart_is_read_only(demo16, rot16):
    conn = connection_one_form(demo16.boundary_pair()[0], rot16)
    before = curvature_of(conn)
    with pytest.raises(ValueError):
        conn.plaquette_chart[:] = -1
    after = curvature_of(conn)
    assert np.array_equal(after.samples, before.samples) and np.array_equal(after.mask, before.mask)
    assert not after.mask.all()


def test_frame_transports_are_cached_read_only(rot16):
    u = rot16.transports
    assert u is rot16.transports
    assert u.shape == rot16.grid.shape + (2, 2, 2)
    with pytest.raises(ValueError):
        u[0, 0, 0, 0, 0] = 1.0
    # the links are the determinants of the forward transports
    f = rot16.frames()
    fwd = np.swapaxes(f.conj(), -1, -2) @ np.roll(f, -1, axis=1)
    assert np.abs(u[:, :, 1] - fwd).max() <= 1e-15
    assert np.abs(section_links(rot16)[..., 1] - np.linalg.det(fwd)).max() <= 1e-14


def test_cylinder_charts_solve_once_and_take_no_det(monkeypatch):
    # rank 9 is past the closed forms: each chart makes one solve for both
    # axes and reads its determinant off the slogdet, and each section makes
    # one det for the links of both axes
    fam = CylinderFamily(BaseGrid.torus(8, 8), truncation=8)
    sec = fam.conjugated_section(0.5, seed_offset=4)
    calls = {name: _count_calls(monkeypatch, name) for name in ("solve", "det")}
    rep = additivity_residual(fam, sec)
    assert rep.chern_additive
    assert len(calls["solve"]) <= 12
    assert len(calls["det"]) <= 3


def test_verify_curvature_suite_reuses_the_report(monkeypatch):
    # the suite reads the left pair's connection, its patching residuals and
    # its curvature from the additivity report, and the families formula and
    # the tr(R1) - tr(R0) shortcut share each section's cached plaquette
    # blocks: one connection per pair, chart 0 of each plus chart 1 of the
    # left pair for its patching residuals, and one nearest_projection per
    # section
    from detbundle import curvature as curvature_module, grassmann, verify
    from detbundle.cli import build_family, build_interface, load_config

    cfg = load_config(None)
    fam = build_family(cfg, BaseGrid.torus(16, 16))
    sec = build_interface(cfg, fam)
    calls = {name: _count_calls(monkeypatch, name, (curvature_module, grassmann, verify))
             for name in ("connection_one_form", "nearest_projection", "_chart_edge_data")}
    checks = verify.run_suite("curvature", model=fam, section=sec,
                              sing_floor=0.1, max_excluded=0.05)
    assert len(calls["connection_one_form"]) == 3
    assert len(calls["_chart_edge_data"]) == 4
    assert len(calls["nearest_projection"]) == 2
    assert len(checks) == 12
    assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]
    for s in (fam.boundary_pair()[0], sec):
        for block in s.plaquette_blocks:
            with pytest.raises(ValueError):
                block[(0,) * block.ndim] = 0.0


def test_verify_curvature_suite_reuses_the_report_on_a_cylinder(monkeypatch):
    # CylinderFamily does not cache its pair, so every boundary_pair() builds
    # two conjugated sections; the suite reads the first boundary section off
    # the report instead of building the pair a second time
    from detbundle import verify

    fam = CylinderFamily(BaseGrid.torus(8, 8), truncation=4)
    sec = fam.conjugated_section(0.5 * fam.amplitude, seed_offset=4)
    calls = _count_calls(monkeypatch, "conjugated_section", (CylinderFamily,))
    checks = verify.run_suite("curvature", model=fam, section=sec,
                              sing_floor=0.05, max_excluded=0.05)
    assert len(calls) == 2
    assert len(checks) == 12
    assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]


def test_additivity_residual_refines_at_second_order(demo16, rot16, demo32, rot32):
    rep16 = additivity_residual(demo16, rot16)
    rep32 = additivity_residual(demo32, rot32)
    edge = rep16.residuals["one_form_max_density"] / rep32.residuals["one_form_max_density"]
    plaq = rep16.residuals["defect_max_density"] / rep32.residuals["defect_max_density"]
    assert 2.5 <= edge <= 5.5
    assert 2.5 <= plaq <= 5.5


def test_flat_family_reports_identically_zero():
    g = BaseGrid.torus(8, 8)
    fam = constant_scalar_family(g, value=0.5, rank=1, steps_per_half=32)
    rep = additivity_residual(fam, fam.calderon_section("left"), label="flat")
    assert (rep.chern, rep.chern_left, rep.chern_right) == (0, 0, 0)
    for form in (rep.curvature, rep.curvature_left, rep.curvature_right,
                 rep.defect, rep.one_form_residual):
        assert np.abs(form.samples).max() <= 1e-12


class _FixedPairModel:
    """Model stub whose full boundary pair is one fixed pair of sections."""

    def __init__(self, sec0, sec1):
        self.pair = (sec0, sec1)

    def boundary_pair(self):
        return self.pair


def test_rank_zero_pair_is_the_trivial_line():
    g = BaseGrid.torus(8, 8)
    zero = ProjectionSection.build(g, np.zeros(g.shape + (2, 0)))
    conn = connection_one_form(zero, zero)
    assert all(h.all() for h in conn.healthy)
    for form in conn.omega:
        assert not form.mask.any() and not np.abs(form.samples).any()
    fam_form = curvature_families_formula(zero, zero)
    assert not fam_form.mask.any() and not np.abs(fam_form.samples).any()
    rep = additivity_residual(_FixedPairModel(zero, zero), zero)
    assert (rep.chern, rep.chern_left, rep.chern_right) == (0, 0, 0)
    assert all(v == 0.0 for v in rep.residuals.values())


def test_degenerate_family_raises_coverage_error():
    g = BaseGrid.torus(8, 8)
    fam = constant_scalar_family(g, value=1.0, rank=1, steps_per_half=32)
    with pytest.raises(CoverageError) as exc:
        additivity_residual(fam, fam.calderon_section("left"))
    assert exc.value.fraction > 0.05


# -- lazy atlas ---------------------------------------------------------------------------

# a plaquette's corners, then the further points its edges' difference stencils read
_STENCIL = ((0, 0), (1, 0), (0, 1), (1, 1), (-1, 0), (2, 0), (0, -1), (0, 2),
            (1, -1), (1, 2), (-1, 1), (2, 1))


def _every_chart_curvature(sec0, sec1, sing_floor=0.1):
    """Reference curvature with every chart of the default cover evaluated:
    each plaquette from the first chart healthy on its whole stencil."""
    g = sec0.grid
    vals = np.zeros(g.shape, dtype=complex)
    chosen = np.full(g.shape, -1)
    for i, chart in enumerate(default_cover(sec0.dim)):
        omega, healthy, _ = _chart_edge_data(sec0, sec1, chart, sing_floor)
        pl = omega.coboundary().samples
        ok = np.ones(g.shape, dtype=bool)
        for da, db in _STENCIL:
            ok &= np.roll(healthy, (-da, -db), axis=(0, 1))
        take = ok & (chosen < 0)
        vals[take] = pl[take]
        chosen[take] = i
    return vals, chosen < 0


def _lazy_case(name, request):
    if name == "cylinder_t8":
        fam = CylinderFamily(BaseGrid.torus(8, 8), truncation=8)
        return fam, fam.conjugated_section(0.5, seed_offset=4)
    fam = request.getfixturevalue("demo16" if name == "demo16" else "demo32")
    return fam, request.getfixturevalue("rot16") if name == "demo16" else vortex_interface(fam)


@pytest.mark.parametrize("name, evaluated", [
    ("demo16", [1, 1, 1]), ("vortex32", [1, 2, 3]), ("cylinder_t8", [1, 1, 1])])
def test_lazy_atlas_matches_every_chart_evaluated(name, evaluated, request):
    fam, sec = _lazy_case(name, request)
    rep = additivity_residual(fam, sec)
    assert [len(c.omega) for c in rep.connections] == evaluated
    sec_a, sec_b = fam.boundary_pair()
    pairs = ((sec_a, sec_b), (sec_a, sec), (sec, sec_b))
    forms = (rep.curvature, rep.curvature_left, rep.curvature_right)
    for (s0, s1), conn, form in zip(pairs, rep.connections, forms):
        vals, mask = _every_chart_curvature(s0, s1)
        assert np.array_equal(form.samples, vals) and np.array_equal(form.mask, mask)
        omega, healthy, dets = zip(*(_chart_edge_data(s0, s1, c, 0.1) for c in default_cover(s0.dim)))
        forced = curvature_of(dataclasses.replace(conn, omega=omega, healthy=healthy, det=dets))
        assert np.array_equal(forced.samples, vals) and np.array_equal(forced.mask, mask)
    # the F edge mask is the one of the joint plain-chart domain
    _, joint = f_function_field(sec_a, sec, sec_b, 0.1)
    edges = np.stack([~(joint & np.roll(joint, -1, axis=ax)) for ax in (0, 1)], axis=2)
    assert np.array_equal(rep.one_form_residual.mask, edges)


def _patching_oracle(sec0, sec1, a, b):
    """Both transition residuals from chart data evaluated outright."""
    cover, g = default_cover(sec0.dim), sec0.grid
    (oa, ha, det_a), (ob, hb, det_b) = (_chart_edge_data(sec0, sec1, cover[i], 0.1) for i in (a, b))
    both = ha & hb

    def dlog(v):
        return np.stack([np.log(np.roll(v, -1, axis=ax) / v) for ax in (0, 1)], axis=2)

    def wrap(v):
        return v - 2j * np.pi * np.round(v.imag / (2.0 * np.pi))

    mask = np.stack([~(both & np.roll(both, -1, axis=ax)) for ax in (0, 1)], axis=2)
    inv = wrap(oa.samples - ob.samples - dlog(np.where(both, det_a / det_b, 1.0)))
    adj = wrap(oa.samples + np.conj(ob.samples)
               - dlog(np.where(both, np.conj(det_b) * det_a, 1.0)))
    return {"inverse_ratio": inv, "adjoint_ratio": adj}, mask


def test_patching_residuals_evaluate_the_charts_they_read(demo16, rot16, demo32):
    vortex = vortex_interface(demo32)
    # (pair, charts, charts the stop rule evaluates); the vortex pair has
    # points outside its first charts, so the residual masks are not empty
    for fam, (s0, s1), a, b, lazy in ((demo16, (demo16.boundary_pair()[0], rot16), 0, 1, 1),
                                      (demo32, (vortex, demo32.boundary_pair()[1]), 0, 1, 3),
                                      (demo32, (vortex, demo32.boundary_pair()[1]), 3, 1, 3)):
        conn = connection_one_form(s0, s1)
        assert len(conn.omega) == lazy
        got = patching_residuals(conn, a, b)
        # a chart the atlas did not need is evaluated for the call and not kept
        assert len(conn.omega) == lazy
        ref, mask = _patching_oracle(s0, s1, a, b)
        assert mask.any() == (fam is demo32)
        for key, form in got.items():
            assert np.array_equal(form.samples, ref[key]) and np.array_equal(form.mask, mask)


def test_uncovered_point_evaluates_the_whole_cover_before_raising(monkeypatch):
    from detbundle import curvature as curvature_module

    g = BaseGrid.torus(8, 8)
    f0 = np.zeros(g.shape + (2, 1), dtype=complex)
    f0[..., 0, 0] = 1.0
    f1 = f0.copy()
    f1[3, 3] = [[0.0], [1.0]]
    sec0, sec1 = ProjectionSection.build(g, f0), ProjectionSection.build(g, f1)
    cover = [None, np.diag([1.0, 0.0]), None]
    monkeypatch.setattr(curvature_module, "default_cover", lambda dim: cover)
    calls = _count_calls(monkeypatch, "_chart_edge_data", (curvature_module,))
    with pytest.raises(CoverageError, match=r"^1 grid points lie outside every chart domain$"):
        connection_one_form(sec0, sec1)
    assert len(calls) == 3


def test_chart_indices_outside_the_cover_raise(demo16, rot16):
    conn = connection_one_form(demo16.boundary_pair()[0], rot16)
    for a, b in ((-1, 0), (0, -4), (0, 4), (7, 1)):
        with pytest.raises(IndexError):
            patching_residuals(conn, a, b)
    assert len(conn.omega) == 1


def test_patching_residuals_leave_the_report_unchanged(demo16, rot16):
    rep = additivity_residual(demo16, rot16)
    before = [(*c.omega, *c.healthy, *c.det, c.plaquette_chart) for c in rep.connections]
    patching_residuals(rep.connections[1], 0, 1)
    assert [len(c.omega) for c in rep.connections] == [1, 1, 1]
    after = [(*c.omega, *c.healthy, *c.det, c.plaquette_chart) for c in rep.connections]
    assert all(x is y for b, a in zip(before, after, strict=True) for x, y in zip(b, a, strict=True))


def test_records_are_frozen(demo16, rot16):
    rep = additivity_residual(demo16, rot16)
    conn = rep.connections[0]
    check = CheckResult("name", True, 0.0, 1.0, "detail")
    for record, name, value in ((conn, "omega", ()), (rep.defect, "samples", rep.defect.samples.copy()),
                                (rep, "label", "other"), (check, "passed", False)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, value)
    assert len(conn.omega) == 1 and rep.label == "" and check.passed


def test_lazy_atlas_on_rank_zero_pairs():
    zero = ProjectionSection.build(BaseGrid.torus(8, 8), np.zeros((8, 8, 2, 0)))
    conn = connection_one_form(zero, zero)
    assert len(conn.omega) == 1 and (conn.plaquette_chart == 0).all()
    for form in patching_residuals(conn, 0, 3).values():
        assert not form.mask.any() and not np.abs(form.samples).any()


# -- Chern numbers ----------------------------------------------------------------------


def test_chern_of_constant_section_is_zero():
    rng = np.random.default_rng(63)
    g = BaseGrid.torus(8, 8)
    sec, _ = _constant_pair(g, random_frame(rng, 4, 2))
    assert chern_of_section(sec) == 0


def test_chern_of_bloch_family_is_signed_unit():
    g = BaseGrid.torus(24, 24)
    assert chern_of_section(bloch_section(g, mass=1.0)) == -1
    assert chern_of_section(bloch_section(g, mass=-1.0)) == 1


def test_chern_of_pair_with_itself_is_zero(rot16):
    assert chern_of_pair(rot16, rot16) == 0


@pytest.mark.parametrize("orientation", [1, -1, 2, -2, 0])
def test_vortex_interface_chern_triple(demo32, orientation):
    # a vortex of winding n shifts the Chern number of the left pair by -n
    sec = vortex_interface(demo32, orientation=orientation)
    rep = additivity_residual(demo32, sec, max_excluded=0.2, label="vortex")
    assert (rep.chern, rep.chern_left, rep.chern_right) == (0, -orientation, orientation)
    assert rep.chern_additive


def test_non_square_torus_vortex_chern_triple():
    # unequal axes: every roll and stencil has to keep the axes apart
    fam = demo_family(BaseGrid.torus(12, 20), steps_per_half=STEPS)
    rep = additivity_residual(fam, vortex_interface(fam))
    assert rep.curvature.grid.shape == (12, 20)
    assert (rep.chern, rep.chern_left, rep.chern_right) == (0, -1, 1)
    assert rep.chern_additive


def test_winding_rejects_vortex_on_link():
    g = BaseGrid.torus(4, 4)
    links = np.ones((4, 4, 2), dtype=complex)
    links[0, 0, 0] = 1e-12
    with pytest.raises(VortexOnLink):
        plaquette_winding(g, links)


def test_chern_number_rejects_nonintegral_holonomy():
    g = BaseGrid.torus(4, 4)
    rng = np.random.default_rng(64)
    # random unimodular links give a holonomy sum that is integral only by
    # accident; force a non-integral total with a single biased link
    links = np.exp(1j * rng.uniform(-0.1, 0.1, size=(4, 4, 2)))
    links[2, 2, 0] *= np.exp(0.2j)
    winding = plaquette_winding(g, links).total() / (2j * np.pi)
    if abs(winding - round(winding.real)) > 1e-3:
        with pytest.raises(ValueError):
            chern_number(g, links)
    else:
        assert chern_number(g, links) == round(winding.real)


# -- closing trace identities --------------------------------------------------------------


def test_swap_trace_identity_random_triples():
    rng = np.random.default_rng(65)
    for _ in range(25):
        dim = int(rng.integers(4, 17))
        rank = int(rng.integers(1, dim // 2 + 1))
        p0 = Projection(random_frame(rng, dim, rank))
        p1 = Projection(random_frame(rng, dim, rank))
        phi = np.eye(dim) + random_complex(rng, dim, dim, scale=0.2)
        end0 = random_complex(rng, dim, dim)
        end1 = random_complex(rng, dim, dim)
        lhs, rhs = swap_trace_identity(p0, p1, phi, end0, end1)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_composition_trace_identity_random_triples():
    rng = np.random.default_rng(66)
    for _ in range(25):
        dim = int(rng.integers(4, 17))
        rank = int(rng.integers(1, dim // 2 + 1))
        p0 = Projection(random_frame(rng, dim, rank))
        p1 = Projection(random_frame(rng, dim, rank))
        p2 = Projection(random_frame(rng, dim, rank))
        phi01 = np.eye(dim) + random_complex(rng, dim, dim, scale=0.2)
        phi12 = np.eye(dim) + random_complex(rng, dim, dim, scale=0.2)
        end2 = random_complex(rng, dim, dim)
        lhs, rhs = composition_trace_identity(p0, p1, p2, phi01, phi12, end2)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_pointwise_projection_paths_make_no_eigh(monkeypatch):
    # a Projection owns its frame, so nothing that reads it diagonalises
    rng = np.random.default_rng(67)
    p0, p1, p2 = (Projection(random_frame(rng, 8, 3)) for _ in range(3))
    phi = np.eye(8) + random_complex(rng, 8, 8, scale=0.2)
    end = random_complex(rng, 8, 8)
    calls = _count_calls(monkeypatch, "eigh")
    p0.frame()
    toeplitz_inverse(p0, p1, p1.matrix @ p0.matrix)
    pair_metric_sq(p0, p1)
    swap_trace_identity(p0, p1, phi, end, end)
    composition_trace_identity(p0, p1, p2, phi, phi, end)
    assert len(calls) == 0


def test_masked_csv_cells_are_nan_and_the_rest_is_gauge_free(demo32, tmp_path):
    # outside a chart's domain the defect depends on the frame gauge, so the
    # CSV writes nan there; per-point unitary regauging moves nothing else
    sec = vortex_interface(demo32)
    u = np.linalg.qr(random_complex(np.random.default_rng(68), *demo32.grid.shape, 2, 2))[0]
    regauged = ProjectionSection.build(demo32.grid, sec.frames() @ u)
    samples, masks = [], []
    for i, s in enumerate((sec, regauged)):
        defect = additivity_residual(demo32, s).defect
        defect.to_csv(tmp_path / f"{i}.csv")
        with open(tmp_path / f"{i}.csv", newline="") as fh:
            samples.append(np.array([[float(x) for x in row[2:]] for row in list(csv.reader(fh))[1:]]))
        masks.append(defect.mask.ravel())
    mask = masks[0]
    assert np.array_equal(mask, masks[1]) and 0 < mask.sum() < mask.size
    for v in samples:
        assert np.isnan(v[mask]).all() and np.isfinite(v[~mask]).all()
    assert np.abs(samples[0][~mask] - samples[1][~mask]).max() <= 1e-14
