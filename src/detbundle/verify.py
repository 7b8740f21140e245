"""Named invariant suites behind the command-line verify subcommand.

Each suite returns a list of CheckResult records with the measured residual
and the threshold it was held to.  Thresholds here are fixed-resolution
sanity bounds chosen with wide margins; the sharp refinement-ratio
statements live in the acceptance tests, where two grid resolutions are
compared.  All randomness is drawn from seeded generators so a (config,
seed) pair reproduces the report byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import detline, opcalc
from ._blocks import smallest_singular_value
from .errors import CoverageError, OutOfChart
from .grassmann import (
    BaseGrid,
    DiscreteForm,
    Projection,
    curvature_trace_form,
    graph_projection,
    second_fundamental_form,
    spectral_projection,
    toeplitz_inverse,
)
from .models import (
    CylinderFamily,
    bloch_curvature_density,
    bloch_section,
    constant_scalar_family,
    demo_family,
    smoothing_perturbation,
)
from .curvature import (
    additivity_residual,
    composition_trace_identity,
    curvature_families_formula,
    pair_metric_field,
    patching_residuals,
    swap_trace_identity,
)

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite"]

SUITE_NAMES = ("opcalc", "grassmann", "detline", "models", "curvature")


@dataclass(frozen=True)
class CheckResult:
    """One named invariant with its measured residual and threshold."""

    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str


def _result(name: str, measured, threshold: float, detail: str) -> CheckResult:
    m = float(measured)
    ok = bool(np.isfinite(m)) and m <= threshold
    return CheckResult(name, ok, m, float(threshold), detail)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(stream)])


def _random_contraction(rng: np.random.Generator, dim: int, tn: float) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return a * (tn / opcalc.trace_norm(a))


def _random_projection(rng: np.random.Generator, dim: int, rank: int) -> Projection:
    a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    return Projection(np.linalg.qr(a)[0])


def _rel(x, y, floor: float) -> float:
    return float(abs(x - y) / max(abs(y), floor))


# -- opcalc ---------------------------------------------------------------------


def suite_opcalc(seed: int, tol: float) -> list[CheckResult]:
    rng = _rng(seed, 1)
    worst_series = 0.0
    worst_mult = 0.0
    worst_slope = 0.0
    for _ in range(60):
        dim = int(rng.integers(2, 41))
        a = _random_contraction(rng, dim, float(rng.uniform(0.2, 4.0)))
        b = _random_contraction(rng, dim, float(rng.uniform(0.2, 4.0)))
        dense = opcalc.fredholm_det(a, method="dense")
        series = opcalc.fredholm_det(a, method="series")
        worst_series = max(worst_series, _rel(series, dense, 1e-6))
        prod = opcalc.fredholm_det(a) * opcalc.fredholm_det(b)
        joint = opcalc.fredholm_det(a + b + b @ a)
        worst_mult = max(worst_mult, _rel(joint, prod, 1e-6))
        eps = 1e-5

        def slope(e):
            return (opcalc.fredholm_det(e * a) - opcalc.fredholm_det(-e * a)) / (2 * e)

        rich = (4.0 * slope(eps) - slope(2 * eps)) / 3.0
        worst_slope = max(worst_slope, abs(rich - opcalc.trace(a)) / max(abs(opcalc.trace(a)), 1.0))

    rng2 = _rng(seed, 2)
    worst_wedge = 0.0
    worst_bound = 0.0
    for _ in range(20):
        dim = int(rng2.integers(2, 9))
        a = _random_contraction(rng2, dim, float(rng2.uniform(0.2, 3.0)))
        tn = opcalc.trace_norm(a)
        for r in range(1, min(dim, 3) + 1):
            w = opcalc.wedge_trace(a, r)
            cm = opcalc.trace(opcalc.compound_matrix(a, r))
            worst_wedge = max(worst_wedge, _rel(w, cm, 1e-9))
            bound = tn ** r / math.factorial(r)
            worst_bound = max(worst_bound, abs(w) / bound - 1.0)

    prof = opcalc.schatten_profile(_random_contraction(_rng(seed, 3), 12, 2.0))
    order = max(0.0, prof.operator_norm - prof.trace_norm)

    return [
        _result("fredholm_series_vs_dense", worst_series, tol,
                "60 random matrices, dims 2-40"),
        _result("fredholm_multiplicativity", worst_mult, tol,
                "det(I+A)(I+B) against the joint argument"),
        _result("trace_slope_richardson", worst_slope, 1e-8,
                "two-step Richardson at eps=1e-5"),
        _result("wedge_trace_vs_compound", worst_wedge, 1e-10,
                "exterior-power traces against compound matrices"),
        _result("wedge_schatten_bound", worst_bound, 1e-9,
                "|tr wedge^r A| <= trace_norm^r / r!"),
        _result("schatten_norm_order", order, 0.0,
                "operator norm never exceeds trace norm"),
    ]


# -- grassmann --------------------------------------------------------------------


def _matrix_sign_projection(h: np.ndarray) -> np.ndarray:
    x = h.copy()
    for _ in range(60):
        x = 0.5 * (x + np.linalg.inv(x))
    return 0.5 * (np.eye(h.shape[0]) + x)


def suite_grassmann(seed: int) -> list[CheckResult]:
    rng = _rng(seed, 11)
    worst_laws = 0.0
    worst_sign = 0.0
    worst_toep = 0.0
    for _ in range(25):
        n = int(rng.integers(2, 7))
        t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        p = graph_projection(t).matrix
        worst_laws = max(worst_laws,
                         float(np.abs(p @ p - p).max()),
                         float(np.abs(p - p.conj().T).max()))

        h = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
        h = h + h.conj().T
        w = np.linalg.eigvalsh(h)
        if np.abs(w).min() < 0.3:
            h = h + 0.6 * np.sign(rng.standard_normal()) * np.eye(2 * n)
            if np.abs(np.linalg.eigvalsh(h)).min() < 1e-3:
                continue
        ps = spectral_projection(h).matrix
        worst_sign = max(worst_sign, float(np.abs(ps - _matrix_sign_projection(h)).max()))

        dim, rank = 8, 3
        p0 = _random_projection(rng, dim, rank)
        p1 = _random_projection(rng, dim, rank)
        phi = p1.matrix @ (rng.standard_normal((dim, dim))
                           + 1j * rng.standard_normal((dim, dim))) @ p0.matrix
        if smallest_singular_value(p1.frame().conj().T @ phi @ p0.frame()) < 0.05:
            continue
        x = toeplitz_inverse(p0, p1, phi)
        worst_toep = max(worst_toep,
                         float(np.abs(x @ phi - p0.matrix).max()),
                         float(np.abs(phi @ x - p1.matrix).max()))

    g = BaseGrid.torus(24, 24)
    sec = bloch_section(g, mass=1.0)
    lattice = curvature_trace_form(sec).density()
    b1, b2 = g.coords(offset=0.5 * g.spacing[0])
    exact = bloch_curvature_density(b1, b2, mass=1.0)
    bloch_err = float(np.abs(lattice - exact).max())

    f0 = np.cos(b1) * np.sin(2 * b2) + 0.3 * np.cos(b2)
    zero_form = DiscreteForm(g, 0, f0.astype(complex))
    ddf = zero_form.coboundary().coboundary()
    dd_zero = float(np.abs(ddf.samples).max())

    sff_worst = 0.0
    for idx in ((3, 5), (11, 17), (20, 2)):
        for ax in range(2):
            sff = second_fundamental_form(sec, idx, ax)
            fwd = g.roll(sec.values, ax, +1)[idx]
            bwd = g.roll(sec.values, ax, -1)[idx]
            dp = (fwd - bwd) / (2.0 * g.spacing[ax])
            sff_worst = max(sff_worst,
                            float(np.abs(dp - sff - sff.conj().T).max()))

    return [
        _result("projection_laws", worst_laws, 1e-12,
                "graph projections idempotent and self-adjoint"),
        _result("spectral_vs_matrix_sign", worst_sign, 1e-10,
                "spectral projection against the Newton sign iteration"),
        _result("toeplitz_inverse_laws", worst_toep, 1e-10,
                "X phi = P0 and phi X = P1 on random compressions"),
        _result("lattice_vs_exact_curvature_density", bloch_err, 0.05,
                "rank-1 band at 24^2 against the closed-form density"),
        _result("coboundary_squared_zero", dd_zero, 1e-13,
                "d(d f) vanishes identically on the lattice"),
        _result("second_fundamental_reassembly", sff_worst, 0.1,
                "dP recovered from the off-diagonal blocks at finite h"),
    ]


# -- detline ----------------------------------------------------------------------


def suite_detline(seed: int, tol: float) -> list[CheckResult]:
    rng = _rng(seed, 21)
    worst_cocycle = 0.0
    worst_gauge = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 13))
        a = _random_contraction(rng, dim, float(rng.uniform(0.5, 3.0)))
        shifts = [np.diag(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
                  for _ in range(3)]
        try:
            gab = detline.transition(a, shifts[0], shifts[1])
            gbc = detline.transition(a, shifts[1], shifts[2])
            gca = detline.transition(a, shifts[2], shifts[0])
        except OutOfChart:
            continue
        worst_cocycle = max(worst_cocycle, abs(gab * gbc * gca - 1.0))

        e = detline.LineElement(np.eye(dim) + a, np.eye(dim) + a,
                                complex(rng.standard_normal() + 1j * rng.standard_normal()))
        try:
            za = detline.chart_coordinate(e, shifts[0] - a)
            zb = detline.chart_coordinate(e, shifts[1] - a)
            g = detline.transition(e.base, shifts[0] - a, shifts[1] - a)
        except OutOfChart:
            continue
        worst_gauge = max(worst_gauge, abs(zb - g * za) / max(abs(zb), 1e-9))

    rng2 = _rng(seed, 22)
    worst_sew = 0.0
    worst_assoc = 0.0
    worst_herm = 0.0
    for _ in range(50):
        dim = int(rng2.integers(3, 25))
        mats = [np.eye(dim) + _random_contraction(rng2, dim, 1.5) for _ in range(3)]
        e01, e12, e23 = (detline.canonical_det(m - np.eye(dim)) for m in mats)
        alpha, beta, gamma = (np.diag(0.3 * rng2.standard_normal(dim)) for _ in range(3))
        try:
            z01 = detline.chart_coordinate(e01, alpha)
            z12 = detline.chart_coordinate(e12, beta)
            sewn = detline.sew(e01, e12)
            zg = detline.chart_coordinate(sewn, gamma)
            fac = detline.sew_gauge_factor(e01.base, e12.base, alpha, beta, gamma)
        except OutOfChart:
            continue
        worst_sew = max(worst_sew, abs(zg - z01 * z12 * fac) / max(abs(zg), 1e-9))

        left = detline.sew(detline.sew(e01, e12), e23)
        right = detline.sew(e01, detline.sew(e12, e23))
        try:
            zl = detline.chart_coordinate(left, gamma)
            zr = detline.chart_coordinate(right, gamma)
        except OutOfChart:
            continue
        worst_assoc = max(worst_assoc, abs(zl - zr) / max(abs(zl), 1e-9))

        ip12 = detline.inner_product(e01, e12)
        ip21 = detline.inner_product(e12, e01)
        worst_herm = max(worst_herm, abs(ip12 - np.conj(ip21)))

    rng3 = _rng(seed, 23)
    worst_block = 0.0
    for _ in range(25):
        n0, n2 = int(rng3.integers(2, 6)), int(rng3.integers(2, 6))
        a0 = np.eye(n0) + _random_contraction(rng3, n0, 1.0)
        a2 = np.eye(n2) + _random_contraction(rng3, n2, 1.0)
        x = _random_contraction(rng3, max(n0, n2), 1.0)[:n0, :n2]
        whole = np.block([[a0, x], [np.zeros((n2, n0)), a2]])
        shift0 = np.diag(0.2 * rng3.standard_normal(n0))
        shift2 = np.diag(0.2 * rng3.standard_normal(n2))
        shift = np.block([[shift0, np.zeros((n0, n2))],
                          [np.zeros((n2, n0)), shift2]])
        try:
            zw = detline.chart_coordinate(detline.canonical_det(whole - np.eye(n0 + n2)), shift)
            z0 = detline.chart_coordinate(detline.canonical_det(a0 - np.eye(n0)), shift0)
            z2 = detline.chart_coordinate(detline.canonical_det(a2 - np.eye(n2)), shift2)
        except OutOfChart:
            continue
        worst_block = max(worst_block, abs(zw - z0 * z2) / max(abs(zw), 1e-9))

    rng4 = _rng(seed, 24)
    worst_lap = 0.0
    for _ in range(25):
        dim, rank = 8, 3
        p0 = _random_projection(rng4, dim, rank)
        p1 = _random_projection(rng4, dim, rank)
        direct = detline.pair_metric_sq(p0, p1)
        lap = p0.matrix @ p1.matrix @ p0.matrix + (np.eye(dim) - p0.matrix)
        via_det = opcalc.fredholm_det(lap - np.eye(dim)).real
        worst_lap = max(worst_lap, abs(direct - via_det) / max(abs(via_det), 1e-9))

    return [
        _result("transition_cocycle", worst_cocycle, tol,
                "g_ab g_bc g_ca = 1 on 100 random chart triples"),
        _result("coordinate_gauge_law", worst_gauge, 1e-10,
                "z_b equals the a-to-b transition times z_a"),
        _result("sew_multiplicativity", worst_sew, tol,
                "sewn coordinate = product times recorded gauge factor"),
        _result("sew_associativity", worst_assoc, tol,
                "coordinates of the two sewing orders agree"),
        _result("inner_product_hermitian", worst_herm, 1e-12,
                "pairing conjugate-symmetric"),
        _result("block_triangular_multiplicativity", worst_block, tol,
                "coordinate of a triangular family splits over the blocks"),
        _result("metric_vs_toeplitz_laplacian", worst_lap, tol,
                "|det M|^2 against det of the restricted pair Laplacian"),
    ]


# -- models -----------------------------------------------------------------------


def suite_models(seed: int, tol: float) -> list[CheckResult]:
    fine_steps = 512
    line = BaseGrid.line(8, 0.3, 0.74)
    fam_c = constant_scalar_family(line, steps_per_half=fine_steps)
    t = fam_c.transfer_field(0.0, np.pi / 2)
    c = line.axis_coords(0)
    exact = np.exp(1j * c * (np.pi / 2))
    closed = float(np.abs(t[..., 0, 0] - exact).max())

    g = BaseGrid.torus(6, 6)
    fam = demo_family(grid=g, steps_per_half=128)
    t01 = fam.transfer_field(0.0, np.pi / 2)
    t12 = fam.transfer_field(np.pi / 2, np.pi)
    t02 = fam.transfer_field(0.0, np.pi)
    comp = float(np.abs(t12 @ t01 - t02).max())

    th = np.swapaxes(t02.conj(), -1, -2)
    unit = float(np.abs(th @ t02 - np.eye(fam.rank)).max())

    worst_cald = 0.0
    for side in ("left", "right"):
        sec = fam.calderon_section(side)
        p = sec.values
        worst_cald = max(worst_cald,
                         float(np.abs(p @ p - p).max()),
                         float(np.abs(p - np.swapaxes(p.conj(), -1, -2)).max()))

    half = constant_scalar_family(BaseGrid.line(4, 0.5, 0.50001), value=0.5,
                                  steps_per_half=fine_steps)
    half_err = abs(half.monodromy_field()[0] - 2.0)

    kern = constant_scalar_family(BaseGrid.line(4, 0.0, 1.0), value=1.0,
                                  steps_per_half=fine_steps)
    s0, s1 = kern.boundary_pair()
    mono_kern = abs(kern.monodromy_field()[0])
    met_kern = pair_metric_field(s0, s1).max()
    kern_err = max(mono_kern, float(met_kern))

    cyl_g = BaseGrid.torus(6, 6)
    cyl = CylinderFamily(cyl_g, truncation=16, gamma=0.6, seed=seed, style="conjugated")
    aps = cyl.aps_section().values
    closed_form = cyl.conjugated_section(cyl.amplitude, 0).values
    cyl_err = float(np.abs(aps - closed_form).max())

    s32 = smoothing_perturbation(seed, 0.6, 32)
    s64 = smoothing_perturbation(seed, 0.6, 64)
    block = float(np.abs(s64[32:97, 32:97] - s32).max())
    tn_drift = abs(opcalc.trace_norm(s64) / opcalc.trace_norm(s32) - 1.0)

    jump = cyl.aps_section().smoothness * max(cyl_g.spacing)
    return [
        _result("transfer_constant_closed_form", closed, tol,
                "scalar potential against exp(i c dx)"),
        _result("transfer_composition", comp, 1e-10,
                "T(0,pi) = T(pi/2,pi) T(0,pi/2)"),
        _result("transfer_unitarity", unit, 1e-8,
                "Hermitian potential gives unitary transport"),
        _result("calderon_projection_laws", worst_cald, 1e-10,
                "Cauchy-data projections idempotent and self-adjoint"),
        _result("monodromy_half_integer_value", half_err, tol,
                "det(I - T(0,2pi)) = 2 at c = 1/2"),
        _result("kernel_locus_integer", kern_err, tol,
                "monodromy and pair metric both vanish at c = 1"),
        _result("cylinder_spectral_closed_form", cyl_err, 1e-10,
                "pointwise spectral projections equal the conjugated form"),
        _result("smoothing_common_block", block, 1e-15,
                "truncations agree exactly on shared modes"),
        _result("smoothing_trace_norm_stability", tn_drift, 0.01,
                "trace norm drift below 1% from N=32 to N=64"),
        _result("spectral_section_resolved", jump, 0.75,
                "per-edge projection jump stays well inside sampling"),
    ]


# -- curvature ----------------------------------------------------------------------


def suite_curvature(seed: int, tol: float, *, model, section,
                    sing_floor: float, max_excluded: float) -> list[CheckResult]:
    g = model.grid
    checks: list[CheckResult] = []

    try:
        report = additivity_residual(model, section, sing_floor=sing_floor,
                                     max_excluded=max_excluded)
    except CoverageError as err:
        # only an edge-budget failure carries a fraction; a point outside every
        # chart domain has no measured fraction, and its message says so
        if err.fraction is not None:
            measured, detail = err.fraction, "edge exclusions exceeded the coverage budget"
        else:
            measured, detail = float("nan"), str(err)
        checks.append(_result("exclusion_coverage", measured, max_excluded, detail))
        checks.append(CheckResult("additivity_suite", False, float("nan"), 0.0,
                                  "not evaluated: coverage failure"))
        return checks

    res = report.residuals
    checks.append(_result("exclusion_coverage", res["excluded_edge_fraction"],
                          max_excluded, "excluded edge fraction"))
    checks.append(_result("one_form_additivity", res["one_form_max_density"], 0.25,
                          "omega_full - omega_left - omega_right - dlogF density"))
    checks.append(_result("plaquette_defect", res["defect_max_density"], 0.12,
                          "curvature additivity defect density"))
    checks.append(_result("curvature_pure_imaginary", res["curvature_real_max"], tol,
                          "real part of every curvature plaquette"))
    checks.append(_result("f_winding_integrality", res["f_winding_integrality"], 1e-6,
                          "plaquette sums of dlogF against 2 pi i Z"))
    checks.append(_result("chern_additivity", res["chern_additivity_gap"], 0.0,
                          f"chern triple {report.chern}, {report.chern_left}, "
                          f"{report.chern_right}"))

    # the left pair's first section, connection and curvature come from the report
    conn = report.connections[1]
    sec_a = conn.sections[0]
    dlog = DiscreteForm(g, 0, np.log(pair_metric_field(sec_a, section))).coboundary()
    form = conn.omega[0]
    worst_mc = float(np.abs(np.where(form.mask, 0.0, dlog.samples - 2.0 * form.samples.real)).max())
    checks.append(_result("metric_compatibility", worst_mc, 1e-12,
                          "edge increments of log|det M|^2 against 2 Re omega"))

    pr = patching_residuals(conn, 0, 1)
    worst_patch = max(pr["inverse_ratio"].max_density_residual(),
                      pr["adjoint_ratio"].max_density_residual())
    checks.append(_result("patching_identities", worst_patch, 0.1,
                          "chart-change identities at the working resolution"))

    curv = report.curvature_left
    fam_form = curvature_families_formula(sec_a, section, sing_floor=sing_floor)
    both = ~curv.mask & ~fam_form.mask
    diff = float(np.abs(np.where(both, curv.samples - fam_form.samples, 0.0)).max()
                 / g.plaquette_area())
    checks.append(_result("families_formula_agreement", diff, 0.1,
                          "edge-sum curvature against the families expression"))

    # the split-fibration shortcut tr(R1) - tr(R0) from the cached plaquette blocks
    tr0, tr1 = (np.trace(s.plaquette_blocks[1], axis1=-2, axis2=-1) for s in (sec_a, section))
    dvar = float(np.abs(np.where(both, fam_form.samples - (tr1 - tr0), 0.0)).max())
    checks.append(_result("families_variants_agree", dvar, tol,
                          "full and simplified variants on a trivial fibration"))

    rng = _rng(seed, 31)
    worst_swap = 0.0
    worst_comp = 0.0
    for _ in range(40):
        dim = int(rng.integers(6, 17))
        rank = int(rng.integers(2, max(3, dim // 2)))
        p0 = _random_projection(rng, dim, rank)
        p1 = _random_projection(rng, dim, rank)
        p2 = _random_projection(rng, dim, rank)
        dense = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        phi01 = p1.matrix @ dense @ p0.matrix
        phi12 = p2.matrix @ dense.conj().T @ p1.matrix
        r0 = p0.matrix @ dense @ dense @ p0.matrix
        r1 = p1.matrix @ dense.conj().T @ dense @ p1.matrix
        r2 = p2.matrix @ dense @ dense.conj().T @ p2.matrix
        try:
            lhs, rhs = swap_trace_identity(p0, p1, phi01, r0, r1)
            worst_swap = max(worst_swap, abs(lhs - rhs) / max(abs(lhs), 1.0))
            one, two = composition_trace_identity(p0, p1, p2, phi01, phi12, r2)
            worst_comp = max(worst_comp, abs(one - two) / max(abs(one), 1.0))
        except OutOfChart:
            continue
    checks.append(_result("closing_trace_swap", worst_swap, tol,
                          "conjugation-swap trace identity on random triples"))
    checks.append(_result("closing_trace_composition", worst_comp, tol,
                          "composition-telescoping trace identity"))
    return checks


def run_suite(name: str, seed: int = 0, tol: float = 1e-9, **kwargs) -> list[CheckResult]:
    if name == "opcalc":
        return suite_opcalc(seed=seed, tol=tol)
    if name == "grassmann":
        return suite_grassmann(seed=seed)
    if name == "detline":
        return suite_detline(seed=seed, tol=tol)
    if name == "models":
        return suite_models(seed=seed, tol=tol)
    if name == "curvature":
        return suite_curvature(seed=seed, tol=tol, **kwargs)
    raise ValueError(f"unknown suite {name!r}")

