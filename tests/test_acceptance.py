"""End-to-end acceptance gate: ten numbered criteria, one verdict line each.

Each criterion prints `[PASS]`/`[FAIL]` with its measured statistic; the lines
are echoed in the terminal summary.  Refinement criteria compare the 32^2 and
64^2 parameter grids of the shipped two-band family with the rotated
interface; topology criteria use the vortex interface and the rank-1 control
family.
"""

import numpy as np

import conftest
from detbundle.detline import canonical_det, chart_coordinate, norm_sq, sew, sew_gauge_factor, transition
from detbundle.grassmann import BaseGrid, Projection
from detbundle.models import (
    CylinderFamily,
    bloch_section,
    constant_scalar_family,
    vortex_interface,
)
from detbundle.opcalc import fredholm_det, trace, trace_norm
from detbundle.curvature import (
    additivity_residual,
    chern_of_section,
    composition_trace_identity,
    connection_one_form,
    curvature_families_formula,
    curvature_of,
    default_cover,
    pair_links,
    pair_metric_field,
    pair_overlap_field,
    patching_residuals,
    plaquette_winding,
    restricted_shift_field,
    swap_trace_identity,
)

from conftest import random_complex, random_frame


def record(num: int, description: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {description} ({detail})"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_01_fredholm_calculus():
    rng = np.random.default_rng(101)
    worst_series, worst_mult, worst_slope = 0.0, 0.0, 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 65))
        a = random_complex(rng, dim, dim)
        a *= min(1.0, 4.0 / trace_norm(a))
        dense = fredholm_det(a, method="dense")
        series = fredholm_det(a, method="series")
        worst_series = max(worst_series, abs(series - dense) / max(1.0, abs(dense)))
        b = random_complex(rng, dim, dim, scale=0.5)
        mult = abs(fredholm_det(a + b + a @ b) - fredholm_det(a) * fredholm_det(b))
        worst_mult = max(worst_mult, mult / max(1.0, abs(fredholm_det(a) * fredholm_det(b))))
        eps = 1e-5
        slope = lambda e: (fredholm_det(e * a) - fredholm_det(-e * a)) / (2.0 * e)
        rich = (4.0 * slope(eps) - slope(2.0 * eps)) / 3.0
        worst_slope = max(worst_slope, abs(rich - trace(a)))
    ok = worst_series <= 1e-9 and worst_mult <= 1e-9 and worst_slope <= 1e-8
    record(1, "Fredholm series/dense, multiplicativity, trace slope", ok,
           f"series={worst_series:.2e} mult={worst_mult:.2e} slope={worst_slope:.2e}")


def test_criterion_02_transition_cocycle_and_gauge_law(demo16, rot16):
    sec0, sec1 = demo16.boundary_pair()[0], rot16
    overlap = pair_overlap_field(sec0, sec1)
    rng = np.random.default_rng(102)
    worst_cocycle, worst_gauge = 0.0, 0.0
    for _ in range(100):
        idx = tuple(int(rng.integers(0, n)) for n in demo16.grid.shape)
        base = overlap[idx]
        dim = base.shape[0]
        shifts = [(k + 1.0) * np.eye(dim) + random_complex(rng, dim, dim, scale=0.2)
                  for k in range(3)]
        g01 = transition(base, shifts[0], shifts[1])
        g12 = transition(base, shifts[1], shifts[2])
        g20 = transition(base, shifts[2], shifts[0])
        worst_cocycle = max(worst_cocycle, abs(g01 * g12 * g20 - 1.0))
        e = canonical_det(base)
        za = chart_coordinate(e, shifts[0])
        zb = chart_coordinate(e, shifts[1])
        worst_gauge = max(worst_gauge, abs(zb - g01 * za) / max(1.0, abs(zb)))
    ok = worst_cocycle <= 1e-9 and worst_gauge <= 1e-10
    record(2, "chart transition cocycle and coordinate gauge law", ok,
           f"cocycle={worst_cocycle:.2e} gauge={worst_gauge:.2e}")


def test_criterion_03_sewing():
    rng = np.random.default_rng(103)
    worst_mult, worst_assoc = 0.0, 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 25))
        rank = int(rng.integers(1, dim))
        frames = []
        for _ in range(4):
            q, _ = np.linalg.qr(random_complex(rng, dim, dim))
            frames.append(q[:, :rank])
        phis = [frames[k + 1].conj().T @ frames[k] for k in range(3)]
        # numerical range keeps base + shift invertible for every draw
        shifts = [(2.5 + 0.5 * k) * np.eye(rank)
                  + random_complex(rng, rank, rank, scale=0.1)
                  for k in range(3)]
        e01, e12, e23 = (canonical_det(p) for p in phis)
        z_sewn = chart_coordinate(sew(e01, e12), shifts[2])
        za = chart_coordinate(e01, shifts[0])
        zb = chart_coordinate(e12, shifts[1])
        factor = sew_gauge_factor(phis[0], phis[1], shifts[0], shifts[1], shifts[2])
        worst_mult = max(worst_mult,
                         abs(z_sewn - za * zb * factor) / max(1.0, abs(z_sewn)))
        left = chart_coordinate(sew(sew(e01, e12), e23), shifts[2])
        right = chart_coordinate(sew(e01, sew(e12, e23)), shifts[2])
        worst_assoc = max(worst_assoc, abs(left - right) / max(1.0, abs(left)))
    ok = worst_mult <= 1e-9 and worst_assoc <= 1e-9
    record(3, "sewing multiplicativity and associativity", ok,
           f"mult={worst_mult:.2e} assoc={worst_assoc:.2e}")


def test_criterion_04_kernel_locus():
    grid = BaseGrid.line(600, -0.5, 2.5)
    fam = constant_scalar_family(grid, steps_per_half=64)
    sec0, sec1 = fam.boundary_pair()
    overlap = pair_overlap_field(sec0, sec1)
    metric = np.abs(np.linalg.det(overlap)) ** 2
    mono = np.abs(fam.monodromy_field())
    shift = restricted_shift_field(sec0, sec1, default_cover(sec0.dim)[1])
    coord = np.abs([chart_coordinate(canonical_det(overlap[k]), shift[k])
                    for k in range(600)])

    def zeros(v):
        thr = 0.05 * v.max()
        return sorted(k for k in range(1, 599)
                      if v[k] <= v[k - 1] and v[k] <= v[k + 1] and v[k] < thr)

    cols = {"coordinate": zeros(coord), "metric": zeros(metric), "monodromy": zeros(mono)}
    c = grid.axis_coords(0)
    step = grid.spacing[0]
    ok = all(len(z) == 3 for z in cols.values())
    for z in cols.values():
        ok = ok and all(abs(c[k] - round(c[k])) <= step for k in z)
        ok = ok and all(abs(a - b) <= 1 for a, b in zip(z, cols["monodromy"]))
    record(4, "kernel-locus zeros coincide for all three detectors", ok,
           "zeros at " + " / ".join(f"{name}:{z}" for name, z in cols.items()))


def test_criterion_05_metric_well_defined(demo32, rot32):
    sec0, sec1 = demo32.boundary_pair()[0], rot32
    overlap = pair_overlap_field(sec0, sec1)
    charts = default_cover(sec0.dim)
    shift_u = restricted_shift_field(sec0, sec1, charts[1])
    shift_l = restricted_shift_field(sec0, sec1, charts[2])
    smin_u = np.linalg.svd(overlap + shift_u, compute_uv=False)[..., -1]
    smin_l = np.linalg.svd(overlap + shift_l, compute_uv=False)[..., -1]
    both = (smin_u >= 0.1) & (smin_l >= 0.1)
    coverage = float(both.mean())
    worst = 0.0
    for idx in zip(*np.nonzero(both)):
        e = canonical_det(overlap[idx])
        mu = (abs(chart_coordinate(e, shift_u[idx])) ** 2
              * norm_sq(canonical_det(overlap[idx] + shift_u[idx])))
        ml = (abs(chart_coordinate(e, shift_l[idx])) ** 2
              * norm_sq(canonical_det(overlap[idx] + shift_l[idx])))
        worst = max(worst, abs(mu - ml) / max(mu, ml, 1e-300))
    ok = coverage >= 0.95 and worst <= 1e-8
    record(5, "canonical metric agrees across overlapping trivializations", ok,
           f"coverage={coverage:.3f} rel={worst:.2e}")


def test_criterion_06_patching_refinement(demo32, rot32, demo64, rot64):
    def residuals(fam, sec):
        s0, s1 = fam.boundary_pair()[0], sec
        out = patching_residuals(connection_one_form(s0, s1), 0, 1)
        return (out["inverse_ratio"].max_density_residual(),
                out["adjoint_ratio"].max_density_residual())

    inv32, adj32 = residuals(demo32, rot32)
    inv64, adj64 = residuals(demo64, rot64)
    r_inv = inv32 / inv64
    r_adj = adj32 / adj64
    ok = 3.0 <= r_inv <= 5.0 and 3.0 <= r_adj <= 5.0
    record(6, "patching identities refine at second order (32^2 to 64^2)", ok,
           f"inverse_ratio={r_inv:.2f} adjoint_ratio={r_adj:.2f}")


def test_criterion_07_additivity_refinement(demo32, rot32, demo64, rot64):
    rep32 = additivity_residual(demo32, rot32)
    rep64 = additivity_residual(demo64, rot64)
    r_plaq = (rep32.residuals["defect_max_density"]
              / rep64.residuals["defect_max_density"])
    r_edge = (rep32.residuals["one_form_max_density"]
              / rep64.residuals["one_form_max_density"])
    ok = 3.0 <= r_plaq <= 5.0 and 3.0 <= r_edge <= 5.0
    record(7, "curvature additivity defect and F-identity refine", ok,
           f"plaquette_ratio={r_plaq:.2f} edge_ratio={r_edge:.2f}")


def test_criterion_08_families_formulas(demo32, rot32, demo64, rot64):
    def gap(fam, sec):
        s0, s1 = fam.boundary_pair()[0], sec
        by_conn = curvature_of(connection_one_form(s0, s1))
        by_blocks = curvature_families_formula(s0, s1)
        d = np.abs(by_conn.samples - by_blocks.samples)
        for m in (by_conn.mask, by_blocks.mask):
            if m is not None:
                d = np.where(m, 0.0, d)
        return float(d.max()) / fam.grid.plaquette_area()

    ratio = gap(demo32, rot32) / gap(demo64, rot64)
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(40):
        dim = int(rng.integers(4, 17))
        rank = int(rng.integers(1, dim // 2 + 1))
        p = [Projection(random_frame(rng, dim, rank)) for _ in range(3)]
        phi01 = np.eye(dim) + random_complex(rng, dim, dim, scale=0.2)
        phi12 = np.eye(dim) + random_complex(rng, dim, dim, scale=0.2)
        lhs, rhs = swap_trace_identity(p[0], p[1], phi01,
                                       random_complex(rng, dim, dim),
                                       random_complex(rng, dim, dim))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
        lhs, rhs = composition_trace_identity(p[0], p[1], p[2], phi01, phi12,
                                              random_complex(rng, dim, dim))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    ok = 3.0 <= ratio <= 5.0 and worst <= 1e-9
    record(8, "families formula matches connection curvature; trace identities close",
           ok, f"ratio={ratio:.2f} trace_residual={worst:.2e}")


def test_criterion_09_chern_integrality_and_additivity(demo64):
    sec = vortex_interface(demo64)
    rep = additivity_residual(demo64, sec, max_excluded=0.2, label="vortex")
    triple = (rep.chern, rep.chern_left, rep.chern_right)
    sec_a, sec_b = demo64.boundary_pair()
    worst_integrality = 0.0
    for pair in ((sec_a, sec_b), (sec_a, sec), (sec, sec_b)):
        raw = plaquette_winding(demo64.grid, pair_links(*pair)).total() / (2j * np.pi)
        worst_integrality = max(worst_integrality, abs(raw - round(raw.real)))
    bloch = (chern_of_section(bloch_section(BaseGrid.torus(64, 64), mass=1.0)),
             chern_of_section(bloch_section(BaseGrid.torus(64, 64), mass=-1.0)))
    ok = (worst_integrality <= 1e-3 and triple == (0, -1, 1)
          and rep.chern == rep.chern_left + rep.chern_right and bloch == (-1, 1))
    record(9, "Chern integrality, additivity, and Bloch control signs", ok,
           f"triple={triple} integrality={worst_integrality:.2e} bloch={bloch}")


def test_criterion_10_truncation_convergence():
    worst = 0.0
    for style, gamma in (("conjugated", 0.5), ("additive", 0.6)):
        grid = BaseGrid.torus(8, 8)
        scalars = []
        for truncation in (32, 64):
            fam = CylinderFamily(grid, truncation=truncation, gamma=gamma,
                                 seed=0, amplitude=1.0, style=style)
            sec0, sec1 = fam.boundary_pair()
            metric = pair_metric_field(sec0, sec1)
            conn = connection_one_form(sec0, sec1, sing_floor=1e-6)
            # the plain chart alone covers every plaquette
            assert len(conn.omega) == 1
            omega = conn.omega[0].samples
            curv_total = curvature_of(conn).total()
            scalars.append((metric, omega, curv_total))
        (m32, o32, c32), (m64, o64, c64) = scalars
        worst = max(worst,
                    float(np.abs(m64 - m32).max()),
                    float(np.abs(o64 - o32).max()),
                    abs(c64 - c32))
    ok = worst <= 1e-6
    record(10, "cylinder scalars stable under truncation doubling", ok,
           f"max_change={worst:.2e}")
