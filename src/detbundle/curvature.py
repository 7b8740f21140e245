"""Connection, curvature, additivity and Chern data of determinant lines of
projection pairs over a parameter torus.

Everything is computed in the restricted picture.  A pair of equal-rank
sections (P0, P1) is represented through frames by the overlap block
M(b) = F1(b)* F0(b); a chart shifts the compressed map by a constant ambient
block, and every reported number (metric, transition ratio, trace density,
link holonomy) is invariant under the per-point basis freedom of the frames.

Discretization.  Connection 1-forms are stored as edge integrals whose real
part is exactly half the increment of log of the squared metric along the
edge, while the imaginary part applies the trapezoid rule to the phase
density tr(X dPhi).  Metric compatibility is then an identity of the scheme,
curvature plaquettes come out purely imaginary, and the surviving error sits
in the imaginary part at second order in the mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._blocks import _readonly, bmm, det, det_logabs, smallest_singular_value, trace_solve
from .detline import frame_metric_sq
from .errors import CoverageError, OutOfChart, VortexOnLink
from .grassmann import (
    BaseGrid,
    DiscreteForm,
    Projection,
    ProjectionSection,
    section_links,
    toeplitz_inverse,
)
from .opcalc import as_matrix

__all__ = [
    "default_cover",
    "ChartedConnection",
    "CurvatureReport",
    "pair_metric_field",
    "connection_one_form",
    "curvature_of",
    "patching_residuals",
    "curvature_families_formula",
    "f_function",
    "additivity_residual",
    "pair_links",
    "plaquette_winding",
    "chern_number",
    "chern_of_section",
    "chern_of_pair",
    "swap_trace_identity",
    "composition_trace_identity",
]

# link overlaps below this modulus leave the plaquette holonomy undefined
VORTEX_TOL = 1e-8


def default_cover(dim: int) -> list[np.ndarray | None]:
    """Plain chart plus three constant-block shifts that bridge degeneracies.

    A chart of a projection pair is its constant ambient block C: the pair is
    compressed through I + C, and None is the plain overlap chart C = 0.
    """
    n = dim // 2
    upper = np.zeros((dim, dim), dtype=complex)
    upper[:n, :n] = np.eye(n)
    lower = np.zeros((dim, dim), dtype=complex)
    lower[n:, n:] = np.eye(dim - n)
    swap = np.zeros((dim, dim), dtype=complex)
    swap[:n, n:] = np.eye(n, dim - n)
    swap[n:, :n] = np.eye(dim - n, n)
    return [None, upper, lower, swap]


def _wrap_branch(values: np.ndarray) -> np.ndarray:
    """Reduce log-type residuals to the principal band (-pi, pi] imaginary part.

    Identities between connection forms and d Log of determinant ratios hold
    modulo the 2 pi i branch lattice on each cell; genuine discretization
    error is far inside the band, branch jumps sit exactly on it.
    """
    return values - 2j * np.pi * np.round(values.imag / (2.0 * np.pi))


def _frames_pair(sec0: ProjectionSection, sec1: ProjectionSection):
    if sec0.grid != sec1.grid:
        raise ValueError("sections live over different grids")
    if sec0.dim != sec1.dim:
        raise ValueError("sections live in different ambient spaces")
    if sec0.base_rank != sec1.base_rank:
        raise ValueError("pair needs equal ranks")
    return sec0.frames(), sec1.frames()


def _chart_datum(f0: np.ndarray, f1: np.ndarray, chart: np.ndarray | None) -> np.ndarray:
    """Compressed chart datum M = F1* (I + C) F0 of stacked range frames; None is C = 0."""
    f1h = np.swapaxes(f1.conj(), -1, -2)
    if chart is None:
        return bmm(f1h, f0)
    dim = f0.shape[-2]
    c = as_matrix(chart)
    if c.shape != (dim, dim):
        raise ValueError("chart block does not match the ambient dimension")
    # one product for the whole stack of frames, not one per point
    amb_f0 = np.moveaxis(np.tensordot(np.eye(dim, dtype=complex) + c, f0, axes=(1, -2)), 0, -2)
    return bmm(f1h, amb_f0)


def pair_overlap_field(sec0: ProjectionSection, sec1: ProjectionSection,
                       chart: np.ndarray | None = None) -> np.ndarray:
    """Chart datum M(b) = F1(b)* (I + C) F0(b) of the pair; the plain overlap F1* F0 by default."""
    return _chart_datum(*_frames_pair(sec0, sec1), chart)


def pair_metric_field(sec0: ProjectionSection, sec1: ProjectionSection) -> np.ndarray:
    """Squared canonical metric |det F1(b)* F0(b)|^2 of the pair over the grid."""
    return frame_metric_sq(*_frames_pair(sec0, sec1))


def restricted_shift_field(sec0: ProjectionSection, sec1: ProjectionSection,
                           chart: np.ndarray) -> np.ndarray:
    """Compressed chart shift F1* C F0: the chart datum minus the plain overlap."""
    return pair_overlap_field(sec0, sec1, chart) - pair_overlap_field(sec0, sec1)


def _guard(m: np.ndarray, sing_floor: float):
    """Chart domain smin(M) >= sing_floor, and M with the identity outside it.

    An empty overlap (rank 0) is the trivial line: its smallest singular
    value counts as +inf, so every point is in the domain.
    """
    healthy = smallest_singular_value(m) >= sing_floor
    return healthy, np.where(healthy[..., None, None], m, np.eye(m.shape[-1], dtype=complex))


def _dlog_edges(values: np.ndarray, g: BaseGrid) -> np.ndarray:
    """Edge increments Log(v(b+e) / v(b)) of a point field, one trailing entry per axis."""
    return np.stack([np.log(g.roll(values, ax, +1) / values) for ax in range(g.ndim)], g.ndim)


def _chart_edge_data(sec0: ProjectionSection, sec1: ProjectionSection,
                     chart: np.ndarray | None, sing_floor: float):
    """Read-only (omega, healthy, det): the chart's connection form, masked on
    edges that leave its domain, the point-wise domain and det M (1 outside it).

    Everything is computed on k x k blocks.  With the frame transport
    U(b, b') = F(b)* F(b') and the chart datum M, the compressed central
    difference of Phi = P1 (I + C) P0 is
    F1(b)* dPhi F0(b) = [U1(b,b+e) M(b+e) U0(b+e,b) - U1(b,b-e) M(b-e) U0(b-e,b)] / 2h,
    and the backward transports are the adjoints of the forward ones at b-e.
    """
    g = sec0.grid
    m = pair_overlap_field(sec0, sec1, chart)
    healthy, msafe = _guard(m, sing_floor)
    u0, u1 = sec0.transports, sec1.transports
    ts = []
    for ax in range(g.ndim):
        u0f, u1f = u0[..., ax, :, :], u1[..., ax, :, :]
        u0fh, u1fh = np.swapaxes(u0f.conj(), -1, -2), np.swapaxes(u1f.conj(), -1, -2)
        fwd = bmm(bmm(u1f, g.roll(m, ax, +1)), u0fh)
        bwd = g.roll(bmm(bmm(u1fh, m), u0f), ax, -1)
        ts.append((fwd - bwd) / (2.0 * g.spacing[ax]))
    dets, logabs = det_logabs(msafe)
    # half the increment of log|det M|^2 is the increment of log|det M|, and
    # an edge leaves the domain when either end does
    d_logabs = DiscreteForm(g, 0, logabs, mask=~healthy).coboundary()
    im = np.stack([0.5 * g.spacing[ax] * (tr.imag + g.roll(tr.imag, ax, +1))
                   for ax, tr in enumerate(trace_solve(msafe, ts))], axis=g.ndim)
    omega = DiscreteForm(g, 1, _readonly(d_logabs.samples + 1j * im), mask=_readonly(d_logabs.mask))
    return omega, _readonly(healthy), _readonly(dets)


# a plaquette's corners, then the further points its edges' difference stencils read
_PLAQ_STENCIL = ((0, 0), (1, 0), (0, 1), (1, 1), (-1, 0), (2, 0), (0, -1), (0, 2),
                 (1, -1), (1, 2), (-1, 1), (2, 1))


@dataclass
class ChartedConnection:
    """Connection data of a projection pair, one edge 1-form per chart.

    omega, healthy and det list, per chart evaluated so far, the edge samples
    with their exclusion mask, the point-wise domain and the determinant (1
    outside it), all read-only.  plaquette_chart, also read-only, is the first
    chart healthy on each plaquette's stencil, -1 if none is.
    On overlaps the forms differ by the discrete d log of the transition ratio,
    up to O(h^2) density.
    """

    sections: tuple[ProjectionSection, ProjectionSection]
    cover: list[np.ndarray | None]
    sing_floor: float
    plaquette_chart: np.ndarray
    omega: list[DiscreteForm] = field(default_factory=list)
    healthy: list[np.ndarray] = field(default_factory=list)
    det: list[np.ndarray] = field(default_factory=list)

    def evaluate(self, *charts: int) -> None:
        """Evaluate the cover in order, each chart once, up to the given charts."""
        if not all(0 <= i < len(self.cover) for i in charts):
            raise IndexError(f"charts {charts} are not all in a cover of {len(self.cover)}")
        while len(self.omega) <= max(charts, default=-1):
            omega, healthy, dets = _chart_edge_data(*self.sections, self.cover[len(self.omega)],
                                                    self.sing_floor)
            self.omega.append(omega)
            self.healthy.append(healthy)
            self.det.append(dets)


def connection_one_form(sec0: ProjectionSection, sec1: ProjectionSection,
                        sing_floor: float = 0.1) -> ChartedConnection:
    """Edge-integrated connection forms of the pair, one per evaluated chart.

    Each edge sample has real part half the increment of the chart's squared
    metric logarithm (metric compatibility is exact) and imaginary part the
    trapezoid rule for tr(X dPhi) with X the compressed inverse of the chart
    datum.  Edges touching a point outside the chart domain are masked.  The
    charts of default_cover are evaluated in order until every plaquette has
    its chart; a point inside no chart domain at all makes the atlas invalid.
    """
    cover = default_cover(sec0.dim)
    g = sec0.grid
    conn = ChartedConnection((sec0, sec1), cover, sing_floor, np.full(g.shape, -1))
    for i in range(len(cover)):
        conn.evaluate(i)
        ok = np.logical_and.reduce([g.roll(g.roll(conn.healthy[i], 0, da), 1, db)
                                    for da, db in _PLAQ_STENCIL])
        conn.plaquette_chart[ok & (conn.plaquette_chart < 0)] = i
        if (conn.plaquette_chart >= 0).all():
            break
    else:
        covered = np.logical_or.reduce(conn.healthy)
        if not covered.all():
            raise CoverageError(
                f"{int((~covered).sum())} grid points lie outside every chart domain")
    _readonly(conn.plaquette_chart)
    return conn


def curvature_of(conn: ChartedConnection) -> DiscreteForm:
    """Curvature plaquettes: oriented edge sums of the connection form.

    Each plaquette is evaluated in the first chart of the cover that is
    healthy on the full difference stencil; the chart choice moves the value
    only at O(h^2) since transition contributions are discretely closed.
    Plaquettes that no chart covers are masked.
    """
    g = conn.sections[0].grid
    vals = np.zeros(g.shape, dtype=complex)
    for i, form in enumerate(conn.omega):
        take = conn.plaquette_chart == i
        vals[take] = form.coboundary().samples[take]
    return DiscreteForm(g, 2, vals, mask=conn.plaquette_chart < 0)


def patching_residuals(conn: ChartedConnection, a: int, b: int) -> dict[str, DiscreteForm]:
    """Edge residuals of the two transition identities between charts a and b of conn.

    inverse_ratio: omega_a - omega_b - d Log det(M_b^{-1} M_a).
    adjoint_ratio: omega_a + conj(omega_b) - d Log det(M_b* M_a).
    Both vanish to O(h^2) density on the common domain; their real parts
    cancel exactly because |ratio| is the corresponding metric ratio.
    """
    g = conn.sections[0].grid
    conn.evaluate(a, b)
    det_a, det_b = conn.det[a], conn.det[b]
    both = conn.healthy[a] & conn.healthy[b]
    # an edge leaves the common domain exactly when it leaves one chart's domain
    emask = conn.omega[a].mask | conn.omega[b].mask
    dlog_t = _dlog_edges(np.where(both, det_a / det_b, 1.0), g)
    dlog_r = _dlog_edges(np.where(both, np.conj(det_b) * det_a, 1.0), g)
    oa, ob = conn.omega[a].samples, conn.omega[b].samples
    return {
        "inverse_ratio": DiscreteForm(g, 1, _wrap_branch(oa - ob - dlog_t), mask=emask),
        "adjoint_ratio": DiscreteForm(g, 1, _wrap_branch(oa + np.conj(ob) - dlog_r), mask=emask),
    }


def curvature_families_formula(sec0: ProjectionSection, sec1: ProjectionSection,
                               sing_floor: float = 0.1) -> DiscreteForm:
    """Curvature plaquettes tr(X R1 Phi) - tr(R0) from the two subbundle curvature blocks.

    R0 and R1 are the sections' plaquette blocks, Phi the compression between
    their plaquette-centre projections and X its compressed inverse.
    Plaquettes with a near-singular compression are masked.
    """
    g = sec0.grid
    g.require_torus()
    _frames_pair(sec0, sec1)
    f0c, r0 = sec0.plaquette_blocks
    f1c, r1 = sec1.plaquette_blocks
    tr0 = np.trace(r0, axis1=-2, axis2=-1)
    healthy, mcsafe = _guard(_chart_datum(f0c, f1c, None), sing_floor)
    n = bmm(bmm(np.swapaxes(f1c.conj(), -1, -2), r1), f0c)
    vals = trace_solve(mcsafe, [n])[0] - tr0
    return DiscreteForm(g, 2, vals, mask=~healthy)


# -- splitting comparison function ---------------------------------------------


def _f_ratio(dets, domains):
    """(F, healthy) from the full, left and right overlap dets and chart domains.

    F = det M_full / (det M_right det M_left), set to 1 outside the joint domain.
    """
    full, left, right = dets
    healthy = np.logical_and.reduce(domains)
    return np.where(healthy, full / np.where(healthy, right * left, 1.0), 1.0), healthy


def f_function_field(sec_a: ProjectionSection, sec_mid: ProjectionSection,
                     sec_b: ProjectionSection, sing_floor: float):
    """Determinant ratio comparing the outer pair with its two-stage split.

    Returns (field, healthy) with field(b) = det M_full / (det M_right *
    det M_left); the value is frame independent and equals 1 when the middle
    section coincides with the first leg.  Unhealthy points are set to 1.
    """
    legs = [_guard(pair_overlap_field(s0, s1), sing_floor)
            for s0, s1 in ((sec_a, sec_b), (sec_a, sec_mid), (sec_mid, sec_b))]
    return _f_ratio([det(msafe) for _, msafe in legs], [healthy for healthy, _ in legs])


def f_function(model, section: ProjectionSection, idx) -> complex:
    """Point value of the splitting comparison function at grid index idx.

    Compares the full boundary pair of the model with the composition of the
    two half pairs through the interface section; 1 when the section equals
    the first Cauchy-data bundle.  Raises OutOfChart at excluded points.
    """
    sec_a, sec_b = model.boundary_pair()
    vals, healthy = f_function_field(sec_a, section, sec_b, 1e-8)
    if not healthy[idx]:
        raise OutOfChart(f"a compression is near-singular at {idx}")
    return complex(vals[idx])


# -- link variables and Chern numbers ------------------------------------------


def pair_links(sec0: ProjectionSection, sec1: ProjectionSection) -> np.ndarray:
    """Link overlaps of the determinant line of the pair: conj(l0) * l1."""
    _frames_pair(sec0, sec1)
    return np.conj(section_links(sec0)) * section_links(sec1)


def plaquette_winding(grid: BaseGrid, links: np.ndarray) -> DiscreteForm:
    """Principal-log plaquette holonomy of normalized link overlaps."""
    grid.require_torus()
    links = np.asarray(links)
    if links.shape != grid.shape + (2,):
        raise ValueError("links must carry one complex overlap per edge")
    mags = np.abs(links)
    if np.any(mags < VORTEX_TOL):
        raise VortexOnLink("link overlap below the vortex threshold; refine the grid")
    u = links / mags
    u0 = u[..., 0]
    u1 = u[..., 1]
    w = u0 * grid.roll(u1, 0, +1) * np.conj(grid.roll(u0, 1, +1)) * np.conj(u1)
    return DiscreteForm(grid, 2, np.log(w))


def chern_number(grid: BaseGrid, links: np.ndarray) -> int:
    """Integer holonomy sum of the line bundle described by the link field."""
    total = plaquette_winding(grid, links).total()
    c = complex(total) / (2j * np.pi)
    n = int(round(c.real))
    if abs(c - n) > 1e-3:
        raise ValueError(f"holonomy sum {c} is not integral within 0.001")
    return n


def chern_of_section(section: ProjectionSection) -> int:
    """Chern number of det(ran P) from frame-overlap link variables."""
    return chern_number(section.grid, section_links(section))


def chern_of_pair(sec0: ProjectionSection, sec1: ProjectionSection) -> int:
    """Chern number of the pair's determinant line (dual leg 0, direct leg 1)."""
    return chern_number(sec0.grid, pair_links(sec0, sec1))


# -- additivity report ----------------------------------------------------------


@dataclass
class CurvatureReport:
    """Outcome of the split-curvature comparison over a parameter torus.

    curvature is the full-pair curvature form (chart cover applied); defect
    holds the plaquette residual curvature_full - curvature_left -
    curvature_right - winding, which is the coboundary of one_form_residual.
    residuals maps statistic names to nonnegative reals; cherns are computed
    independently per bundle by the link method.  connections holds the
    charted connections of the full, left and right pairs.
    """

    curvature: DiscreteForm
    curvature_left: DiscreteForm
    curvature_right: DiscreteForm
    defect: DiscreteForm
    one_form_residual: DiscreteForm
    f_winding: DiscreteForm
    chern: int
    chern_left: int
    chern_right: int
    residuals: dict[str, float]
    connections: tuple[ChartedConnection, ChartedConnection, ChartedConnection]
    label: str

    @property
    def chern_additive(self) -> bool:
        return self.chern == self.chern_left + self.chern_right

    def summary(self) -> dict:
        """JSON-ready digest of the report."""
        return {
            "label": self.label,
            "grid": list(self.curvature.grid.shape),
            "chern": {"full": self.chern, "left": self.chern_left,
                      "right": self.chern_right,
                      "additive": bool(self.chern_additive)},
            "residuals": {k: float(v) for k, v in sorted(self.residuals.items())},
        }


def additivity_residual(model, section: ProjectionSection, sing_floor: float = 0.1,
                        max_excluded: float = 0.05, label: str = "") -> CurvatureReport:
    """Split the boundary pair through a section and compare connection data.

    Checks the identity omega_full = omega_left + omega_right + d log F on
    every co-healthy edge (plain charts), reports the plaquette defect with
    the winding of F removed, and computes the three Chern numbers by
    independent link sums.  Raises CoverageError when a point lies outside
    every chart domain or when the exclusions exceed max_excluded of the
    edges.
    """
    sec_a, sec_b = model.boundary_pair()
    g = sec_a.grid
    g.require_torus()

    # one charted connection per pair; chart 0 of the default cover is the
    # plain overlap chart, which carries the one-form identity and F
    pairs = ((sec_a, sec_b), (sec_a, section), (section, sec_b))
    conns = [connection_one_form(s0, s1, sing_floor=sing_floor) for s0, s1 in pairs]
    f_vals, _ = _f_ratio([c.det[0] for c in conns], [c.healthy[0] for c in conns])
    full, left, right = (c.omega[0].samples for c in conns)

    # an edge is masked in some plain chart exactly when an end of it leaves
    # the joint domain of F, so the F edge mask is the union of the three
    dlog_f = _dlog_edges(f_vals, g)
    emask = np.logical_or.reduce([c.omega[0].mask for c in conns])

    excluded = float(emask.mean())
    if excluded > max_excluded:
        err = CoverageError(
            f"{100 * excluded:.1f}% of edges excluded, above {100 * max_excluded:.1f}%")
        err.fraction = excluded
        raise err

    one_form = DiscreteForm(g, 1, _wrap_branch(full - left - right - dlog_f), mask=emask)
    defect = one_form.coboundary()
    defect.samples = _wrap_branch(defect.samples)
    f_wind_form = DiscreteForm(g, 1, dlog_f, mask=emask).coboundary()
    curv_full, curv_left, curv_right = (curvature_of(c) for c in conns)
    c_full, c_left, c_right = (chern_of_pair(s0, s1) for s0, s1 in pairs)

    wind = f_wind_form.samples / (2j * np.pi)
    keep_w = ~f_wind_form.mask
    integ = float(np.max(np.abs(wind - np.round(wind.real))[keep_w])) if keep_w.any() else 0.0

    def real_max(form: DiscreteForm) -> float:
        return float(np.where(form.mask, 0.0, np.abs(form.samples.real)).max())

    residuals = {
        "one_form_max_density": one_form.max_density_residual(),
        "defect_max_density": defect.max_density_residual(),
        "curvature_real_max": max(real_max(curv_full), real_max(curv_left),
                                  real_max(curv_right)),
        "excluded_edge_fraction": excluded,
        "excluded_plaquette_fraction": float(defect.mask.mean()),
        "f_winding_integrality": integ,
        "chern_additivity_gap": float(abs(c_full - (c_left + c_right))),
    }
    return CurvatureReport(curv_full, curv_left, curv_right, defect, one_form,
                           f_wind_form, c_full, c_left, c_right, residuals,
                           tuple(conns), label)


# -- trace identities ------------------------------------------------------------


def swap_trace_identity(p0: Projection, p1: Projection, phi, end0, end1):
    """Move a pair of sandwiched endomorphisms through an invertible compression.

    Returns the two evaluations (trace on range(P0), trace on range(P1)) of
    the same quantity: tr(R0 - X R1 Phi) and tr(Phi R0 X - R1).  Equality is
    pure trace cyclicity; numerical agreement certifies the compressed
    inverse.
    """
    phi_s = p1.matrix @ as_matrix(phi) @ p0.matrix
    r0 = p0.matrix @ as_matrix(end0) @ p0.matrix
    r1 = p1.matrix @ as_matrix(end1) @ p1.matrix
    x = toeplitz_inverse(p0, p1, phi_s)
    lhs = np.trace(r0 - x @ r1 @ phi_s)
    rhs = np.trace(phi_s @ r0 @ x - r1)
    return complex(lhs), complex(rhs)


def composition_trace_identity(p0: Projection, p1: Projection, p2: Projection,
                               phi01, phi12, end2):
    """Telescope a sandwiched endomorphism through a composed compression.

    Returns tr(X02 R2 Phi02) for the one-step pair and tr(X01 X12 R2 Phi12
    Phi01) for the two-step factorization; both equal tr(R2).
    """
    phi01_s = p1.matrix @ as_matrix(phi01) @ p0.matrix
    phi12_s = p2.matrix @ as_matrix(phi12) @ p1.matrix
    phi02 = phi12_s @ phi01_s
    r2 = p2.matrix @ as_matrix(end2) @ p2.matrix
    x01 = toeplitz_inverse(p0, p1, phi01_s)
    x12 = toeplitz_inverse(p1, p2, phi12_s)
    x02 = toeplitz_inverse(p0, p2, phi02)
    lhs = np.trace(x02 @ r2 @ phi02)
    rhs = np.trace(x01 @ x12 @ r2 @ phi12_s @ phi01_s)
    return complex(lhs), complex(rhs)
