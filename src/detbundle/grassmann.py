"""Projections, sections of the restricted Grassmannian over a discretized base,
and the small exterior calculus used to differentiate them.

Conventions.  A base grid is a 2-axis torus, both axes wrapping, or a 1-axis
open line that only samples a scan; forms and neighbour steps need the torus.
Discrete k-forms store cell-integrated samples: degree 0 on points, degree 1 on
the directed edge (b -> b + e_mu) at index [b, mu], degree 2 on the plaquette
with lower-left corner b.  The coboundary is then the plain oriented sum and
plaquette totals approximate integrals.  Residuals quoted per cell are
normalized by cell volume, so second-order schemes show O(h^2) densities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._blocks import _readonly, bmm, det, largest_singular_value, orthonormalizer, smallest_singular_value
from .errors import DegenerateSpectrum, GridDomainError, OutOfChart
from .opcalc import as_matrix, square_matrix

__all__ = [
    "BaseGrid",
    "DiscreteForm",
    "Projection",
    "ProjectionSection",
    "spectral_projection",
    "graph_projection",
    "toeplitz_inverse",
    "curvature_trace_form",
    "second_fundamental_form",
    "section_links",
]

PROJECTION_TOL = 1e-10
# eigenvalues in (-SPECTRAL_GAP, -snap] make a spectral split ill-posed
SPECTRAL_GAP = 1e-8


@dataclass(frozen=True)
class BaseGrid:
    """Uniform lattice: a 2-axis torus (both axes wrap) or a 1-axis open line."""

    shape: tuple[int, ...]
    spacing: tuple[float, ...]
    origin: tuple[float, ...] = ()

    def __post_init__(self):
        d = len(self.shape)
        if d not in (1, 2):
            raise ValueError("grid must have 1 or 2 axes")
        if not self.origin:
            object.__setattr__(self, "origin", (0.0,) * d)
        if len(self.spacing) != d or len(self.origin) != d:
            raise ValueError("shape, spacing and origin must have equal length")
        if any(int(n) < 4 for n in self.shape):
            raise ValueError("every axis needs at least 4 points")
        if any(not (0 < h < np.inf) for h in self.spacing):
            raise ValueError("grid spacing must be positive and finite")

    @classmethod
    def torus(cls, n1: int, n2: int):
        """Flat 2-axis torus with axis length 2*pi."""
        return cls((n1, n2), (2.0 * np.pi / n1, 2.0 * np.pi / n2))

    @classmethod
    def line(cls, n: int, start: float, stop: float):
        """Open 1-d scan grid; samples include both endpoints."""
        # __post_init__ rejects n < 4; max() only keeps n = 1 from dividing by zero
        return cls((n,), ((stop - start) / max(n - 1, 1),), (float(start),))

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def axis_coords(self, axis: int, offset: float = 0.0) -> np.ndarray:
        return self.origin[axis] + offset + self.spacing[axis] * np.arange(self.shape[axis])

    def coords(self, offset: float = 0.0):
        """Meshgrid of coordinates, indexed like the sample arrays."""
        axes = [self.axis_coords(k, offset) for k in range(self.ndim)]
        return np.meshgrid(*axes, indexing="ij")

    def plaquette_area(self) -> float:
        self.require_torus()
        return self.spacing[0] * self.spacing[1]

    def require_torus(self):
        """The one grid-kind guard: a 1-axis grid is an open line, not a torus."""
        if self.ndim != 2:
            raise GridDomainError("operation needs a 2-axis torus, not a 1-axis line")

    def roll(self, values: np.ndarray, axis: int, step: int) -> np.ndarray:
        """The neighbour lookup on the torus: entry b holds values[b + step e_axis]."""
        self.require_torus()
        return np.roll(values, -step, axis=axis)


@dataclass(frozen=True, eq=False)
class DiscreteForm:
    """Cell-integrated scalar k-form on a torus BaseGrid; an immutable value.

    samples shape: degree 0 and 2 -> grid.shape, degree 1 -> grid.shape +
    (2,).  mask marks excluded cells (True = excluded) and always has the
    samples' shape; mask=None builds the all-False mask.
    """

    grid: BaseGrid
    degree: int
    samples: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self):
        if self.degree not in (0, 1, 2):
            raise ValueError("degree must be 0, 1 or 2")
        self.grid.require_torus()
        object.__setattr__(self, "samples", np.asarray(self.samples))
        cells = self.grid.shape + ((self.grid.ndim,) if self.degree == 1 else ())
        if self.samples.shape != cells:
            raise ValueError(f"sample shape {self.samples.shape} does not match degree-{self.degree} cells {cells}")
        object.__setattr__(self, "mask", np.zeros(cells, dtype=bool) if self.mask is None
                           else np.asarray(self.mask, dtype=bool))
        if self.mask.shape != cells:
            raise ValueError("mask shape must match cell layout")

    def coboundary(self) -> "DiscreteForm":
        """Discrete exterior derivative (oriented sum of face samples)."""
        g = self.grid
        if self.degree == 0:
            out = np.stack(
                [g.roll(self.samples, ax, +1) - self.samples for ax in range(g.ndim)],
                axis=g.ndim,
            )
            # an edge is masked when either of its ends is
            m = np.stack([self.mask | g.roll(self.mask, ax, +1) for ax in range(g.ndim)],
                         axis=g.ndim)
            return DiscreteForm(g, 1, out, mask=m)
        if self.degree == 1:
            e0 = self.samples.take(0, axis=2)
            e1 = self.samples.take(1, axis=2)
            out = e0 + g.roll(e1, 0, +1) - g.roll(e0, 1, +1) - e1
            m0 = self.mask.take(0, axis=2)
            m1 = self.mask.take(1, axis=2)
            m = m0 | m1 | g.roll(m1, 0, +1) | g.roll(m0, 1, +1)
            return DiscreteForm(g, 2, out, mask=m)
        raise ValueError("no degree-3 cells on a 2-axis grid")

    def total(self):
        """Sum of samples over unmasked cells."""
        return self.samples[~self.mask].sum()

    def density(self) -> np.ndarray:
        """Samples divided by cell volume (spacing for edges, area for plaquettes)."""
        if self.degree == 0:
            return self.samples
        if self.degree == 1:
            return self.samples / np.asarray(self.grid.spacing)
        return self.samples / self.grid.plaquette_area()

    def max_density_residual(self) -> float:
        """max |density| over unmasked cells; the refinement-test statistic."""
        return float(np.where(self.mask, 0.0, np.abs(self.density())).max())

    def to_csv(self, path):
        """Write the samples as rows of cell indices plus (re, im), CRLF line ends.

        Masked cells are written as nan, nan: their samples are not data.
        """
        v = np.where(self.mask, complex(np.nan, np.nan), self.samples).ravel()
        header = ["i", "j"] + (["mu"] if self.degree == 1 else []) + ["re", "im"]
        cols = [i.ravel().tolist() for i in np.indices(self.samples.shape)]
        cols += [v.real.tolist(), v.imag.tolist()]
        # %r of a Python float is its repr, as csv.writer writes it
        row = ",".join(["%d"] * (len(cols) - 2) + ["%r", "%r"]) + "\r\n"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\r\n")
            fh.writelines(row % values for values in zip(*cols))


def _orthonormal(frames, lead: tuple[int, ...], what: str) -> np.ndarray:
    """Read-only copy of finite orthonormal frames of shape lead + (dim, k), k <= dim."""
    f = np.array(frames, dtype=complex)
    if f.ndim != len(lead) + 2 or f.shape[: len(lead)] != lead or f.shape[-1] > f.shape[-2]:
        where = "a grid of (dim, k) matrices" if lead else "one (dim, k) matrix"
        raise ValueError(f"{what} must be {where} with k <= dim")
    if not np.isfinite(f).all():
        raise FloatingPointError(f"{what} are not finite")
    gram = bmm(np.swapaxes(f.conj(), -1, -2), f)
    if np.max(np.abs(gram - np.eye(f.shape[-1])), initial=0.0) > PROJECTION_TOL:
        raise ValueError(f"{what} must be orthonormal")
    return _readonly(f)


class Projection:
    """Orthogonal projection F F* onto the span of an orthonormal (dim, k) frame F.

    F, checked like a section's frames and kept read-only, is the only
    constructor argument: ``frame()`` reads it, ``matrix`` is F F*, ``rank`` k.
    """

    def __init__(self, frame):
        self._frame = _orthonormal(frame, (), "projection frames")
        self.dim, self.rank = self._frame.shape
        self.matrix = _readonly(self._frame @ self._frame.conj().T)

    def frame(self) -> np.ndarray:
        """Read-only orthonormal basis of the range, shape (dim, rank)."""
        return self._frame


def _plaquette_corners(values: np.ndarray, grid: BaseGrid):
    """Per plaquette: corner-averaged P and [d0 P, d1 P] of face-averaged central differences."""
    c00 = values
    c10 = grid.roll(values, 0, +1)
    c01 = grid.roll(values, 1, +1)
    c11 = grid.roll(c10, 1, +1)
    pc = 0.25 * (c00 + c10 + c01 + c11)
    d0 = (c10 + c11 - c00 - c01) / (2.0 * grid.spacing[0])
    d1 = (c01 + c11 - c00 - c10) / (2.0 * grid.spacing[1])
    return pc, d0 @ d1 - d1 @ d0


def nearest_projection(h: np.ndarray, rank: int):
    """Closest orthogonal projection to a Hermitian matrix with a spectral gap at 1/2.

    Returns the projection and, from the same eigh, range frames: the top
    ``rank`` eigenvectors, which span the range when ``rank`` eigenvalues
    exceed 1/2.
    """
    w, v = np.linalg.eigh(0.5 * (h + np.swapaxes(h.conj(), -1, -2)))
    sel = (w > 0.5).astype(complex)
    return (v * sel[..., None, :]) @ np.swapaxes(v.conj(), -1, -2), v[..., v.shape[-1] - rank:]


@dataclass(frozen=True, eq=False)
class ProjectionSection:
    """Field of rank-k projections over a BaseGrid, owned by their range frames.

    An immutable value: ``build`` keeps a read-only copy of orthonormal range
    frames F; the projections F F*, the smoothness constant, the frame
    transports, the links, the plaquette blocks and the complement are cached
    properties, computed on first read.
    """

    grid: BaseGrid
    _frames: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, grid: BaseGrid, frames) -> "ProjectionSection":
        """Section spanned by orthonormal frames of shape grid.shape + (dim, k)."""
        return cls(grid=grid, _frames=_orthonormal(frames, grid.shape, "section frames"))

    @property
    def base_rank(self) -> int:
        return self._frames.shape[-1]

    @property
    def dim(self) -> int:
        return self._frames.shape[-2]

    @cached_property
    def values(self) -> np.ndarray:
        """Read-only projections F F*, shape grid.shape + (dim, dim)."""
        return _readonly(self._frames @ np.swapaxes(self._frames.conj(), -1, -2))

    @cached_property
    def smoothness(self) -> float:
        """Constant C with ||P(b+e) - P(b)|| <= C*h over all grid edges."""
        g, v, c = self.grid, self.values, 0.0
        for ax in range(g.ndim):
            d = g.roll(v, ax, +1) - v
            if d.size:
                c = max(c, float(np.max(largest_singular_value(d))) / g.spacing[ax])
        return c

    @cached_property
    def transports(self) -> np.ndarray:
        """Read-only forward frame transports U(b, b+e) = F(b)* F(b+e) along each axis.

        Shape grid.shape + (ndim, k, k).  The backward transport U(b, b-e) is
        the adjoint of the forward one at b-e, so it is not stored.
        """
        g = self.grid
        f = self.frames()
        fh = np.swapaxes(f.conj(), -1, -2)
        out = [bmm(fh, g.roll(f, ax, +1)) for ax in range(g.ndim)]
        return _readonly(np.stack(out, axis=g.ndim))

    @cached_property
    def _links(self) -> np.ndarray:
        return _readonly(det(self.transports))

    @cached_property
    def plaquette_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only centre range frames and sandwiched curvature block per plaquette.

        Both come from one eigh of the corner-averaged projection: the frames
        span its nearest projection Pc, and the block is Pc [d0 P, d1 P] Pc
        times the plaquette area.
        """
        pc, comm = _plaquette_corners(self.values, self.grid)
        pc, fc = nearest_projection(pc, self.base_rank)
        return _readonly(fc.copy()), _readonly(pc @ comm @ pc * self.grid.plaquette_area())

    def frames(self) -> np.ndarray:
        """Read-only orthonormal range frames, shape grid.shape + (dim, base_rank)."""
        return self._frames

    @cached_property
    def _complement(self) -> "ProjectionSection":
        return ProjectionSection.build(self.grid, spectral_frames(np.eye(self.dim) - 2.0 * self.values))

    def complement(self) -> "ProjectionSection":
        """Section of I - P, spanned by the +1 eigenspaces of I - 2P (cached)."""
        return self._complement


def spectral_frames(a: np.ndarray) -> np.ndarray:
    """Orthonormal frames of the non-negative spectral subspaces of a stack of Hermitian matrices.

    One eigh; the kept eigenvectors are its trailing columns, shape
    a.shape[:-1] + (k,).  Zero eigenvalues belong to the non-negative side;
    roundoff-scale negatives are snapped to zero so exact kernels survive
    eigh jitter.  Eigenvalues inside (-SPECTRAL_GAP, -snap] make the split
    ill-posed, and so does a kept rank k that changes over the stack: both
    raise DegenerateSpectrum.
    """
    ah = np.swapaxes(a.conj(), -1, -2)
    if np.any(np.linalg.norm(a - ah, axis=(-2, -1))
              > 1e-10 * np.maximum(1.0, np.linalg.norm(a, axis=(-2, -1)))):
        raise ValueError("spectral projection needs self-adjoint matrices")
    w, v = np.linalg.eigh(a)
    snap = 64 * np.finfo(float).eps * np.maximum(1.0, np.abs(w).max(axis=-1, initial=0.0))
    snap = np.minimum(snap, 0.5 * SPECTRAL_GAP)[..., None]
    if np.any((w > -SPECTRAL_GAP) & (w < -snap)):
        raise DegenerateSpectrum("eigenvalue inside the forbidden band below zero")
    kept = (w >= -snap).sum(axis=-1)
    k = int(kept.flat[0])
    if np.any(kept != k):
        raise DegenerateSpectrum("the non-negative spectral subspace changes rank")
    # eigh sorts ascending, so the kept eigenvectors are the trailing columns
    return v[..., a.shape[-1] - k:]


def spectral_projection(a) -> Projection:
    """Projection onto the span of eigenvectors with non-negative eigenvalues."""
    return Projection(spectral_frames(square_matrix(a)))


def graph_frames(t: np.ndarray) -> np.ndarray:
    """Orthonormal frames [L^-*; T L^-*] of the graph {(v, T v)} of a stack of
    square blocks, L L* = I + T* T: Gram-Schmidt on the columns of [I; T]."""
    r_inv = orthonormalizer(np.eye(t.shape[-1]) + bmm(np.swapaxes(t.conj(), -1, -2), t))
    return np.concatenate([r_inv, bmm(t, r_inv)], axis=-2)


def graph_projection(t) -> Projection:
    """Projection onto the graph {(v, T v)} inside C^n (+) C^n."""
    return Projection(graph_frames(square_matrix(t)))


def toeplitz_inverse(p0: Projection, p1: Projection, phi) -> np.ndarray:
    """Ambient inverse X of a map phi: range(P0) -> range(P1).

    X satisfies X phi = P0 and phi X = P1.  Raises OutOfChart when the
    smallest restricted singular value drops below 1e-12; rank 0 gives 0.
    """
    if p0.rank != p1.rank:
        raise ValueError("ranks differ; the restriction cannot be invertible")
    f0, f1 = p0.frame(), p1.frame()
    m = f1.conj().T @ as_matrix(phi) @ f0
    smin = smallest_singular_value(m)
    if smin < 1e-12:
        raise OutOfChart(f"restricted singular value {smin:.3e} below 1e-12")
    return f0 @ np.linalg.inv(m) @ f1.conj().T


def second_fundamental_form(section: ProjectionSection, idx, axis: int) -> np.ndarray:
    """Off-diagonal derivative block (I - P(b)) dP P(b) by central difference."""
    g, v = section.grid, section.values
    fwd, bwd = g.roll(v, axis, +1), g.roll(v, axis, -1)
    idx = tuple(int(i) for i in (idx if isinstance(idx, tuple) else (idx,)))
    if len(idx) != g.ndim:
        raise ValueError("index rank does not match grid")
    diff = (fwd[idx] - bwd[idx]) / (2.0 * g.spacing[axis])
    p = v[idx]
    return (np.eye(section.dim) - p) @ diff @ p


def curvature_trace_form(section: ProjectionSection) -> DiscreteForm:
    """Scalar curvature 2-form Tr(P [dP, dP]) of the subbundle ran(P).

    Sampled at plaquette centers: corner-averaged P, face-averaged central
    differences, times the plaquette area (samples are integrals).
    """
    g = section.grid
    pc, comm = _plaquette_corners(section.values, g)
    vals = np.trace(pc @ comm, axis1=-2, axis2=-1) * g.plaquette_area()
    return DiscreteForm(g, 2, vals)


def section_links(section: ProjectionSection) -> np.ndarray:
    """Frame overlap determinants det(F(b)* F(b+e)) along each axis.

    The per-point frame gauge is arbitrary; closed-loop products of these
    links are gauge independent.  Shape: grid.shape + (ndim,).  These are
    the determinants of the section's cached transports, cached read-only too.
    """
    return section._links
