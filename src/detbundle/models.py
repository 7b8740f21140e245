"""Concrete operator families feeding the determinant-line machinery.

Two laboratories.  Dirac1DFamily solves rank-n first-order systems
psi' = i a(b, x) psi on a circle cut at {0, pi}; its transfer matrices produce
the Cauchy-data (Calderon) projections of the two halves, and the monodromy
determinant det(I - T(0 -> 2pi)) is the independent oracle for the kernel
locus.  CylinderFamily truncates a Fourier boundary operator diag(k) plus a
smoothing perturbation and provides spectral sections, for truncation-
stability studies.
"""

from __future__ import annotations

import weakref
from functools import cached_property

import numpy as np

from . import _blocks
from ._blocks import (_readonly, bmm as _bmm, det as _det, expi as _expi, su2_coords as _su2_coords,
                      su2_exp as _su2_exp, su2_unitary as _su2_unitary)
from .grassmann import BaseGrid, ProjectionSection, graph_frames, spectral_frames

__all__ = [
    "Dirac1DFamily",
    "CylinderFamily",
    "demo_family",
    "constant_scalar_family",
    "coefficient_family",
    "DEMO_COEFFICIENTS",
    "bloch_curvature_density",
    "bloch_section",
    "vortex_interface",
    "rotated_interface",
    "smoothing_perturbation",
]

PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

# Gauss points of the Magnus step sit at (k + 1/2 -+ _GAUSS) h
_GAUSS = np.sqrt(3.0) / 6.0

# From SPLIT_POINTS grid points on, and with 2 CPUs, a rank-2 family's two
# half-circle transfers are integrated at once, one on a worker thread.
# Measured in process, demo table, both halves at 128 steps, 2-vCPU VM with
# one BLAS thread; inline time / split time, the median of 7 alternating
# rounds, lowest and highest of 3 passes:
#    grid     points   inline / split
#    32^2       1024    0.42 - 0.51
#    48^2       2304    0.57 - 0.76
#    64^2       4096    0.76 - 0.78
#    72^2       5184    0.84 - 0.97
#    80^2       6400    1.01 - 1.30
#    90^2       8100    0.94 - 1.23
#   128^2      16384    1.15 - 1.56
#   181^2      32761    1.73 - 1.82
SPLIT_POINTS = 6000

# The Magnus error, 2.2e-10 at 128 steps per half and falling as h^4, meets rounding near 4,900
MAX_STEPS_PER_HALF = 1 << 16


class Dirac1DFamily:
    """Family of rank-n systems psi' = i a(b, x) psi over a parameter grid.

    Parameters
    ----------
    grid : BaseGrid
        Parameter lattice: a 1-axis line for scans, a 2-axis torus for curvature.
    potential : callable
        potential(b1, b2, x) -> one Hermitian (n, n) block per grid point, shape
        grid.shape + (n, n), from the coordinate arrays b1, b2 (b2 is
        zero-filled on a 1-axis line).  Must be 2*pi periodic in x.
    rank : int
        Block size n.
    steps_per_half : int
        Fixed steps per half circle; cut points stay on the step lattice.

    Each step is the 4th-order Magnus step with two Gauss points and one
    commutator (Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009)).  Its
    exponential of a Hermitian generator is exactly unitary.  For rank 2 the
    generator is h0 I + hv . sigma, and the transfer is carried in su(2)
    coordinates, a phase e^{i phi} times a unit quaternion q0 I + i q . sigma
    per grid point, composed with the quaternion product; the complex blocks
    are formed once, at the end.  For rank 1 the step exponential is the
    phase e^{i gen}, and larger ranks take one eigh per step.
    The Cauchy-data sections are built from their graph frames.

    The two half-circle transfers are always integrated in one call: from
    SPLIT_POINTS grid points on, with 2 CPUs, a rank-2 family runs them at
    once, pi -> 2pi on a worker thread (_blocks._both) once both are prepared
    (buffers allocated, first samples read) on the calling thread; otherwise
    in turn, 0 -> pi first.  Every step takes the same operations either
    way, so transfers, cache and errors do not depend on the machine.
    """

    def __init__(self, grid: BaseGrid, potential, rank: int, steps_per_half: int):
        if rank < 1:
            raise ValueError("rank must be at least 1")
        if steps_per_half < 8:
            raise ValueError("need at least 8 integrator steps per half circle")
        if steps_per_half > MAX_STEPS_PER_HALF:
            raise ValueError(f"steps_per_half must be at most {MAX_STEPS_PER_HALF}")
        self.grid = grid
        self.potential = potential
        self.rank = int(rank)
        self.steps_per_half = int(steps_per_half)
        b = grid.coords()
        # read-only, so a potential may cache what it derives from them
        self._b1 = _readonly(b[0])
        self._b2 = _readonly(b[1] if grid.ndim == 2 else np.zeros_like(b[0]))
        self._flows: dict[tuple[int, int], np.ndarray] = {}

    # -- integration ---------------------------------------------------------

    @property
    def _step(self) -> float:
        return np.pi / self.steps_per_half

    def _tick(self, x: float) -> int:
        t = x / self._step
        k = round(t)
        if abs(t - k) > 1e-9:
            raise ValueError("x must sit on the integrator step lattice")
        return int(k)

    def _a(self, b, x: float, check: bool) -> np.ndarray:
        a = np.asarray(self.potential(b[0], b[1], x), dtype=complex)
        want = self.grid.shape + (self.rank, self.rank)
        if a.shape != want:
            raise ValueError(f"potential blocks have shape {a.shape}, want {want}")
        if check and np.abs(a - np.swapaxes(a.conj(), -1, -2)).max() > 1e-12 * max(1.0, np.abs(a).max()):
            raise ValueError("potential blocks must be Hermitian")
        return a

    def _samples(self, b, k0: int, k1: int):
        """The potential at the two Gauss points of each step k0..k1-1, in order, one
        block at a time (none is kept across a yield); the first is checked Hermitian."""
        h = self._step
        for k in range(k0, k1):
            yield self._a(b, (k + 0.5 - _GAUSS) * h, check=k == k0)
            yield self._a(b, (k + 0.5 + _GAUSS) * h, check=False)

    def transfer_field(self, x0: float, x1: float) -> np.ndarray:
        """Read-only transfer matrices T_b(x0 -> x1), x0 <= x1, over the whole grid (cached).

        Both half-circle transfers are integrated in one call, which raises
        an error of either.  The potential must be Hermitian: the first sample
        of each flow is checked, and a non-Hermitian block raises ValueError.
        """
        k0, k1 = self._tick(x0), self._tick(x1)
        if k1 < k0:
            raise ValueError("transfers run forward: need x0 <= x1")
        key = (k0, k1)
        if key in self._flows:
            return self._flows[key]
        n = self.steps_per_half
        halves = [(0, n), (n, 2 * n)]
        keys = halves if key in halves else [key]
        # read-only views that die with this call, and a cache keyed on them too
        b = (self._b1.view(), self._b2.view())
        # an overflowing potential ends in the one error below, not in warnings
        with np.errstate(over="ignore", invalid="ignore"):
            if len(keys) == 2 and self.rank == 2 and b[0].size >= SPLIT_POINTS and _blocks._cpus() >= 2:
                ts = _blocks._both(*[self._su2_flow(b, *k) for k in keys])
            elif self.rank == 2:
                ts = [self._su2_flow(b, *k)() for k in keys]
            else:
                ts = [self._matrix_flow(b, *k) for k in keys]
        if not all(np.isfinite(t).all() for t in ts):
            raise FloatingPointError("transfer matrices are not finite")
        self._flows.update(zip(keys, map(_readonly, ts)))
        return self._flows[key]

    def _matrix_flow(self, coords, k0: int, k1: int) -> np.ndarray:
        h, samples = self._step, self._samples(coords, k0, k1)
        t = np.broadcast_to(np.eye(self.rank, dtype=complex), self.grid.shape + (self.rank, self.rank)).copy()
        for a1, a2 in zip(samples, samples):
            # X - X^H is the commutator [a2, a1] for Hermitian blocks
            x = _bmm(a2, a1)
            comm = x - np.swapaxes(x.conj(), -1, -2)
            gen = (0.5 * h) * (a1 + a2) + (1j * _GAUSS * 0.5 * h * h) * comm
            t = _bmm(_expi(gen), t)
        return t

    def _su2_flow(self, coords, k0: int, k1: int):
        # steps k0..k1-1 as a function of no arguments.  T = e^{i phi} (q0 I + i q.sigma);
        # a Gauss sample a = a0 I + a.sigma gives the generator h0 I + hv.sigma with
        # [b, a] = 2i (b x a).sigma, so hv = (h/2)(a + b) + (sqrt(3)/6) h^2 (a x b).
        # The loop runs in the buffers below, allocated on the calling thread, like
        # the first sample's read; each formula is evaluated in place in its own order.
        half, cross = 0.5 * self._step, _GAUSS * self._step ** 2
        samples, steps, shape = self._samples(coords, k0, k1), k1 - k0, self.grid.shape
        phi, t, u = np.zeros(shape), np.empty(shape), np.empty(shape)
        q = [np.ones(shape)] + [np.zeros(shape) for _ in range(3)]
        p, a, b, e = ([np.empty(shape) for _ in range(4)] for _ in range(4))
        hv = [np.empty(shape) for _ in range(3)]
        # each block is dropped once its coordinates are copied out
        if steps:
            _su2_coords(next(samples), out=a)
        cyclic = ((1, 2, 3), (2, 3, 1), (3, 1, 2))

        def flow() -> np.ndarray:
            nonlocal q, p
            for k in range(steps):
                if k:
                    _su2_coords(next(samples), out=a)
                _su2_coords(next(samples), out=b)
                np.add(phi, np.multiply(np.add(a[0], b[0], out=t), half, out=t), out=phi)
                for out, (i, j, m) in zip(hv, cyclic):
                    # h_i = half (a_i + b_i) + cross (a_j b_m - a_m b_j)
                    np.multiply(np.add(a[i], b[i], out=out), half, out=out)
                    np.multiply(a[j], b[m], out=t)
                    np.subtract(t, np.multiply(a[m], b[j], out=u), out=t)
                    out += np.multiply(t, cross, out=t)
                e0 = _su2_exp(*hv, out=e)[0]
                # the quaternion product (e0, e)(q0, q) = (e0 q0 - e.q, e0 q + q0 e - e x q)
                np.multiply(e0, q[0], out=p[0])
                for i in (1, 2, 3):
                    p[0] -= np.multiply(e[i], q[i], out=t)
                for out, (i, j, m) in zip(p[1:], cyclic):
                    # p_i = e0 q_i + q0 e_i - e_j q_m + e_m q_j
                    np.multiply(e0, q[i], out=out)
                    out += np.multiply(q[0], e[i], out=t)
                    out -= np.multiply(e[j], q[m], out=t)
                    out += np.multiply(e[m], q[j], out=t)
                q, p = p, q
            return _su2_unitary(np.exp(1j * phi), *q)

        return flow

    # -- boundary data -------------------------------------------------------

    def calderon_section(self, side: str) -> ProjectionSection:
        """Cauchy-data projections of the chosen half circle.

        side="left" projects onto {(v, T(0->pi) v)}; side="right" onto
        {(T(pi->2pi) w, w)}, the boundary data of solutions on the second
        half read in the (psi(0), psi(pi)) ordering.
        """
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        return self._left_section if side == "left" else self._right_section

    @cached_property
    def _left_section(self) -> ProjectionSection:
        return ProjectionSection.build(self.grid, graph_frames(self.transfer_field(0.0, np.pi)))

    @cached_property
    def _right_section(self) -> ProjectionSection:
        # {(T w, w)} is the graph of T with its two n-row halves swapped
        t = self.transfer_field(np.pi, 2.0 * np.pi)
        return ProjectionSection.build(self.grid, np.roll(graph_frames(t), self.rank, axis=-2))

    def monodromy_field(self) -> np.ndarray:
        """det(I - T(0 -> 2pi)) over the grid; zero exactly at periodic solutions.

        T(0 -> 2pi) is composed from the two cached half-circle transfers.
        """
        t = _bmm(self.transfer_field(np.pi, 2.0 * np.pi), self.transfer_field(0.0, np.pi))
        return _det(np.eye(self.rank) - t)

    @cached_property
    def _right_complement(self) -> ProjectionSection:
        # the orthogonal complement of {(T w, w)}, T = T(pi -> 2pi), is the graph of -T*
        t = self.transfer_field(np.pi, 2.0 * np.pi)
        return ProjectionSection.build(self.grid, graph_frames(-np.swapaxes(t.conj(), -1, -2)))

    def boundary_pair(self):
        """Compression pair (P0, P1) of the full determinant: the left Cauchy
        data and the complement of the right, built from the graph of -T*."""
        return self.calderon_section("left"), self._right_complement


# -- shipped families ---------------------------------------------------------


def demo_family(grid: BaseGrid, steps_per_half: int) -> Dirac1DFamily:
    """Rank-2 family over the torus, periodic in both parameters.

    a(b, x) = 0.5 I + 0.22 n(b) . sigma + 0.18 (cos x sigma_1 + sin x sigma_2)
    with the sphere-valued direction field
    n(b) = (cos b1, sin b1 cos b2, sin b1 sin b2); DEMO_COEFFICIENTS is this
    table.  The constant part 0.5*I keeps the local spectrum inside (0, 1), so
    the period map never develops a unit eigenvalue and the full compression
    stays invertible across the grid, while the direction field makes the
    half-circle Cauchy bundles genuinely curved.
    """
    return coefficient_family(grid, DEMO_COEFFICIENTS, steps_per_half=steps_per_half)


def constant_scalar_family(grid: BaseGrid, value: float | None = None, rank: int = 1, *,
                           steps_per_half: int) -> Dirac1DFamily:
    """Scalar family a(b, x) = c * I with c the first grid coordinate (or fixed).

    Closed forms: T(x0 -> x1) = exp(i c (x1 - x0)) I, so the monodromy
    determinant is (1 - exp(2 pi i c))^rank and the kernel locus is c integer.
    """

    def pot(b1, b2, x):
        c = np.full_like(b1, value) if value is not None else b1
        return c[..., None, None] * np.eye(rank)

    return Dirac1DFamily(grid, pot, rank=rank, steps_per_half=steps_per_half)


_TRIG_BASIS = {"one": lambda t: np.ones_like(t), "cos": np.cos, "sin": np.sin}
_CHANNELS = {"s0": np.eye(2, dtype=complex), "s1": PAULI[0],
             "s2": PAULI[1], "s3": PAULI[2]}

DEMO_COEFFICIENTS = {
    "s0.one.one.one": 0.5,
    "s1.cos.one.one": 0.22,
    "s2.sin.cos.one": 0.22,
    "s3.sin.sin.one": 0.22,
    "s1.one.one.cos": 0.18,
    "s2.one.one.sin": 0.18,
}


def potential_from_coefficients(coefficients: dict[str, float]):
    """Rank-2 potential from a coefficient table over a fixed basis.

    Keys are "<channel>.<f(b1)>.<g(b2)>.<h(x)>" with channel in s0..s3
    (identity and the three Pauli directions) and each factor in
    {one, cos, sin}.  Real coefficients keep the sample Hermitian, and every
    basis function is 2 pi periodic, so any table yields an admissible
    torus family.  DEMO_COEFFICIENTS is the table of demo_family.

    The x-independent fields sum(c f(b1) g(b2) channel), one per factor h(x),
    are stacked as the m rows of one read-only array on the first call with
    read-only coordinate arrays and reused while the same arrays come back;
    writable inputs are evaluated afresh.  The array is kept only while
    those coordinates live: a Dirac1DFamily integrates on read-only views
    that live for one transfer_field call, which integrates both halves, so
    the array goes with it.  A call is then one product of the (m,) values
    h(x) with that array, which it only reads.
    """
    parsed = []
    for key, value in coefficients.items():
        parts = key.strip().lower().split(".")
        if len(parts) != 4 or parts[0] not in _CHANNELS \
                or any(p not in _TRIG_BASIS for p in parts[1:]):
            raise ValueError(f"bad potential coefficient key: {key!r}")
        parsed.append((_CHANNELS[parts[0]], parts[1], parts[2], parts[3], float(value)))
    if not parsed:
        raise ValueError("potential coefficient table is empty")
    hs = list(dict.fromkeys(h for _, _, _, h, _ in parsed))

    def stacked_of(b1, b2) -> np.ndarray:
        stacked = np.zeros((len(hs), np.size(b1) * 4), dtype=complex)
        for mat, f, g, h, c in parsed:
            field = stacked[hs.index(h)].reshape(np.shape(b1) + (2, 2))
            field += (c * _TRIG_BASIS[f](b1) * _TRIG_BASIS[g](b2))[..., None, None] * mat
        return _readonly(stacked)

    # (ref(b1), ref(b2), stacked) for the last read-only coordinates, replaced
    # whole: a call reads it once, so two threads never mix two entries
    memo = [None]

    def forget(ref) -> None:
        entry = memo[0]
        if entry is not None and (entry[0] is ref or entry[1] is ref):
            memo[0] = None

    def pot(b1, b2, x):
        entry = memo[0]
        if entry is not None and entry[0]() is b1 and entry[1]() is b2:
            stacked = entry[2]
        else:
            stacked = stacked_of(b1, b2)
            if all(isinstance(b, np.ndarray) and not b.flags.writeable for b in (b1, b2)):
                memo[0] = (weakref.ref(b1, forget), weakref.ref(b2, forget), stacked)
        hx = np.array([_TRIG_BASIS[h](float(x)) for h in hs], dtype=complex)
        return (hx @ stacked).reshape(np.shape(b1) + (2, 2))

    return pot


def coefficient_family(grid: BaseGrid, coefficients: dict[str, float],
                       steps_per_half: int) -> Dirac1DFamily:
    """Dirac1DFamily built from a potential coefficient table."""
    return Dirac1DFamily(grid, potential_from_coefficients(coefficients),
                         rank=2, steps_per_half=steps_per_half)


# -- rank-1 control family over the torus -------------------------------------


def bloch_vector(b1, b2, mass: float = 1.0) -> np.ndarray:
    """Direction field (sin b1, sin b2, mass - cos b1 - cos b2), normalized."""
    n = np.stack([np.sin(b1), np.sin(b2), mass - np.cos(b1) - np.cos(b2)], axis=-1)
    norm = np.linalg.norm(n, axis=-1, keepdims=True)
    if np.any(norm < 1e-12):
        raise ValueError("direction field vanishes; pick a mass away from 0, +-2")
    return n / norm


def bloch_curvature_density(b1, b2, mass: float) -> np.ndarray:
    """Exact curvature density (i/2) nhat . (d1 nhat x d2 nhat) of the upper band.

    Closed form for the normalized direction field: n . (d1 n x d2 n)/|n|^3
    with the unnormalized n above.
    """
    n = np.stack([np.sin(b1), np.sin(b2), mass - np.cos(b1) - np.cos(b2)], axis=-1)
    d1 = np.stack([np.cos(b1), np.zeros_like(b1), np.sin(b1)], axis=-1)
    d2 = np.stack([np.zeros_like(b2), np.cos(b2), np.sin(b2)], axis=-1)
    triple = np.sum(n * np.cross(d1, d2), axis=-1)
    norm = np.linalg.norm(n, axis=-1)
    return 0.5j * triple / norm**3


def bloch_section(grid: BaseGrid, mass: float) -> ProjectionSection:
    """Rank-one projection field (1/2)(I + nhat . sigma) of the upper band."""
    b1, b2 = grid.coords()
    nhat = bloch_vector(b1, b2, mass)
    # a band with a Chern number has no global frame formula; one eigh of
    # nhat . sigma finds the frames, its +1 eigenvectors
    h = (nhat[..., 0, None, None] * PAULI[0] + nhat[..., 1, None, None] * PAULI[1]
         + nhat[..., 2, None, None] * PAULI[2])
    return ProjectionSection.build(grid, spectral_frames(h))


def vortex_interface(fam: Dirac1DFamily, radius: float = 1.1,
                     orientation: int = 1) -> ProjectionSection:
    """Interface section: the left Cauchy bundle with one line twisted in a disc.

    Outside the disc, centred at (pi, pi), the section equals the left
    Cauchy-data projections exactly, so compressions against them are
    perfectly conditioned there.  Inside, the first frame column f is
    replaced by cos(theta/2) f + sin(theta/2) e^{i phi} g, with g the first
    frame column of the complement (the graph of -T(0->pi)*), with phi the
    polar angle times orientation: a sphere map of degree orientation that
    shifts the Chern number by -orientation and confines every
    near-degeneracy to the disc.
    """
    g = fam.grid
    g.require_torus()
    if not (0 < radius < np.pi):
        raise ValueError("radius must fit inside the fundamental domain")
    t = fam.transfer_field(0.0, np.pi)
    frames = fam.calderon_section("left").frames().copy()
    # {(-T* w, w)}: the graph of -T* with its two n-row halves swapped
    gvec = np.roll(graph_frames(-np.swapaxes(t.conj(), -1, -2)), fam.rank, axis=-2)[..., :, 0]

    b1, b2 = g.coords()
    span1 = g.spacing[0] * g.shape[0]
    span2 = g.spacing[1] * g.shape[1]
    dx = (b1 - np.pi + 0.5 * span1) % span1 - 0.5 * span1
    dy = (b2 - np.pi + 0.5 * span2) % span2 - 0.5 * span2
    rho = np.hypot(dx, dy)
    phi = orientation * np.arctan2(dy, dx)
    theta = np.pi * np.where(rho < radius, np.cos(0.5 * np.pi * rho / radius) ** 2, 0.0)
    frames[..., :, 0] = (np.cos(0.5 * theta)[..., None] * frames[..., :, 0]
                         + (np.sin(0.5 * theta) * np.exp(1j * phi))[..., None] * gvec)
    return ProjectionSection.build(g, frames)


def rotated_interface(fam: Dirac1DFamily, strength: float = 0.4) -> ProjectionSection:
    """Smooth near-identity deformation of the incoming Calderon section.

    Rotates the left graph frames by exp(i strength K(b)) (x) I_n, where
    K = sin b1 sigma_1 + sin b2 cos b1 sigma_2 mixes range and complement with
    non-commuting periodic profiles.  The overlap with the undeformed section
    stays uniformly far from singular, so every chart and statistic is
    resolved on coarse grids; the trade-off is trivial topology.  Use
    vortex_interface when a nonzero transverse winding number is the point.
    """
    f = fam.calderon_section("left").frames()
    n = fam.rank
    s = float(strength)
    # an overflowing strength ends in the build's one error, not in warnings
    with np.errstate(over="ignore", invalid="ignore"):
        u = _su2_unitary(1.0, *_su2_exp(s * np.sin(fam._b1), s * (np.sin(fam._b2) * np.cos(fam._b1)), 0.0))
        top, bottom = f[..., :n, :], f[..., n:, :]
        rows = [u[..., i, 0, None, None] * top + u[..., i, 1, None, None] * bottom for i in (0, 1)]
    return ProjectionSection.build(fam.grid, np.concatenate(rows, axis=-2))


# -- truncated Fourier boundary family ----------------------------------------


# mode labels enter the seeds as j + _LABEL_OFFSET, which must stay >= 0
_LABEL_OFFSET = 8192


def _check_smoothing(truncation: int, gamma: float, seed: int) -> None:
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    if truncation > _LABEL_OFFSET:
        raise ValueError(f"truncation must be at most {_LABEL_OFFSET}")
    if not 0 < gamma < np.inf:
        raise ValueError("decay rate gamma must be positive and finite")
    if seed < 0:
        raise ValueError("seed must be non-negative")


# numpy's SeedSequence hash constants and PCG64's 128-bit multiplier (hi, lo)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_HI, _PCG_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)


def _seeded_uniforms(seed: int, j: np.ndarray, k: np.ndarray):
    """First two random() draws of numpy's generator seeded by [seed, j, k], per label pair.

    One pass over uint32/uint64 arrays.  SeedSequence hashes the entropy
    words (the seed's little-endian uint32 words, then j and k) into a pool
    of 4 and draws generate_state(4, uint64) from it; that seeds PCG64, a
    128-bit LCG kept as (hi, lo) uint64 halves; each draw is one LCG step,
    the XSL-RR output and random() = (raw >> 11) * 2**-53.
    """
    u32, u64 = np.uint32, np.uint64
    low = u64(0xFFFFFFFF)

    def hasher(const: int, mult: int):
        def hashmix(v):
            nonlocal const
            v = v ^ u32(const)
            const = const * mult & 0xFFFFFFFF
            v = v * u32(const)
            return v ^ (v >> u32(16))
        return hashmix

    def mix(x, y):
        r = _MIX_L * x - _MIX_R * y
        return r ^ (r >> u32(16))

    words = [seed >> s & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [np.full(j.shape, w, dtype=u32) for w in words] + [j.astype(u32), k.astype(u32)]
    hashmix = hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros(j.shape, u32)) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    hashmix = hasher(_INIT_B, _MULT_B)
    state = [hashmix(pool[i % 4]).astype(u64) for i in range(8)]
    s_hi, s_lo, q_hi, q_lo = (state[i] | state[i + 1] << u64(32) for i in range(0, 8, 2))
    inc_hi, inc_lo = q_hi << u64(1) | q_lo >> u64(63), q_lo << u64(1) | u64(1)

    def add(hi, lo, b_hi, b_lo):
        s = lo + b_lo
        return hi + b_hi + (s < lo), s

    def step(hi, lo):
        # state * MULT + inc mod 2**128; lo * MULT_lo is split into 32-bit halves
        a0, a1, b0, b1 = lo & low, lo >> u64(32), _PCG_LO & low, _PCG_LO >> u64(32)
        p01, p10 = a0 * b1, a1 * b0
        mid = (a0 * b0 >> u64(32)) + (p01 & low) + (p10 & low)
        carry = a1 * b1 + (p01 >> u64(32)) + (p10 >> u64(32)) + (mid >> u64(32))
        return add(carry + hi * _PCG_LO + lo * _PCG_HI, lo * _PCG_LO, inc_hi, inc_lo)

    # seeding: one step from state 0 gives inc; add the seed state, step again
    hi, lo = step(*add(inc_hi, inc_lo, s_hi, s_lo))
    draws = []
    for _ in range(2):
        hi, lo = step(hi, lo)
        x, rot = hi ^ lo, hi >> u64(58)
        raw = x >> rot | x << ((u64(64) - rot) & u64(63))
        draws.append((raw >> u64(11)).astype(np.float64) * 2.0**-53)
    return draws


def smoothing_perturbation(seed: int, gamma: float, truncation: int) -> np.ndarray:
    """Seeded Hermitian matrix with |S_jk| <= exp(-gamma (|j| + |k|)), read-only.

    Entries depend only on (seed, j, k) in absolute mode labels, so the
    matrices for two truncation sizes agree on their common block; that is
    what makes truncation-stability checks meaningful.  Entry j <= k takes
    the first two draws u1, u2 of numpy's default generator seeded by
    [seed, j + 8192, k + 8192]: amp (2 u1 - 1) on the diagonal and
    amp u1 exp(2 pi i u2) off it, with amp = exp(-gamma (|j| + |k|)).  One
    batched pass reproduces those SeedSequence and PCG64 streams bit for bit
    and seeds no generator; numpy's stream-compatibility policy (NEP 19)
    keeps the streams fixed.
    """
    _check_smoothing(truncation, gamma, seed)
    n, gamma, seed = int(truncation), float(gamma), int(seed)
    dim = 2 * n + 1
    row, col = np.triu_indices(dim)
    j, k = row - n, col - n
    u1, u2 = _seeded_uniforms(seed, j + _LABEL_OFFSET, k + _LABEL_OFFSET)
    amp = np.exp(-gamma * (np.abs(j) + np.abs(k)))
    c = amp * u1 * np.exp(2j * np.pi * u2)
    out = np.zeros((dim, dim), dtype=complex)
    out[row, col] = c
    out[col, row] = np.conj(c)
    # the diagonal last: conj gave its zero imaginary parts a minus sign
    on = row == col
    np.fill_diagonal(out, amp[on] * (2.0 * u1[on] - 1.0))
    return _readonly(out)


class CylinderFamily:
    """Truncated boundary family diag(k) + smoothing perturbation over a torus.

    style="conjugated" rotates diag(k) by exp(i S(b)) with S(b) built from two
    seeded smoothing matrices and periodic profile functions; the spectrum is
    then exactly the integers, the kernel has constant rank one, and the
    non-negative spectral section has the closed form exp(iS) P0 exp(-iS).
    style="additive" adds the perturbation directly, zeroed on the k=0 row
    and column so the kernel survives.
    """

    def __init__(self, grid: BaseGrid, truncation: int, gamma: float = 0.6,
                 seed: int = 0, amplitude: float = 1.0, style: str = "conjugated"):
        _check_smoothing(truncation, gamma, seed)
        if style not in ("conjugated", "additive"):
            raise ValueError("style must be 'conjugated' or 'additive'")
        if not np.isfinite(amplitude):
            raise ValueError("amplitude must be finite")
        grid.require_torus()
        self.grid = grid
        self.truncation = int(truncation)
        self.gamma = float(gamma)
        self.seed = int(seed)
        self.amplitude = float(amplitude)
        self.style = style
        self.modes = np.arange(-truncation, truncation + 1)
        self._b1, self._b2 = grid.coords()

    def _phase_matrix(self, scale: float, seed: int) -> np.ndarray:
        """S(b) = scale (cos b1 S_seed + sin b2 S_seed+1) from seeded smoothing matrices."""
        s1 = smoothing_perturbation(seed, self.gamma, self.truncation)
        s2 = smoothing_perturbation(seed + 1, self.gamma, self.truncation)
        f1 = scale * np.cos(self._b1)
        f2 = scale * np.sin(self._b2)
        return f1[..., None, None] * s1 + f2[..., None, None] * s2

    def boundary_operator_field(self) -> np.ndarray:
        """A_b = diag(k) + V_b over the grid."""
        d = np.diag(self.modes.astype(complex))
        if self.style == "conjugated":
            u = _expi(self._phase_matrix(self.amplitude, self.seed))
            return u @ d @ np.swapaxes(u.conj(), -1, -2)
        v = smoothing_perturbation(self.seed, self.gamma, self.truncation).copy()
        zero = self.truncation
        v[zero, :] = 0.0
        v[:, zero] = 0.0
        f = 0.35 * np.cos(self._b1) * np.cos(self._b2)
        return d + f[..., None, None] * v

    def aps_section(self) -> ProjectionSection:
        """Non-negative spectral projections of the boundary family.

        Raises DegenerateSpectrum when an eigenvalue violates the spectral
        gap condition below zero at some grid point, or when the rank of the
        non-negative subspace changes over the grid.
        """
        return self._aps

    @cached_property
    def _aps(self) -> ProjectionSection:
        return ProjectionSection.build(self.grid, spectral_frames(self.boundary_operator_field()))

    def conjugated_section(self, scale: float, seed_offset: int) -> ProjectionSection:
        """Closed-form section exp(i S(b)) P0 exp(-i S(b)) with P0 = diag(k >= 0);
        its frames are the columns of exp(i S(b)) for the modes k >= 0."""
        u = _expi(self._phase_matrix(scale, self.seed + seed_offset), self.truncation)
        return ProjectionSection.build(self.grid, u)

    def boundary_pair(self):
        """Compression pair mirroring the split-circle layout.

        The roles of the two Cauchy-data bundles are played by the spectral
        section and an independently rotated copy of it.
        """
        base = self.aps_section() if self.style == "additive" else self.conjugated_section(self.amplitude, 0)
        return base, self.conjugated_section(0.7 * self.amplitude, 2)
