"""Geometry of the unit n-sphere in R^{n+1}: points, quadrature, integration.

Grids exist for n = 1 (one ring) and n = 2 (Gauss-Legendre rings in the polar
cosine), each ring a uniform azimuth rule; closed-form quantities such as
surface areas work for every n >= 1.  A grid built with parameter `degree`
integrates all spherical polynomials of degree <= 2*degree exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .specfun import ln_gamma


def sphere_area(n: int) -> float:
    """Surface measure of S^n, equal to 2 pi^{(n+1)/2} / Gamma((n+1)/2)."""
    if n < 1:
        raise ValueError(f"invalid sphere dimension n={n}")
    return 2.0 * math.exp(0.5 * (n + 1) * math.log(math.pi) - ln_gamma(0.5 * (n + 1)))


def sphere_point(coords) -> np.ndarray:
    """Normalize coords onto the unit sphere (absorbs floating-point drift).
    A finite row whose norm overflows is first divided by its largest
    magnitude; every other row keeps the bits of v / |v|."""
    v = np.asarray(coords, dtype=float)
    with np.errstate(over="ignore"):  # an overflowing norm is rescaled below
        r = np.linalg.norm(v, axis=-1, keepdims=True)
    huge = np.isinf(r) & np.isfinite(v).all(axis=-1, keepdims=True)
    if huge.any():
        v = v / np.where(huge, np.abs(v).max(axis=-1, keepdims=True), 1.0)
        r = np.where(huge, np.linalg.norm(v, axis=-1, keepdims=True), r)
    if np.any(r < 1e-12):
        raise ValueError("cannot normalize a (near-)zero vector onto the sphere")
    return v / r


@dataclass(eq=False)
class QuadratureGrid:
    """Nodes and surface-measure weights on S^n: polar rings (cosines
    `polar_t`, weights `polar_w`) times one uniform azimuth rule (`az_phi`),
    polar index outer, so transforms and kernel products run separably.  The
    circle is the one ring t = 0 of weight 1.  A grid holds only these
    factors; `nodes` and `weights` are formed from them on first read and
    kept, so a grid that is only analyzed on and synthesized on never forms
    them.  Instances are immutable by convention and hash by identity, which
    lets transform caches key on the grid object.
    """

    n: int
    degree: int
    polar_t: np.ndarray = field(repr=False)
    polar_w: np.ndarray = field(repr=False)
    az_phi: np.ndarray = field(repr=False)

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """(N, n+1) unit rows, polar index outer, azimuth inner."""
        s = np.sqrt(1.0 - self.polar_t * self.polar_t)
        x = np.outer(s, np.cos(self.az_phi)).ravel()
        y = np.outer(s, np.sin(self.az_phi)).ravel()
        z = np.outer(self.polar_t, np.ones(self.az_phi.size)).ravel()
        return np.column_stack([x, y, z][:self.n + 1])

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """(N,) positive weights summing to |S^n|, in the order of `nodes`."""
        nphi = self.az_phi.size
        return np.outer(self.polar_w, np.full(nphi, 2.0 * math.pi / nphi)).ravel()

    @property
    def node_count(self) -> int:
        return self.polar_t.size * self.az_phi.size

    @property
    def exact_to(self) -> int:
        """Largest spherical-polynomial degree integrated exactly."""
        return 2 * self.degree

    def sample(self, f) -> "GridFunction":
        """Sample a callable pts -> values at the grid nodes."""
        return GridFunction(self, np.asarray(f(self.nodes), dtype=float))


@dataclass(eq=False)
class GridFunction:
    grid: QuadratureGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.node_count,):
            raise ValueError(
                f"values length {self.values.shape} does not match "
                f"node count {self.grid.node_count}"
            )


def grid_shape(n: int, degree: int) -> tuple[int, int]:
    """(polar rings, azimuths) of `build_grid(n, degree)`."""
    if n == 1:
        return 1, 2 * (degree + 1)
    if n == 2:
        return degree + 1, 2 * degree + 1
    raise ValueError(f"grids are implemented only for n in {{1, 2}}, got n={n}")


@functools.lru_cache(maxsize=16)
def _gauss_legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Legendre nodes and weights of `count` points on [-1, 1],
    built once per count, as read-only arrays: a rule of 129 nodes takes
    milliseconds, and the grids of one degree share it."""
    rule = np.polynomial.legendre.leggauss(count)
    for array in rule:
        array.flags.writeable = False
    return rule


def build_grid(n: int, degree: int) -> QuadratureGrid:
    """Quadrature rule on S^n exact for spherical polynomials <= 2*degree.

    n = 1: one ring of 2*(degree+1) equally weighted azimuths.
    n = 2: (degree+1) Gauss-Legendre polar nodes x (2*degree+1) uniform
    azimuth nodes.  No node is at either pole, so the stereographic pole
    (0, 0, -1) is never a node; other points of the coordinate axes can be
    (at even degrees the equator ring holds -e1).  On the circle the golden
    phase keeps nodes off the coordinate semi-axes.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    nt, nphi = grid_shape(n, degree)
    t, wt = _gauss_legendre(nt) if n == 2 else (np.zeros(1), np.ones(1))
    # on the circle this phase keeps nodes off the coordinate semi-axes for
    # every count, so the stereographic pole (0, -1) is never a node
    phase = 0.5 if n == 2 else 0.618033988749895
    phi = 2.0 * math.pi * (np.arange(nphi) + phase) / nphi
    return QuadratureGrid(n, degree, polar_t=t, polar_w=wt, az_phi=phi)


def integrate(grid: QuadratureGrid, f: GridFunction) -> float:
    """Sum of w_i f(xi_i); pairwise summation keeps the reduction deterministic."""
    if f.grid is not grid:
        raise ValueError("grid mismatch: function does not live on this grid")
    return float(np.sum(grid.weights * f.values))


def min_internode_distance(grid: QuadratureGrid) -> float:
    """Smallest chordal gap between distinct nodes: along the smallest ring,
    or between neighbouring rings."""
    t = grid.polar_t
    s = np.sqrt(1.0 - t * t)
    ring = 2.0 * s * math.sin(math.pi / grid.az_phi.size)
    polar = 2.0 * np.sin(np.diff(np.sort(np.arccos(t))) / 2.0)
    return float(np.concatenate([ring, polar]).min())


def apply_radial_kernel(grid: QuadratureGrid, power: float, eps: float, X) -> np.ndarray:
    """K @ X for the radial kernel K_ij = |xi_i - xi_j|^(-2 power), with
    K_ij = 0 on the diagonal and wherever |xi_i - xi_j| < eps.

    The chordal distance depends only on the two polar rings and the
    azimuth difference, so K is block-circulant in azimuth: a Fourier
    transform along azimuth turns K @ X into one ring-by-ring product per
    azimuthal frequency.  The kernel table has nt^2 (nphi/2 + 1) entries
    instead of the N^2 = nt^2 nphi^2 of a dense matrix, and each column of
    X costs O(nt^2 nphi); on the one-ring circle grid K is a plain
    circulant.  The table is built in one buffer, squared chords first and
    kernel values in place.  X has shape (N,) or (N, k).
    """
    X = np.asarray(X, dtype=float)
    if X.shape[0] != grid.node_count:
        raise ValueError(f"X has {X.shape[0]} rows, the grid {grid.node_count} nodes")
    t, nphi = grid.polar_t, grid.az_phi.size
    s = np.sqrt(1.0 - t * t)
    nt, half = t.size, nphi // 2 + 1
    lags = np.arange(half)
    # squared chord from ring i at azimuth 0 to ring j at azimuth lag k, as a
    # sum of nonnegative terms so that near pairs do not cancel; lags past
    # nphi/2 repeat the distances of nphi - k
    table = np.multiply(4.0 * np.outer(s, s),
                        np.sin(math.pi * lags / nphi)[:, None, None] ** 2)
    table += (t[:, None] - t[None, :]) ** 2 + (s[:, None] - s[None, :]) ** 2
    cut = table < eps * eps
    cut[0, np.arange(nt), np.arange(nt)] = True
    np.power(table, -power, out=table, where=~cut)
    table[cut] = 0.0
    del cut  # the table and its transform are the only large arrays alive at once
    # the DFT of an even lag row is a real cosine sum over its first half; a
    # small matrix does it many times faster than an FFT of the row, whose
    # length 2*degree + 1 is often prime
    fold = np.where((lags == 0) | (2 * lags == nphi), 1.0, 2.0)
    cos = np.cos(2.0 * math.pi * (np.outer(lags, lags) % nphi) / nphi) * fold
    khat = (cos @ table.reshape(half, -1)).reshape(half, nt, nt)  # (freq, ring i, ring j)
    del table
    xhat = np.fft.rfft(X.reshape(nt, nphi, -1), axis=1).transpose(1, 0, 2)  # (freq, ring j, col)
    yhat = khat @ xhat.real + 1j * (khat @ xhat.imag)
    return np.fft.irfft(yhat, n=nphi, axis=0).transpose(1, 0, 2).reshape(X.shape)


def weighted_kernel_products(grid: QuadratureGrid, power: float, eps: float,
                             V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K w, K (w V)) for the kernel K of `apply_radial_kernel`, the grid
    weights w and the columns of V.  A cutoff below twice the minimum node
    gap is refused: the near-diagonal part of a pair sum is unresolved."""
    if eps < 2.0 * min_internode_distance(grid):
        raise ValueError(
            f"eps={eps} below twice the minimum internode distance; "
            "the near-diagonal sum would be unresolved"
        )
    w = grid.weights
    KX = apply_radial_kernel(grid, power, eps, np.column_stack([w, w[:, None] * V]))
    return KX[:, 0], KX[:, 1:]


def north_pole(n: int) -> np.ndarray:
    e = np.zeros(n + 1)
    e[n] = 1.0
    return e
