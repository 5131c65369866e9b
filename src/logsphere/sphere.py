"""Geometry of the unit n-sphere in R^{n+1}: points, quadrature, integration.

Grids exist for n = 1 (uniform circle rule) and n = 2 (Gauss-Legendre in the
polar cosine times a uniform azimuth rule); closed-form quantities such as
surface areas work for every n >= 1.  A grid built with parameter `degree`
integrates all spherical polynomials of degree <= 2*degree exactly.
"""

from __future__ import annotations

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
    """Normalize coords onto the unit sphere (absorbs floating-point drift)."""
    v = np.asarray(coords, dtype=float)
    r = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(r < 1e-12):
        raise ValueError("cannot normalize a (near-)zero vector onto the sphere")
    return v / r


def chordal_distance(xi, eta) -> float | np.ndarray:
    """Euclidean distance in the ambient space; ranges over [0, 2]."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if xi.shape[-1] != eta.shape[-1]:
        raise ValueError(
            f"dimension mismatch: {xi.shape[-1]} vs {eta.shape[-1]} coordinates"
        )
    return np.linalg.norm(xi - eta, axis=-1)


@dataclass(eq=False)
class QuadratureGrid:
    """Nodes and surface-measure weights on S^n.

    For n = 2 the grid is a product rule and keeps its polar/azimuth factor
    structure so that harmonic transforms can run separably.  Instances are
    immutable by convention and hash by identity, which lets transform
    caches key on the grid object.
    """

    n: int
    degree: int
    nodes: np.ndarray  # (N, n+1), unit rows
    weights: np.ndarray  # (N,), positive, summing to |S^n|
    polar_t: np.ndarray | None = field(default=None, repr=False)
    polar_w: np.ndarray | None = field(default=None, repr=False)
    az_phi: np.ndarray | None = field(default=None, repr=False)
    thetas: np.ndarray | None = field(default=None, repr=False)

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]

    @property
    def exact_to(self) -> int:
        """Largest spherical-polynomial degree integrated exactly."""
        return 2 * self.degree

    def function(self, values) -> "GridFunction":
        return GridFunction(self, np.asarray(values, dtype=float))

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


def build_grid(n: int, degree: int) -> QuadratureGrid:
    """Quadrature rule on S^n exact for spherical polynomials <= 2*degree.

    n = 1: 2*(degree+1) equally weighted, half-step-offset circle nodes.
    n = 2: (degree+1) Gauss-Legendre polar nodes x (2*degree+1) uniform
    azimuth nodes.  The offsets keep nodes away from the poles and from the
    coordinate axes, so conformal-map poles never coincide with nodes.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if n == 1:
        count = 2 * (degree + 1)
        # phase keeps nodes off the coordinate semi-axes for every count, so
        # the stereographic pole (0, -1) is never a node
        thetas = 2.0 * math.pi * (np.arange(count) + 0.618033988749895) / count
        nodes = np.column_stack([np.cos(thetas), np.sin(thetas)])
        weights = np.full(count, 2.0 * math.pi / count)
        return QuadratureGrid(1, degree, nodes, weights, thetas=thetas)
    if n == 2:
        t, wt = np.polynomial.legendre.leggauss(degree + 1)
        m = 2 * degree + 1
        phi = 2.0 * math.pi * (np.arange(m) + 0.5) / m
        s = np.sqrt(1.0 - t * t)
        # outer index polar, inner azimuth
        x = np.outer(s, np.cos(phi)).ravel()
        y = np.outer(s, np.sin(phi)).ravel()
        z = np.outer(t, np.ones(m)).ravel()
        nodes = np.column_stack([x, y, z])
        weights = np.outer(wt, np.full(m, 2.0 * math.pi / m)).ravel()
        return QuadratureGrid(2, degree, nodes, weights, polar_t=t, polar_w=wt, az_phi=phi)
    raise ValueError(f"grids are implemented only for n in {{1, 2}}, got n={n}")


def integrate(grid: QuadratureGrid, f: GridFunction) -> float:
    """Sum of w_i f(xi_i); pairwise summation keeps the reduction deterministic."""
    if f.grid is not grid:
        raise ValueError("grid mismatch: function does not live on this grid")
    return float(np.sum(grid.weights * f.values))


def apply_radial_kernel(grid: QuadratureGrid, kernel, eps: float, X) -> np.ndarray:
    """K @ X for the radial kernel K_ij = kernel(|xi_i - xi_j|^2), with
    K_ij = 0 on the diagonal and wherever |xi_i - xi_j| < eps.

    On a product grid the chordal distance depends only on the two polar
    rings and the azimuth difference, so K is block-circulant in azimuth: a
    Fourier transform along azimuth turns K @ X into one ring-by-ring
    product per azimuthal frequency.  The kernel table has nt^2 (nphi/2 + 1)
    entries instead of the N^2 = nt^2 nphi^2 of a dense matrix, and each
    column of X costs O(nt^2 nphi).  The circle grid is the single-ring
    case, a plain circulant.
    `kernel` maps an array of squared distances to kernel values; it is
    called only on the retained pairs.  X has shape (N,) or (N, k).
    """
    if grid.n == 1:
        t, s, nphi = np.zeros(1), np.ones(1), grid.node_count
    elif grid.n == 2 and grid.polar_t is not None:
        t, nphi = grid.polar_t, grid.az_phi.size
        s = np.sqrt(1.0 - t * t)
    else:
        raise ValueError("radial kernels need a circle grid or an n = 2 product grid")
    X = np.asarray(X, dtype=float)
    if X.shape[0] != grid.node_count:
        raise ValueError(f"X has {X.shape[0]} rows, the grid {grid.node_count} nodes")
    nt, half = t.size, nphi // 2 + 1
    lags = np.arange(half)
    # squared chord from ring i at azimuth 0 to ring j at azimuth lag k, as a
    # sum of nonnegative terms so that near pairs do not cancel; lags past
    # nphi/2 repeat the distances of nphi - k
    rings = (t[:, None] - t[None, :]) ** 2 + (s[:, None] - s[None, :]) ** 2
    d2 = rings + 4.0 * np.outer(s, s) * np.sin(math.pi * lags / nphi)[:, None, None] ** 2
    keep = d2 >= eps * eps
    keep[0, np.arange(nt), np.arange(nt)] = False
    table = np.zeros_like(d2)
    table[keep] = kernel(d2[keep])
    # the DFT of an even lag row is a real cosine sum over its first half; a
    # small matrix does it many times faster than an FFT of the row, whose
    # length 2*degree + 1 is often prime
    fold = np.where((lags == 0) | (2 * lags == nphi), 1.0, 2.0)
    cos = np.cos(2.0 * math.pi * (np.outer(lags, lags) % nphi) / nphi) * fold
    khat = (cos @ table.reshape(half, -1)).reshape(half, nt, nt)  # (freq, ring i, ring j)
    xhat = np.fft.rfft(X.reshape(nt, nphi, -1), axis=1).transpose(1, 0, 2)  # (freq, ring j, col)
    yhat = khat @ xhat.real + 1j * (khat @ xhat.imag)
    return np.fft.irfft(yhat, n=nphi, axis=0).transpose(1, 0, 2).reshape(X.shape)


def north_pole(n: int) -> np.ndarray:
    e = np.zeros(n + 1)
    e[n] = 1.0
    return e


def south_pole(n: int) -> np.ndarray:
    return -north_pole(n)
