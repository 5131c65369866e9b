"""Conformal maps of S^n: stereographic lifts of planar inversions and
reflections, Moebius maps, Jacobians, and the comparison kernel.

Points are the rows of a (k, n+1) array ((k, n) in the plane) and values are
arrays over the rows.  Inside, point sets are built and reduced as (n+1, k)
coordinate columns, one coordinate at a time, and rows are handed out as
transposed column blocks: with n + 1 <= 3 coordinates, work along the short
axis of the rows costs more than the arithmetic.  A dot product with the rows
is a sum over the coordinates in order (`_dot_rows`), so no value depends on
the rows' memory layout.  Jacobians come from the chain rule on closed-form
factors:

    J_{S}(x)      = (2/(1+|x|^2))^n          (inverse stereographic)
    J_{S^{-1}}(xi) = (1+xi_{n+1})^{-n}
    J_{I}(x)      = (lambda/|x-x_0|)^{2n}    (inversion)
    J_{R}(x)      = 1                        (reflection)

The Moebius variant is the boundary restriction of the ball transformation
T_mu with mu = zeta/(1+sqrt(1-|zeta|^2)); its Jacobian on the sphere is
(sqrt(1-|zeta|^2)/(1-zeta.xi))^n and T_mu^{-1} = T_{-mu}.  T_0 is the
identity, so the Moebius family is not involutive (unlike the lifted
inversions and reflections, which square to the identity).

A lifted inversion or reflection takes one pole-checked planar step
(`_planar_step`) on coordinate columns: lift to the plane, apply the planar
map.  The image on the sphere and the chain-rule Jacobian both come from
that step and from one |y|^2, so `apply_map`, `jacobian` and
`map_with_jacobian` return the same values bit for bit.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .sphere import sphere_point

POLE_TOL = 1e-14


class PoleError(ValueError):
    """Input point coincides (within tolerance) with a pole of the map."""


def _rows(pts) -> np.ndarray:
    """`pts` as a float array of rows; anything but a 2-d array is refused."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2:
        raise ValueError(f"points must be the rows of a 2-d array, got shape {pts.shape}")
    return pts


def _dot_rows(pts: np.ndarray, v: np.ndarray) -> np.ndarray:
    """pts @ v for rows pts, summed over the coordinates in order, so its
    bits do not depend on the rows' memory layout, as a matrix product's do."""
    out = pts[:, 0] * v[0]
    for k in range(1, v.size):
        out += pts[:, k] * v[k]
    return out


def _col_sq(a: np.ndarray) -> np.ndarray:
    """Squared norm of each column of a (coordinates along axis 0)."""
    out = a[0] * a[0]
    for row in a[1:]:
        out += row * row
    return out


def _stereographic_columns(y: np.ndarray):
    """Inverse stereographic projection of coordinate columns y (shape
    (n, k)): the image columns (shape (n+1, k)) and 1 + |y|^2."""
    s2 = _col_sq(y)
    s2p1 = 1.0 + s2
    image = np.empty((y.shape[0] + 1, s2.size))
    np.divide(2.0 * y, s2p1, out=image[:-1])
    np.divide(1.0 - s2, s2p1, out=image[-1])
    return image, s2p1


def stereographic(x) -> np.ndarray:
    """Inverse stereographic projection R^n -> S^n minus the south pole."""
    return _stereographic_columns(_rows(x).T)[0].T


def _planar_lift(pts: np.ndarray, what: str):
    """Stereographic preimages x = xi'/(1 + xi_{n+1}) of unit rows, as
    coordinate columns (shape (n, k)), and the denominators 1 + xi_{n+1}.

    Below the equator the denominator is formed as |xi'|^2/(1 - xi_{n+1}),
    which equals it on the sphere and does not cancel near the south pole.
    """
    cols = np.ascontiguousarray(pts.T)
    last, head = cols[-1], cols[:-1]
    far = 1.0 + np.abs(last)  # 1 + xi_{n+1} above the equator, 1 - xi_{n+1} below
    denom = np.where(last < 0.0, _col_sq(head) / far, far)
    if np.any(denom < POLE_TOL):
        raise PoleError(f"{what} is singular at (or too close to) the south pole")
    return head / denom, denom


def _unit(v) -> np.ndarray:
    """The finite v scaled to unit length."""
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"map geometry must be finite, got {v.tolist()}")
    return sphere_point(v)


def inverse_stereographic(xi) -> np.ndarray:
    """Stereographic projection S^n minus south pole -> R^n."""
    x, _ = _planar_lift(_rows(xi), "stereographic projection")
    return x.T


def _check_radius(lam: float):
    if not 0 < lam < math.inf:
        raise ValueError(f"inversion radius must be positive and finite, got {lam}")


def _check_offset(alpha: float):
    if not math.isfinite(alpha):
        raise ValueError(f"reflection offset must be finite, got {alpha}")


@dataclass(frozen=True)
class LiftedInversion:
    """Stereographic lift of the inversion about the sphere of radius
    `lam` centered at the planar preimage of `xi0`."""

    lam: float
    xi0: np.ndarray
    x0: np.ndarray = field(init=False, repr=False)  # planar preimage of xi0

    def __post_init__(self):
        object.__setattr__(self, "xi0", _unit(self.xi0))
        _check_radius(self.lam)
        if 1.0 + self.xi0[-1] < 1e-12:
            raise ValueError("xi0 must differ from the south pole")
        object.__setattr__(self, "x0", inverse_stereographic(self.xi0[None])[0])

    @property
    def n(self) -> int:
        return self.xi0.size - 1

    def at_scale(self, lam: float) -> "LiftedInversion":
        """The inversion of radius `lam` about the same centre, sharing this
        one's xi0 and x0 rather than deriving them again."""
        _check_radius(lam)
        other = copy.copy(self)
        object.__setattr__(other, "lam", lam)
        return other


@dataclass(frozen=True)
class LiftedReflection:
    """Stereographic lift of the reflection about the hyperplane
    {x . e = alpha} in the plane."""

    alpha: float
    e: np.ndarray

    def __post_init__(self):
        _check_offset(self.alpha)
        with np.errstate(over="ignore"):  # an overflowing norm is not small
            small = np.linalg.norm(self.e) < 1e-12
        if small:
            raise ValueError("reflection normal must be a nonzero vector")
        object.__setattr__(self, "e", _unit(self.e))

    @property
    def n(self) -> int:
        return self.e.size

    def at_scale(self, alpha: float) -> "LiftedReflection":
        """The reflection at offset `alpha` along the same normal, sharing
        this one's unit e rather than normalizing it again."""
        _check_offset(alpha)
        other = copy.copy(self)
        object.__setattr__(other, "alpha", alpha)
        return other


@dataclass(frozen=True)
class Moebius:
    """Moebius map of S^n with Jacobian (sqrt(1-|zeta|^2)/(1-zeta.xi))^n."""

    zeta: np.ndarray
    mu: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        zeta = np.asarray(self.zeta, dtype=float)
        z2 = float(np.dot(zeta, zeta))
        if not z2 < 1.0:  # NaN too
            raise ValueError(f"|zeta| must be < 1, got |zeta|={math.sqrt(z2)}")
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "mu", zeta / (1.0 + math.sqrt(1.0 - z2)))

    @property
    def n(self) -> int:
        return self.zeta.size - 1


ConformalMap = LiftedInversion | LiftedReflection | Moebius


def _planar_step(phi: LiftedInversion | LiftedReflection, pts):
    """Planar image y (coordinate columns, shape (n, k)) of the stereographic
    preimages of the rows of `pts` under a lifted inversion or reflection,
    the planar Jacobian there, and the denominators 1 + xi_{n+1}."""
    if isinstance(phi, LiftedInversion):
        d, denom = _planar_lift(pts, "lifted inversion")
        x0 = phi.x0[:, None]
        d -= x0
        d2 = _col_sq(d)
        if np.any(d2 < POLE_TOL * POLE_TOL):
            raise PoleError("lifted inversion is singular at xi0")
        # y = lam^2 (x - x0) / |x - x0|^2 + x0, in place
        d *= phi.lam**2
        d /= d2
        d += x0
        return d, (phi.lam**2 / d2) ** phi.n, denom
    x, denom = _planar_lift(pts, "lifted reflection")
    return x + 2.0 * (phi.alpha - phi.e @ x) * phi.e[:, None], 1.0, denom


def _lifted(phi: LiftedInversion | LiftedReflection, pts):
    """Image rows and Jacobian of a lifted inversion or reflection, from one
    `_planar_step`: the image is the inverse stereographic projection of y,
    renormalized onto the sphere, and the Jacobian is the chain-rule product
    J_S(y) * J_plane(x) * J_{S^{-1}}(xi) = (2 / ((1 + |y|^2) denom))^n J_plane;
    both use the one |y|^2."""
    y, jac_plane, denom = _planar_step(phi, pts)
    image, s2p1 = _stereographic_columns(y)
    image /= np.sqrt(_col_sq(image))
    return image.T, (2.0 / (s2p1 * denom)) ** phi.n * jac_plane


def map_with_jacobian(phi: ConformalMap, xi) -> tuple[np.ndarray, np.ndarray]:
    """(apply_map(phi, xi), jacobian(phi, xi)), the same values bit for bit;
    a lifted inversion or reflection takes one planar step for both."""
    pts = _rows(xi)
    if isinstance(phi, (LiftedInversion, LiftedReflection)):
        image, jac = _lifted(phi, pts)
    elif isinstance(phi, Moebius):
        mu = phi.mu[:, None]
        xm = np.ascontiguousarray(pts.T) - mu
        d2 = _col_sq(xm)
        image = ((1.0 - float(np.dot(phi.mu, phi.mu))) * xm - d2 * mu) / d2
        image = sphere_point(image.T)
        z2 = float(np.dot(phi.zeta, phi.zeta))
        jac = (math.sqrt(1.0 - z2) / (1.0 - _dot_rows(pts, phi.zeta))) ** phi.n
    else:
        raise TypeError(f"not a conformal map: {phi!r}")
    return image, jac


def apply_map(phi: ConformalMap, xi) -> np.ndarray:
    """Images of the rows under the map, re-normalized onto the sphere."""
    return map_with_jacobian(phi, xi)[0]


def jacobian(phi: ConformalMap, xi) -> np.ndarray:
    """|det D phi| at the rows, by the chain rule on closed-form factors."""
    return map_with_jacobian(phi, xi)[1]


# ---------------------------------------------------------------------------
# the classified solution family

@dataclass(frozen=True)
class ExtremizerParams:
    zeta: np.ndarray
    c: float = 1.0

    def __post_init__(self):
        zeta = np.asarray(self.zeta, dtype=float)
        if np.dot(zeta, zeta) >= 1.0:
            raise ValueError("|zeta| must be < 1")
        if self.c < 0:
            raise ValueError(f"amplitude must be nonnegative, got c={self.c}")
        object.__setattr__(self, "zeta", zeta)

    @property
    def n(self) -> int:
        return self.zeta.size - 1


def extremizer(p: ExtremizerParams):
    """The family member omega -> c (sqrt(1-|zeta|^2)/(1-zeta.omega))^{n/2}."""
    zeta, c, n = p.zeta, p.c, p.n
    root = math.sqrt(1.0 - float(np.dot(zeta, zeta)))

    def u(pts):
        return c * (root / (1.0 - _dot_rows(_rows(pts), zeta))) ** (0.5 * n)

    return u


# ---------------------------------------------------------------------------
# comparison regions and the kernel of the difference estimate

@dataclass(frozen=True)
class SigmaRegion:
    """The spherical cap {xi . axis > cos_threshold}: the stereographic image
    of the inversion ball B_lambda(x0), or of the halfspace {x.e > alpha}."""

    axis: np.ndarray
    cos_threshold: float

    @property
    def n(self) -> int:
        return self.axis.size - 1


def region_of(phi: ConformalMap) -> SigmaRegion:
    """The comparison cap; one that overflows double precision is refused."""
    if isinstance(phi, LiftedInversion):
        x0, lam = phi.x0, phi.lam
        x0sq = float(np.dot(x0, x0))
        p, c = np.concatenate([2.0 * x0, [1.0 + lam * lam - x0sq]]), 1.0 + x0sq - lam * lam
    elif isinstance(phi, LiftedReflection):
        p, c = np.concatenate([phi.e, [-phi.alpha]]), phi.alpha
    else:
        raise ValueError("comparison regions exist for inversion and reflection maps only")
    with np.errstate(over="ignore"):
        scale = np.linalg.norm(p)
    if not math.isfinite(scale):
        raise ValueError("the comparison region is not finite in double precision")
    return SigmaRegion(p / scale, c / scale)


def _orthonormal_frame(axis: np.ndarray) -> np.ndarray:
    """Rows: vectors completing `axis` to an orthonormal basis."""
    d = axis.size
    frame = []
    for k in range(d):
        v = np.zeros(d)
        v[k] = 1.0
        v = v - (v @ axis) * axis
        for w in frame:
            v = v - (v @ w) * w
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            frame.append(v / norm)
        if len(frame) == d - 1:
            break
    return np.array(frame)


def cap_points(region: SigmaRegion, u: np.ndarray, phi: np.ndarray | None = None) -> np.ndarray:
    """Points of the cap from variates u in [0, 1] (n = 1 or 2).

    For n = 1 the signed angle from the axis is (2u - 1) times the cap's
    half-width; for n = 2 the height along the axis is c + (1 - c) u and
    `phi` is the azimuth about it.  Uniform variates give a surface-uniform
    sample, and fixed ones deform continuously with the region.  The rows
    are the transpose of (n + 1, k) columns.
    """
    n = region.n
    c = region.cos_threshold
    frame = _orthonormal_frame(region.axis)
    if n == 1:
        beta = (2.0 * u - 1.0) * math.acos(max(-1.0, min(1.0, c)))
        cols = np.outer(region.axis, np.cos(beta))
        cols += np.outer(frame[0], np.sin(beta))
        return cols.T
    if n == 2:
        t = c + (1.0 - c) * u
        s = np.sqrt(np.maximum(0.0, 1.0 - t * t))
        cols = np.outer(region.axis, t)
        cols += np.outer(frame[0], s * np.cos(phi))
        cols += np.outer(frame[1], s * np.sin(phi))
        return cols.T
    raise ValueError(f"cap sampling supports n in {{1, 2}}, got n={n}")


def sample_region(region: SigmaRegion, count: int, rng: np.random.Generator) -> np.ndarray:
    """Surface-uniform sample of the cap (n = 1 or 2)."""
    u = rng.uniform(0.0, 1.0, count)
    phi = rng.uniform(0.0, 2.0 * math.pi, count) if region.n == 2 else None
    return cap_points(region, u, phi)


def kernel_l(phi: ConformalMap, xi, eta) -> np.ndarray:
    """Difference kernel 1/|xi-eta|^n - J^{1/2}(eta)/|xi-phi(eta)|^n, row by row.

    Strictly positive when both arguments lie in the comparison region of an
    inversion or reflection map; no sign guarantee outside.
    """
    xis, etas = _rows(xi), _rows(eta)
    n = phi.n
    d2 = _col_sq(xis.T - etas.T)
    if np.any(d2 < POLE_TOL):
        raise ValueError("kernel is singular at coincident points")
    image, jac = map_with_jacobian(phi, etas)
    jr = np.sqrt(jac)
    d2m = _col_sq(xis.T - image.T)
    return d2 ** (-0.5 * n) - jr * d2m ** (-0.5 * n)


def antisymmetry_defect(w, phi: ConformalMap, points) -> float:
    """max over the points of |w(eta) + J^{1/2}(eta) w(phi(eta))|.

    `w` is a callable rows -> values; the points are typically a sample of
    the comparison region (`sample_region`).
    """
    points = _rows(points)
    if points.shape[0] == 0:
        raise ValueError("no evaluation points")
    mapped, jac = map_with_jacobian(phi, points)
    vals = w(points) + np.sqrt(jac) * w(mapped)
    return float(np.abs(vals).max())
