"""Conformal maps of S^n: stereographic lifts of planar inversions and
reflections, Moebius maps, Jacobians, pullbacks, and the comparison kernel.

Maps act on points given as rows of an (k, n+1) array (or a single 1-d
point).  Jacobians come from the chain rule on closed-form factors:

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

import math
from dataclasses import dataclass, field

import numpy as np

from .harmonics import analyze, as_evaluable
from .sphere import sphere_point

POLE_TOL = 1e-14


class PoleError(ValueError):
    """Input point coincides (within tolerance) with a pole of the map."""


def _as_rows(pts):
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        return pts[None, :], True
    return pts, False


def _unrows(vals, single):
    if single:
        return vals[0] if vals.ndim > 0 else vals
    return vals


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
    xp, single = _as_rows(x)
    return _unrows(_stereographic_columns(xp.T)[0].T, single)


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
    """A copy of v scaled to unit length.  A vector already unit to within
    a few ulp is kept bit for bit, so a map rebuilt from its JSON is the map
    that wrote it (normalizing again can move a component by an ulp)."""
    v = np.array(v, dtype=float)
    if abs(float(v @ v) - 1.0) <= 8.0 * np.finfo(float).eps:
        return v
    return sphere_point(v)


def inverse_stereographic(xi) -> np.ndarray:
    """Stereographic projection S^n minus south pole -> R^n."""
    pts, single = _as_rows(xi)
    x, _ = _planar_lift(pts, "stereographic projection")
    return _unrows(x.T, single)


@dataclass(frozen=True)
class LiftedInversion:
    """Stereographic lift of the inversion about the sphere of radius
    `lam` centered at the planar preimage of `xi0`."""

    lam: float
    xi0: np.ndarray
    x0: np.ndarray = field(init=False, repr=False)  # planar preimage of xi0

    def __post_init__(self):
        object.__setattr__(self, "xi0", _unit(self.xi0))
        if self.lam <= 0:
            raise ValueError(f"inversion radius must be positive, got {self.lam}")
        if 1.0 + self.xi0[-1] < 1e-12:
            raise ValueError("xi0 must differ from the south pole")
        object.__setattr__(self, "x0", inverse_stereographic(self.xi0))

    @property
    def n(self) -> int:
        return self.xi0.size - 1


@dataclass(frozen=True)
class LiftedReflection:
    """Stereographic lift of the reflection about the hyperplane
    {x . e = alpha} in the plane."""

    alpha: float
    e: np.ndarray

    def __post_init__(self):
        if np.linalg.norm(self.e) < 1e-12:
            raise ValueError("reflection normal must be a nonzero vector")
        object.__setattr__(self, "e", _unit(self.e))

    @property
    def n(self) -> int:
        return self.e.size


@dataclass(frozen=True)
class Moebius:
    """Moebius map of S^n with Jacobian (sqrt(1-|zeta|^2)/(1-zeta.xi))^n."""

    zeta: np.ndarray
    mu: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        zeta = np.asarray(self.zeta, dtype=float)
        z2 = float(np.dot(zeta, zeta))
        if z2 >= 1.0:
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


def map_with_jacobian(phi: ConformalMap, xi):
    """(apply_map(phi, xi), jacobian(phi, xi)), the same values bit for bit;
    a lifted inversion or reflection takes one planar step for both."""
    pts, single = _as_rows(xi)
    if isinstance(phi, (LiftedInversion, LiftedReflection)):
        image, jac = _lifted(phi, pts)
    elif isinstance(phi, Moebius):
        mu = phi.mu
        xm = pts - mu
        d2 = np.sum(xm * xm, axis=1, keepdims=True)
        image = sphere_point(((1.0 - float(np.dot(mu, mu))) * xm - d2 * mu) / d2)
        z2 = float(np.dot(phi.zeta, phi.zeta))
        jac = (math.sqrt(1.0 - z2) / (1.0 - pts @ phi.zeta)) ** phi.n
    else:
        raise TypeError(f"not a conformal map: {phi!r}")
    return _unrows(image, single), _unrows(jac, single)


def apply_map(phi: ConformalMap, xi) -> np.ndarray:
    """Image of point(s) under the map; result re-normalized onto the sphere."""
    return map_with_jacobian(phi, xi)[0]


def jacobian(phi: ConformalMap, xi) -> float | np.ndarray:
    """|det D phi| at point(s), by the chain rule on closed-form factors."""
    return map_with_jacobian(phi, xi)[1]


def inverse(phi: ConformalMap) -> ConformalMap:
    """Inverse map: inversions and reflections are involutions; the Moebius
    variant inverts by negating zeta."""
    if isinstance(phi, (LiftedInversion, LiftedReflection)):
        return phi
    if isinstance(phi, Moebius):
        return Moebius(-phi.zeta)
    raise TypeError(f"not a conformal map: {phi!r}")


def pullback(u, phi: ConformalMap):
    """L2-isometric pullback u_phi = J_phi^{1/2} (u o phi) as a callable."""

    def u_phi(pts):
        image, jac = map_with_jacobian(phi, pts)
        return np.sqrt(jac) * u(image)

    return u_phi


def map_to_json(phi: ConformalMap) -> dict:
    if isinstance(phi, LiftedInversion):
        return {"variant": "inversion", "lambda": phi.lam, "xi0": phi.xi0.tolist()}
    if isinstance(phi, LiftedReflection):
        return {"variant": "reflection", "alpha": phi.alpha, "e": phi.e.tolist()}
    if isinstance(phi, Moebius):
        return {"variant": "moebius", "zeta": phi.zeta.tolist()}
    raise TypeError(f"not a conformal map: {phi!r}")


def map_from_json(data: dict) -> ConformalMap:
    variant = data["variant"]
    if variant == "inversion":
        return LiftedInversion(float(data["lambda"]), np.asarray(data["xi0"], float))
    if variant == "reflection":
        return LiftedReflection(float(data["alpha"]), np.asarray(data["e"], float))
    if variant == "moebius":
        return Moebius(np.asarray(data["zeta"], float))
    raise ValueError(f"unknown map variant {variant!r}")


# ---------------------------------------------------------------------------
# the classified solution family and its planar form

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
        pts_, single = _as_rows(pts)
        vals = c * (root / (1.0 - pts_ @ zeta)) ** (0.5 * n)
        return _unrows(vals, single)

    return u


def zeta_to_bubble(zeta: np.ndarray) -> tuple[np.ndarray, float]:
    """Planar bubble parameters (a, b) matching the family member."""
    zeta = np.asarray(zeta, dtype=float)
    denom = 1.0 + zeta[-1]
    a = zeta[:-1] / denom
    b = math.sqrt(1.0 - float(np.dot(zeta, zeta))) / denom
    return a, b


def bubble_to_zeta(a: np.ndarray, b: float) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    s = float(np.dot(a, a)) + b * b
    return np.concatenate([2.0 * a, [1.0 - s]]) / (1.0 + s)


def pullback_to_plane(u, n: int):
    """Planar form v(x) = (2/(1+|x|^2))^{n/2} u(S(x))."""

    def v(x):
        xp, single = _as_rows(x)
        s2 = np.sum(xp * xp, axis=1)
        vals = (2.0 / (1.0 + s2)) ** (0.5 * n) * np.atleast_1d(u(stereographic(xp)))
        return _unrows(vals, single)

    return v


# ---------------------------------------------------------------------------
# comparison regions and the kernel of the difference estimate

@dataclass(frozen=True)
class SigmaRegion:
    """Stereographic image of the inversion ball B_lambda(x0) (or of the
    halfspace {x.e > alpha}); geometrically the spherical cap
    {xi . axis > cos_threshold}.  Membership tests use the planar definition,
    which is exact on constructed boundary points; the cap form drives
    sampling."""

    kind: str
    axis: np.ndarray
    cos_threshold: float
    lam: float | None = None
    x0: np.ndarray | None = None
    alpha: float | None = None
    e: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.axis.size - 1


def region_of(phi: ConformalMap) -> SigmaRegion:
    if isinstance(phi, LiftedInversion):
        x0, lam = phi.x0, phi.lam
        x0sq = float(np.dot(x0, x0))
        p = np.concatenate([2.0 * x0, [1.0 + lam * lam - x0sq]])
        scale = np.linalg.norm(p)
        return SigmaRegion("inversion", p / scale, (1.0 + x0sq - lam * lam) / scale,
                           lam=lam, x0=x0)
    if isinstance(phi, LiftedReflection):
        p = np.concatenate([phi.e, [-phi.alpha]])
        scale = np.linalg.norm(p)
        return SigmaRegion("reflection", p / scale, phi.alpha / scale,
                           alpha=phi.alpha, e=phi.e)
    raise ValueError("comparison regions exist for inversion and reflection maps only")


def in_sigma(region: SigmaRegion, xi) -> bool | np.ndarray:
    """Strict membership test; the boundary has measure zero."""
    pts, single = _as_rows(xi)
    x, _ = _planar_lift(pts, "membership test")
    # strict inequality with a few-ulp inward slack, so points constructed on
    # the boundary through the stereographic roundtrip classify as outside
    if region.kind == "inversion":
        res = np.sqrt(_col_sq(x - region.x0[:, None])) < region.lam * (1.0 - 1e-13)
    else:
        res = region.e @ x > region.alpha + 1e-13 * (1.0 + abs(region.alpha))
    return _unrows(res, single)


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
    sample, and fixed ones deform continuously with the region.
    """
    n = region.n
    c = region.cos_threshold
    frame = _orthonormal_frame(region.axis)
    if n == 1:
        beta = (2.0 * u - 1.0) * math.acos(max(-1.0, min(1.0, c)))
        return (
            np.cos(beta)[:, None] * region.axis[None, :]
            + np.sin(beta)[:, None] * frame[0][None, :]
        )
    if n == 2:
        t = c + (1.0 - c) * u
        s = np.sqrt(np.maximum(0.0, 1.0 - t * t))
        return (
            t[:, None] * region.axis[None, :]
            + (s * np.cos(phi))[:, None] * frame[0][None, :]
            + (s * np.sin(phi))[:, None] * frame[1][None, :]
        )
    raise ValueError(f"cap sampling supports n in {{1, 2}}, got n={n}")


def sample_region(region: SigmaRegion, count: int, rng: np.random.Generator) -> np.ndarray:
    """Surface-uniform sample of the cap (n = 1 or 2)."""
    u = rng.uniform(0.0, 1.0, count)
    phi = rng.uniform(0.0, 2.0 * math.pi, count) if region.n == 2 else None
    return cap_points(region, u, phi)


def grid_nodes_in(region: SigmaRegion, grid) -> np.ndarray:
    """Indices of grid nodes strictly inside the region."""
    return np.nonzero(grid.nodes @ region.axis > region.cos_threshold)[0]


def kernel_l(phi: ConformalMap, xi, eta) -> float | np.ndarray:
    """Difference kernel 1/|xi-eta|^n - J^{1/2}(eta)/|xi-phi(eta)|^n.

    Strictly positive when both arguments lie in the comparison region of an
    inversion or reflection map; no sign guarantee outside.
    """
    xis, single_a = _as_rows(xi)
    etas, single_b = _as_rows(eta)
    n = phi.n
    d2 = np.sum((xis - etas) ** 2, axis=1)
    if np.any(d2 < POLE_TOL):
        raise ValueError("kernel is singular at coincident points")
    image, jac = map_with_jacobian(phi, etas)
    jr = np.sqrt(jac)
    d2m = np.sum((xis - np.atleast_2d(image)) ** 2, axis=1)
    vals = d2 ** (-0.5 * n) - jr * d2m ** (-0.5 * n)
    return _unrows(vals, single_a and single_b)


def antisymmetry_defect(w, phi: ConformalMap, region: SigmaRegion,
                        points=None, grid=None) -> float:
    """max over region points of |w(eta) + J^{1/2}(eta) w(phi(eta))|.

    `w` may be a callable or a GridFunction (projected to its grid's band
    limit for off-grid evaluation).  Points default to the grid nodes inside
    the region.
    """
    if not callable(w):
        grid = w.grid
        w = as_evaluable(analyze(w, grid.degree))
    if points is None:
        if grid is None:
            raise ValueError("need explicit points or a grid to take nodes from")
        points = grid.nodes[grid_nodes_in(region, grid)]
    points = np.atleast_2d(points)
    if points.shape[0] == 0:
        raise ValueError("no evaluation points inside the region")
    mapped, jac = map_with_jacobian(phi, points)
    vals = np.atleast_1d(w(points)) + np.sqrt(jac) * np.atleast_1d(w(mapped))
    return float(np.abs(vals).max())
