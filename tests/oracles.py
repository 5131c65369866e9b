"""Reference code the tests compare the package against: the slot of one
(l, m) label in the coefficient vector, the normalized Legendre table one
recurrence step per (l, m), the orthonormal harmonics one label at a time,
the planar membership test of a comparison region, the planar (bubble) form
of the classified family, the critical scale of the moving-spheres probe
by plain bisection and by the scalar Brent zeroin, the conformal layer's
inverse map, and its cap points, difference kernel and Moebius images
computed on rows of points, with the `kernel_sign` suite's loop over them
and the residual of the kernel gap's factorization,
the deficit's entropy pass out of place, one `np.where`, a grid's nodes and
weights formed eagerly from its factors, and the probe's statistics on a
map built afresh for each scale value, the random initial state scaled on
a synthesis, and the L2-isometric pullback as a callable, with the
conformal identity residuals formed through it and the energy identity's
correction formed on the image side through phi^{-1}.
"""

from __future__ import annotations

import math

import numpy as np

from logsphere.conformal import (
    POLE_TOL,
    ConformalMap,
    LiftedInversion,
    LiftedReflection,
    Moebius,
    _orthonormal_frame,
    inverse_stereographic,
    jacobian,
    kernel_l,
    map_with_jacobian,
    region_of,
    stereographic,
)
from logsphere.dynamics import _CapProbe
from logsphere.energy import _projected, constant_Cn, default_entropy_grid, energy_spectral
from logsphere.harmonics import (HarmonicCoeffs, apply_H, as_evaluable, degree_of_index,
                                 h_multiplier_table, random_coeffs, synthesize)
from logsphere.specfun import assoc_legendre_norm, legendre_row
from logsphere.sphere import QuadratureGrid, sphere_area, sphere_point


def flat_index(n: int, l: int, m: int) -> int:
    """Position of (l, m) in the flat coefficient vector, one label at a
    time: (0, 0), then (l, +1), (l, -1) for each l on the circle, and
    (l, -l), ..., (l, l) for each l on S^2."""
    if n == 1:
        if l == 0:
            if m != 0:
                raise ValueError("l=0 has only m=0 on the circle")
            return 0
        if m == 1:
            return 2 * l - 1
        if m == -1:
            return 2 * l
        raise ValueError(f"invalid circle label m={m} (use +1 cos, -1 sin)")
    if n == 2:
        if abs(m) > l:
            raise ValueError(f"|m| <= l required, got (l={l}, m={m})")
        return l * l + (m + l)
    raise ValueError(f"unsupported dimension n={n}")


def coeff(c: HarmonicCoeffs, l: int, m: int) -> float:
    """The coefficient of Y_{l,m} in c."""
    return float(c.coeffs[flat_index(c.n, l, m)])


def loop_assoc_legendre_norm(L, t, s=None):
    """Reference table: one scalar recurrence step per (l, m), upward in l.
    `s` is sin(theta) at each node, sqrt((1 - t)(1 + t)) unless given: near
    a pole a point's |(x, y)| holds it more precisely than its t does."""
    t = np.asarray(t, dtype=float)
    if s is None:
        s = np.sqrt(np.maximum(0.0, (1.0 - t) * (1.0 + t)))
    tab = np.zeros(((L + 1) * (L + 2) // 2, t.size))
    diag = 1.0 / math.sqrt(4.0 * math.pi)
    smp = np.ones_like(t)
    for m in range(L + 1):
        tab[legendre_row(L, m, m)] = diag * smp
        if m < L:
            smp = smp * s
            diag *= math.sqrt((2.0 * m + 3.0) / (2.0 * m + 2.0))
    for m in range(L + 1):
        if m + 1 <= L:
            a = math.sqrt(2.0 * m + 3.0)
            tab[legendre_row(L, m + 1, m)] = a * t * tab[legendre_row(L, m, m)]
        for l in range(m + 2, L + 1):
            a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = math.sqrt(
                (2.0 * l + 1.0) * ((l - 1.0) ** 2 - m * m)
                / ((2.0 * l - 3.0) * (l * l - m * m))
            )
            tab[legendre_row(L, l, m)] = (
                a * t * tab[legendre_row(L, l - 1, m)] - b * tab[legendre_row(L, l - 2, m)]
            )
    return tab


def zonal_basis(n: int, l: int, m: int, xi: np.ndarray) -> float | np.ndarray:
    """Real orthonormal harmonic Y_{l,m} at point(s) xi on S^n, n in {1, 2}.

    Circle labels: m = 0 for l = 0; m = +1 the cosine branch and m = -1 the
    sine branch for l >= 1.  Sphere labels: -l <= m <= l with m > 0 cosine,
    m < 0 sine.
    """
    xi = np.asarray(xi, dtype=float)
    single = xi.ndim == 1
    pts = xi[None, :] if single else xi
    if n == 1:
        if pts.shape[-1] != 2:
            raise ValueError("points on the circle must have 2 coordinates")
        if l < 0 or (l == 0 and m != 0) or (l > 0 and m not in (-1, 1)):
            raise ValueError(f"invalid circle harmonic index (l={l}, m={m})")
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        if l == 0:
            vals = np.full(theta.shape, 1.0 / math.sqrt(2.0 * math.pi))
        elif m == 1:
            vals = np.cos(l * theta) / math.sqrt(math.pi)
        else:
            vals = np.sin(l * theta) / math.sqrt(math.pi)
    elif n == 2:
        if pts.shape[-1] != 3:
            raise ValueError("points on the 2-sphere must have 3 coordinates")
        if l < 0 or abs(m) > l:
            raise ValueError(f"invalid sphere harmonic index (l={l}, m={m})")
        t = np.clip(pts[:, 2], -1.0, 1.0)
        phi = np.arctan2(pts[:, 1], pts[:, 0])
        leg = assoc_legendre_norm(l, t)[legendre_row(l, l, abs(m))]
        if m == 0:
            vals = leg
        elif m > 0:
            vals = math.sqrt(2.0) * leg * np.cos(m * phi)
        else:
            vals = math.sqrt(2.0) * leg * np.sin(-m * phi)
    else:
        raise ValueError(f"basis evaluation supports n in {{1, 2}}, got n={n}")
    return float(vals[0]) if single else vals


def in_sigma(phi, xi) -> np.ndarray:
    """Strict membership of the rows of xi in the comparison region of a
    lifted inversion (the planar ball |x - x0| < lam) or reflection (the
    halfspace x.e > alpha), tested on the stereographic preimages x.

    A few-ulp inward slack makes points constructed on the boundary through
    the stereographic round trip classify as outside; the south pole has no
    preimage and raises PoleError.
    """
    x = inverse_stereographic(xi)
    if isinstance(phi, LiftedInversion):
        return np.linalg.norm(x - phi.x0, axis=1) < phi.lam * (1.0 - 1e-13)
    return x @ phi.e > phi.alpha + 1e-13 * (1.0 + abs(phi.alpha))


def zeta_to_bubble(zeta: np.ndarray) -> tuple[np.ndarray, float]:
    """Planar bubble parameters (a, b) matching the family member of zeta."""
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
    """Planar form v(x) = (2/(1+|x|^2))^{n/2} u(S(x)) of u, for rows x."""

    def v(x):
        x = np.asarray(x, dtype=float)
        s2 = np.sum(x * x, axis=-1)
        return (2.0 / (1.0 + s2)) ** (0.5 * n) * u(stereographic(x))

    return v


def first_failing_step(u, xi0, e, tol: float, rng: np.random.Generator):
    """The probe, the threshold and the ends (last clean value, first
    failing value) of the first failing step of the fixed scan that
    `critical_lambda` (pass xi0) or `critical_alpha` (pass e) runs.  It
    draws the probe's nodes and the threshold's points from `rng` in the
    package's order, so a generator seeded alike gives the same min w at
    every value.  The scan must change sign after its first value."""
    probe = _CapProbe(u, xi0, e, rng)
    pts = rng.standard_normal((4096, probe.n + 1))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    threshold = -tol * float(np.abs(u(pts)).max())
    scan = np.geomspace(0.02, 50.0, 32) if xi0 is not None else np.linspace(6.0, -6.0, 32)
    k = next(i for i, v in enumerate(scan)
             if probe.measure(float(v))[0].stats[0] < threshold)
    assert k > 0, "the comparison fails at the safe end of the scan"
    return probe, threshold, float(scan[k - 1]), float(scan[k])


def bisection_critical(u, xi0, e, tol: float, rng: np.random.Generator) -> float:
    """The critical radius (pass xi0) or offset (pass e) by 48 bisection
    steps of the first failing step of the fixed scan: geometric means of
    radii, arithmetic means of offsets."""
    probe, threshold, good, bad = first_failing_step(u, xi0, e, tol, rng)
    if xi0 is not None:
        mean = lambda a, b: math.sqrt(a * b)
    else:
        mean = lambda a, b: 0.5 * (a + b)
    for _ in range(48):
        mid = mean(good, bad)
        if probe.measure(mid)[0].stats[0] < threshold:
            bad = mid
        else:
            good = mid
    return mean(good, bad)


def brent_zeroin(f, a: float, b: float, fa: float, fb: float, xtol: float) -> float:
    """A zero of the scalar f between a and b, given f(a) = fa and f(b) = fb
    of opposite signs (or one of them zero), to within xtol + 4 eps |x|: the
    Dekker-Brent "zeroin" (R. P. Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4).  Each step evaluates f once, inside the
    bracket, by inverse quadratic or linear interpolation when that shrinks
    the bracket fast enough, and by bisection otherwise.
    """
    c, fc = a, fa
    d = e = b - a
    while True:
        if fb * fc > 0:  # keep the zero between b and c
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):  # b is the best estimate
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * math.ulp(1.0) * abs(b) + 0.5 * xtol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # linear interpolation
                p, q = 2.0 * xm * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = f(b)


def brent_critical(u, xi0, e, tol: float, rng: np.random.Generator) -> float:
    """The critical radius (pass xi0) or offset (pass e) by the scalar
    `brent_zeroin` on min w - threshold, in ln lambda or alpha, over the
    first failing step of the fixed scan, to 1e-15 + 4 eps |x|."""
    probe, threshold, good, bad = first_failing_step(u, xi0, e, tol, rng)
    to_x, from_x = (math.log, math.exp) if xi0 is not None else (float, float)
    excess = lambda value: probe.measure(value)[0].stats[0] - threshold
    x = brent_zeroin(lambda x: excess(from_x(x)), to_x(good), to_x(bad), excess(good),
                     excess(bad), 1e-15)
    return from_x(x)


# The conformal layer on rows of points: each coordinate of a point is a
# broadcast along the short axis, and each squared chord a sum along it.

def row_cap_points(region, u, phi=None) -> np.ndarray:
    """Points of the cap from variates u (and azimuths phi on S^2), row by row."""
    n, c = region.n, region.cos_threshold
    frame = _orthonormal_frame(region.axis)
    if n == 1:
        beta = (2.0 * u - 1.0) * math.acos(max(-1.0, min(1.0, c)))
        return (
            np.cos(beta)[:, None] * region.axis[None, :]
            + np.sin(beta)[:, None] * frame[0][None, :]
        )
    t = c + (1.0 - c) * u
    s = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    return (
        t[:, None] * region.axis[None, :]
        + (s * np.cos(phi))[:, None] * frame[0][None, :]
        + (s * np.sin(phi))[:, None] * frame[1][None, :]
    )


def inverse(phi: ConformalMap) -> ConformalMap:
    """Inverse map: inversions and reflections are involutions; the Moebius
    variant inverts by negating zeta."""
    if isinstance(phi, (LiftedInversion, LiftedReflection)):
        return phi
    if isinstance(phi, Moebius):
        return Moebius(-phi.zeta)
    raise TypeError(f"not a conformal map: {phi!r}")


def row_moebius_map_with_jacobian(phi: Moebius, pts) -> tuple[np.ndarray, np.ndarray]:
    """Images and Jacobian of a Moebius map at the rows of pts."""
    pts = np.asarray(pts, dtype=float)
    mu = phi.mu
    xm = pts - mu
    d2 = np.sum(xm * xm, axis=1, keepdims=True)
    image = sphere_point(((1.0 - float(np.dot(mu, mu))) * xm - d2 * mu) / d2)
    z2 = float(np.dot(phi.zeta, phi.zeta))
    # zeta . xi summed over the coordinates in order, as `map_with_jacobian` does
    dot = pts[:, 0] * phi.zeta[0]
    for k in range(1, phi.zeta.size):
        dot += pts[:, k] * phi.zeta[k]
    jac = (math.sqrt(1.0 - z2) / (1.0 - dot)) ** phi.n
    return image, jac


def row_map_with_jacobian(phi, pts) -> tuple[np.ndarray, np.ndarray]:
    """Images and Jacobian at the rows, a Moebius map's by its row oracle."""
    return (row_moebius_map_with_jacobian(phi, pts) if isinstance(phi, Moebius)
            else map_with_jacobian(phi, pts))


def row_kernel_l(phi, xis, etas) -> tuple[np.ndarray, np.ndarray]:
    """1/|xi-eta|^n - J^{1/2}(eta)/|xi-phi(eta)|^n and the gap
    J^{-1/n}(eta)|xi-phi(eta)|^2 - |xi-eta|^2, row by row."""
    xis, etas = np.asarray(xis, dtype=float), np.asarray(etas, dtype=float)
    n = phi.n
    d2 = np.sum((xis - etas) ** 2, axis=1)
    if np.any(d2 < POLE_TOL):
        raise ValueError("kernel is singular at coincident points")
    image, jac = row_map_with_jacobian(phi, etas)
    d2m = np.sum((xis - image) ** 2, axis=1)
    return d2 ** (-0.5 * n) - np.sqrt(jac) * d2m ** (-0.5 * n), jac ** (-1.0 / n) * d2m - d2


def pair_kernel_l(phi, xis, etas) -> tuple[np.ndarray, np.ndarray]:
    """`row_kernel_l` at every pair of rows, on the repeated xis and the
    tiled etas, as (len(xis), len(etas)) arrays.  A point's image does not
    depend on the rows mapped with it, so the tiled etas map to the bits
    that `kernel_l`'s one pass over the etas gives."""
    xis, etas = np.asarray(xis, dtype=float), np.asarray(etas, dtype=float)
    k1, k2 = len(xis), len(etas)
    vals, gap = row_kernel_l(phi, np.repeat(xis, k2, axis=0), np.tile(etas, (k1, 1)))
    return vals.reshape(k1, k2), gap.reshape(k1, k2)


def factorization_residual(phi, xis, etas) -> float:
    """max |gap - kappa g(xi) g(eta)| / (1 + max |gap|) over every pair of
    rows, from `kernel_l`'s gap, g(xi) = xi.axis - c and kappa = 4/(1 - c^2)
    of `region_of(phi)`."""
    region = region_of(phi)
    c = region.cos_threshold
    gap = kernel_l(phi, xis, etas)[1]
    want = 4.0 / (1.0 - c * c) * np.outer(xis @ region.axis - c, etas @ region.axis - c)
    return float(np.abs(gap - want).max() / (1.0 + np.abs(gap).max()))


def kernel_sign_loop(n: int, rng: np.random.Generator):
    """The `kernel_sign` suite's (metric, details) from the row oracles: 20
    rounds of an inversion and a reflection, every pair of two 50-point cap
    samples each, drawn from `rng` in the suite's order."""

    def sample(region, count):
        u = rng.uniform(0.0, 1.0, count)
        az = rng.uniform(0.0, 2.0 * math.pi, count) if n == 2 else None
        return row_cap_points(region, u, az)

    violations, pairs, worst, residual, min_kappa = 0, 0, math.inf, 0.0, math.inf
    for _ in range(20):
        xi0 = rng.standard_normal(n + 1)
        if 1.0 + sphere_point(xi0)[-1] < 0.2:
            xi0 = -xi0
        inversion = LiftedInversion(float(rng.uniform(0.3, 2.0)), xi0)
        reflection = LiftedReflection(float(rng.uniform(-1.0, 1.0)), rng.standard_normal(n))
        for phi in (inversion, reflection):
            region = region_of(phi)
            pts = sample(region, 100)
            a, b = pts[:50], pts[50:]
            d2 = np.sum((np.repeat(a, 50, axis=0) - np.tile(b, (50, 1))) ** 2, axis=1)
            b = b[d2.reshape(50, 50).min(axis=0) > 1e-12]
            vals, gap = pair_kernel_l(phi, a, b)
            c = region.cos_threshold
            kappa = 4.0 / (1.0 - c * c)
            ga, gb = (np.sum(p * region.axis, axis=1) - c for p in (a, b))
            want = np.repeat(kappa * ga, len(b)).reshape(vals.shape) * gb
            residual = max(residual, float(np.abs(gap - want).max() / (1.0 + np.abs(gap).max())))
            pairs += vals.size
            violations += int(np.sum(vals <= 0.0))
            worst = min(worst, float(vals.min()))
            min_kappa = min(min_kappa, kappa)
    return violations, {"pairs": pairs, "min_kernel": worst,
                        "identity_residual": residual, "min_kappa": min_kappa}


def where_entropy_log_factor(usq: np.ndarray, norm_sq: float, area: float) -> np.ndarray:
    """ln(u^2 |S^n| / ||u||^2) where u^2 > 0, else 0 (NaN nodes too), in one
    out-of-place `np.where`."""
    with np.errstate(divide="ignore", invalid="ignore"):  # the nodes it drops
        return np.where(usq > 0.0, np.log(usq) + math.log(area / norm_sq), 0.0)


def where_deficit_terms(u: HarmonicCoeffs, grid: QuadratureGrid,
                        vals: np.ndarray) -> tuple[tuple[float, float, float], np.ndarray]:
    """The energy term, entropy term and deficit of u, and the density
    u ln(u^2 |S^n| / ||u||^2), from u's node values `vals` on `grid`, each
    product a new array."""
    c = u.coeffs
    usq = vals * vals
    logfac = where_entropy_log_factor(usq, u.norm_sq(), sphere_area(u.n))
    energy_term = 2.0 * float(np.sum(h_multiplier_table(u.n, u.L) * c * c))
    entropy_term = constant_Cn(u.n) * float(np.sum(grid.weights * usq * logfac))
    return (energy_term, entropy_term, energy_term - entropy_term), vals * logfac


def eager_nodes_and_weights(grid: QuadratureGrid) -> tuple[np.ndarray, np.ndarray]:
    """The nodes and weights of `grid` formed at once from its polar rings
    and azimuth rule, polar index outer, by the formulas `build_grid` rests
    on."""
    t, wt, phi = grid.polar_t, grid.polar_w, grid.az_phi
    nphi = phi.size
    s = np.sqrt(1.0 - t * t)
    x = np.outer(s, np.cos(phi)).ravel()
    y = np.outer(s, np.sin(phi)).ravel()
    z = np.outer(t, np.ones(nphi)).ravel()
    nodes = np.column_stack([x, y, z][:grid.n + 1])
    weights = np.outer(wt, np.full(nphi, 2.0 * math.pi / nphi)).ravel()
    return nodes, weights


def fresh_map_stats(probe: _CapProbe, value: float) -> tuple[float, float, float]:
    """(min w, sup |w|, defect) of `probe.measure(value, defect=True)` on
    the probe's template, with the map built afresh from the probe's centre
    or normal, `LiftedInversion(value, xi0)` or `LiftedReflection(value, e)`,
    rather than from its base map."""
    phi = (LiftedInversion(value, probe.center) if probe.direction is None
           else LiftedReflection(value, probe.direction))
    p = probe._pass(value, phi, probe.template)
    return p.stats + (probe._defect(p),)


def synthesized_random_init(n: int, L: int, rng: np.random.Generator,
                            amplitude: float) -> HarmonicCoeffs:
    """`random_positive_init` with its perturbation synthesized on the
    transform tables of a fresh entropy grid of (n, L), the route of a
    caller that passes its grid."""
    pert = random_coeffs(n, L, rng, decay=1.5).coeffs
    pert[degree_of_index(n, L) == 0] = 0.0
    probe = synthesize(HarmonicCoeffs(n, L, pert), default_entropy_grid(n, L)).values
    u = HarmonicCoeffs.constant(n, L, 1.0)
    u.coeffs += pert * (amplitude / max(np.abs(probe).max(), 1e-12))
    return u


def pullback(u, phi: ConformalMap):
    """L2-isometric pullback u_phi = J_phi^{1/2} (u o phi) as a callable;
    each call maps its points afresh."""

    def u_phi(pts):
        image, jac = map_with_jacobian(phi, pts)
        return np.sqrt(jac) * u(image)

    return u_phi


def _conf_E_pullbacks(u: HarmonicCoeffs, v: HarmonicCoeffs, phi: Moebius,
                      grid: QuadratureGrid):
    """The node values of u's and v's `pullback` closures sampled on the
    grid, and their projections to band limit grid.degree, both tails
    checked."""
    samples = [grid.sample(pullback(as_evaluable(x), phi)).values for x in (u, v)]
    return samples, [_projected(grid, f) for f in samples]


def pullback_conf_E(u: HarmonicCoeffs, v: HarmonicCoeffs, phi: Moebius,
                    grid: QuadratureGrid) -> float:
    """`verify_conf_E`'s residual with each pullback a `pullback` closure
    sampled on the grid and ln J_phi from a map pass of its own: three map
    passes."""
    (u_vals, v_vals), (u_pb, v_pb) = _conf_E_pullbacks(u, v, phi, grid)
    log_j = np.log(jacobian(phi, grid.nodes))
    correction = constant_Cn(u.n) * float(np.sum(grid.weights * u_vals * v_vals * 0.5 * log_j))
    return abs(energy_spectral(u_pb, v_pb) - (energy_spectral(u, v) + correction))


def inverse_pass_conf_E(u: HarmonicCoeffs, v: HarmonicCoeffs, phi: Moebius,
                        grid: QuadratureGrid) -> float:
    """The energy identity's residual with its correction on the image side,
    C_n int u v ln J_{phi^{-1}}^{-1/2}: u and v synthesized at the grid's
    band limit, and a map pass of phi^{-1}."""
    _, (u_pb, v_pb) = _conf_E_pullbacks(u, v, phi, grid)
    uv = (synthesize(u.with_band_limit(grid.degree), grid).values
          * synthesize(v.with_band_limit(grid.degree), grid).values)
    log_jinv = np.log(jacobian(inverse(phi), grid.nodes))
    correction = constant_Cn(u.n) * float(np.sum(grid.weights * uv * (-0.5) * log_jinv))
    return abs(energy_spectral(u_pb, v_pb) - (energy_spectral(u, v) + correction))


def pullback_conf_H(u: HarmonicCoeffs, phi: Moebius, grid: QuadratureGrid) -> float:
    """`verify_conf_H`'s residual in three map passes: the pullbacks of u
    and of Hu as `pullback` closures, and the Jacobian on its own."""
    u_pb_vals = grid.sample(pullback(as_evaluable(u), phi))
    lhs = synthesize(apply_H(_projected(grid, u_pb_vals.values)), grid).values
    hu_pb = pullback(as_evaluable(apply_H(u)), phi)(grid.nodes)
    log_j = 0.5 * np.log(jacobian(phi, grid.nodes))
    rhs = hu_pb + constant_Cn(u.n) * u_pb_vals.values * log_j
    return float(np.abs(lhs - rhs).max())
