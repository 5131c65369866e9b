"""Deficit-minimizing flow, extremizer fitting, and the moving-spheres
diagnostic that locates the critical inversion scale (or reflection offset)
of a candidate solution.

The flow is projected gradient descent on the deficit over the sphere
||u||_2 = const in coefficient space, with a backtracking line search, so
the recorded deficit sequence is nonincreasing by construction.  The
moving-spheres probe evaluates w = u_Phi - u on sample nodes of the
comparison cap; the sample templates deform continuously with the scale
parameter, which keeps the bisection predicate stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import conformal as cf
from .energy import constant_Cn, default_entropy_grid
from .harmonics import (
    HarmonicCoeffs,
    analyze,
    as_evaluable,
    degree_of_index,
    flat_index,
    h_multiplier_table,
    harmonic_count,
    harmonic_indices,
    random_coeffs,
    synthesize,
)
from .sphere import GridFunction, QuadratureGrid, sphere_area

DEFAULT_SAMPLES = 2048


# ---------------------------------------------------------------------------
# deficit flow

@dataclass
class FlowConfig:
    step_size: float = 0.05
    max_iter: int = 2000
    stop_tol: float = 1e-13  # stop once a step decreases the deficit less than this
    band_limit: int = 16
    norm_value: float | None = None  # None: keep the initial L2 norm

    def __post_init__(self):
        # the chained comparisons are false for NaN and infinities too
        if not (0 < self.step_size < math.inf and self.max_iter > 0
                and 0 < self.stop_tol < math.inf):
            raise ValueError("flow parameters must be positive and finite")
        if self.band_limit < 1:
            raise ValueError("band limit must be >= 1")
        if self.norm_value is not None and not 0 < self.norm_value < math.inf:
            raise ValueError("norm constraint must be positive and finite")


@dataclass
class FlowResult:
    coeffs: HarmonicCoeffs
    deficits: list[float]
    iterations: int
    converged: bool
    message: str

    @property
    def final_deficit(self) -> float:
        return self.deficits[-1]

    def to_json_dict(self) -> dict:
        return {
            "n": self.coeffs.n,
            "L": self.coeffs.L,
            "iterations": self.iterations,
            "converged": self.converged,
            "message": self.message,
            "deficits": [float(d) for d in self.deficits],
            "final_deficit": float(self.final_deficit),
        }


def _deficit_parts(coefs: np.ndarray, n: int, L: int, grid: QuadratureGrid,
                   hvec: np.ndarray, area: float, cn: float):
    c = HarmonicCoeffs(n, L, coefs)
    vals = synthesize(c, grid).values
    norm_sq = float(np.dot(coefs, coefs))
    usq = vals * vals
    logfac = np.where(
        usq > 0.0,
        np.log(np.maximum(usq, 1e-300)) + math.log(area / norm_sq),
        0.0,
    )
    deficit = 2.0 * float(np.sum(hvec * coefs * coefs)) - cn * float(
        np.sum(grid.weights * usq * logfac)
    )
    grad_entropy = 2.0 * cn * analyze(GridFunction(grid, vals * logfac), L).coeffs
    grad = 4.0 * hvec * coefs - grad_entropy
    return deficit, grad


def deficit_gradient(u: HarmonicCoeffs, grid: QuadratureGrid | None = None) -> np.ndarray:
    """Gradient of the (unconstrained) deficit in coefficient space."""
    if grid is None:
        grid = default_entropy_grid(u.n, u.L)
    hvec = h_multiplier_table(u.n, u.L).values[degree_of_index(u.n, u.L)]
    _, grad = _deficit_parts(
        u.coeffs, u.n, u.L, grid, hvec, sphere_area(u.n), constant_Cn(u.n)
    )
    return grad


def deficit_value(u: HarmonicCoeffs, grid: QuadratureGrid | None = None) -> float:
    if grid is None:
        grid = default_entropy_grid(u.n, u.L)
    hvec = h_multiplier_table(u.n, u.L).values[degree_of_index(u.n, u.L)]
    d, _ = _deficit_parts(
        u.coeffs, u.n, u.L, grid, hvec, sphere_area(u.n), constant_Cn(u.n)
    )
    return d


def minimize_deficit(init: HarmonicCoeffs, cfg: FlowConfig,
                     grid: QuadratureGrid | None = None) -> FlowResult:
    """Projected gradient descent on the deficit over ||u||_2 = const."""
    if not np.any(init.coeffs):
        raise ValueError("flow needs a nonzero initial state")
    n, L = init.n, cfg.band_limit
    if L != init.L:
        # re-truncate or pad the initial coefficients to the working band
        vec = np.zeros(harmonic_count(n, L))
        for (l, m) in harmonic_indices(n, min(L, init.L)):
            vec[flat_index(n, l, m)] = init.get(l, m)
        init = HarmonicCoeffs(n, L, vec)
    if grid is None:
        grid = default_entropy_grid(n, L)
    hvec = h_multiplier_table(n, L).values[degree_of_index(n, L)]
    area, cn = sphere_area(n), constant_Cn(n)

    target = cfg.norm_value if cfg.norm_value is not None else math.sqrt(init.norm_sq())
    c = init.coeffs * (target / math.sqrt(init.norm_sq()))
    deficit, grad = _deficit_parts(c, n, L, grid, hvec, area, cn)
    deficits = [deficit]
    step = cfg.step_size
    converged, message = False, "max iterations reached"
    it = 0
    for it in range(1, cfg.max_iter + 1):
        tangent = grad - (np.dot(grad, c) / np.dot(c, c)) * c
        gnorm = float(np.linalg.norm(tangent))
        if gnorm < 1e-13:
            converged, message = True, "gradient below resolution"
            break
        accepted = False
        for _ in range(50):
            cand = c - step * tangent
            cand *= target / np.linalg.norm(cand)
            d_new, g_new = _deficit_parts(cand, n, L, grid, hvec, area, cn)
            if d_new <= deficit - 1e-4 * step * gnorm * gnorm:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            converged, message = False, "line search stalled: deficit no longer decreases"
            break
        decrease = deficit - d_new
        c, deficit, grad = cand, d_new, g_new
        deficits.append(deficit)
        step *= 1.3
        if decrease < cfg.stop_tol:
            converged, message = True, "deficit decrease below stop tolerance"
            break
    return FlowResult(HarmonicCoeffs(n, L, c), deficits, it, converged, message)


def random_positive_init(n: int, L: int, rng: np.random.Generator,
                         amplitude: float = 0.2) -> HarmonicCoeffs:
    """Constant plus a band-limited perturbation kept safely positive."""
    pert = random_coeffs(n, L, rng, decay=1.5).coeffs
    pert[0] = 0.0
    grid = default_entropy_grid(n, L)
    probe = synthesize(HarmonicCoeffs(n, L, pert), grid).values
    scale = amplitude / max(np.abs(probe).max(), 1e-12)
    vec = pert * scale
    vec[0] = math.sqrt(sphere_area(n))
    return HarmonicCoeffs(n, L, vec)


# ---------------------------------------------------------------------------
# extremizer fitting (Gauss-Newton over (zeta, c) with zeta = tanh(rho) e)

_TANH_CAP = 8.0  # keeps |zeta| < 1 strictly even after tanh saturates


def _zeta_of_vector(v: np.ndarray) -> np.ndarray:
    r = float(np.linalg.norm(v))
    if r < 1e-12:
        return v.copy()
    return v * (math.tanh(min(r, _TANH_CAP)) / r)


@dataclass
class FitResult:
    params: cf.ExtremizerParams
    residual: float
    converged: bool
    iterations: int
    message: str
    in_family: bool = field(init=False)

    def __post_init__(self):
        zeta_norm = float(np.linalg.norm(self.params.zeta))
        self.in_family = self.residual <= 1e-2 and zeta_norm <= 0.9

    def to_json_dict(self) -> dict:
        return {
            "zeta": self.params.zeta.tolist(),
            "c": self.params.c,
            "residual": self.residual,
            "converged": self.converged,
            "iterations": self.iterations,
            "in_family": self.in_family,
            "message": self.message,
        }


def fit_extremizer(u: HarmonicCoeffs, grid: QuadratureGrid | None = None,
                   max_iter: int = 60) -> FitResult:
    """Least-squares fit of the family c (sqrt(1-|z|^2)/(1-z.w))^{n/2}.

    Initialization: amplitude from the mean, direction from the degree-1
    coefficient vector (zeta = 0 when the degree-1 energy is negligible).
    The residual is the relative L2 misfit on the working grid.
    """
    if not np.any(u.coeffs):
        raise ValueError("cannot fit the zero function")
    n, L = u.n, u.L
    if grid is None:
        grid = default_entropy_grid(n, L)
    u_vals = synthesize(u, grid).values
    area = sphere_area(n)
    norm = math.sqrt(float(np.sum(grid.weights * u_vals**2)))
    sqrt_w = np.sqrt(grid.weights)

    def resid(p):
        zeta = _zeta_of_vector(p[:-1])
        root = math.sqrt(max(1.0 - float(np.dot(zeta, zeta)), 1e-300))
        with np.errstate(all="ignore"):
            model = p[-1] * (root / (1.0 - grid.nodes @ zeta)) ** (0.5 * n)
            r = sqrt_w * (u_vals - model) / norm
        return np.where(np.isfinite(r), r, 1e6)

    c0 = u.get(0, 0) / math.sqrt(area)
    if c0 <= 0:
        c0 = norm / math.sqrt(area)
    if n == 2:
        d1 = np.array([u.get(1, 1), u.get(1, -1), u.get(1, 0)])
    else:
        d1 = np.array([u.get(1, 1), u.get(1, -1)])
    v0 = np.zeros(n + 1)
    d1_energy = float(np.dot(d1, d1))
    if d1_energy >= 1e-14:
        kappa = math.sqrt(area / (n + 1))
        zeta0 = min(0.8, float(np.linalg.norm(d1)) * 2.0 / (n * abs(c0) * kappa))
        v0 = math.atanh(zeta0) * d1 / np.linalg.norm(d1)
    p = np.concatenate([v0, [c0]])

    r = resid(p)
    converged, message = False, "max iterations reached"
    it = 0
    for it in range(1, max_iter + 1):
        J = np.empty((r.size, p.size))
        h = 1e-6
        for k in range(p.size):
            e = np.zeros_like(p)
            e[k] = h
            J[:, k] = (resid(p + e) - resid(p - e)) / (2.0 * h)
        A = J.T @ J + 1e-12 * np.eye(p.size)
        delta = np.linalg.solve(A, -J.T @ r)
        lam, improved = 1.0, False
        for _ in range(25):
            p_try = p + lam * delta
            r_try = resid(p_try)
            if np.linalg.norm(r_try) < np.linalg.norm(r):
                improved = True
                break
            lam *= 0.4
        if not improved:
            converged, message = True, "no further improvement"
            break
        moved = float(np.linalg.norm(p_try - p))
        p, r = p_try, r_try
        if moved < 1e-13:
            converged, message = True, "step below resolution"
            break
    zeta = _zeta_of_vector(p[:-1])
    residual = float(np.linalg.norm(r))
    if float(np.linalg.norm(zeta)) > 0.9:
        converged = False
        message = (
            "fitted |zeta| exceeds 0.9; the family member is under-resolved "
            f"at band limit L={L}, increase L"
        )
    params = cf.ExtremizerParams(zeta, max(float(p[-1]), 0.0))
    return FitResult(params, residual, converged, it, message)


# ---------------------------------------------------------------------------
# moving-spheres diagnostics

@dataclass
class MovingSphereReport:
    kind: str  # "inversion" or "reflection"
    n: int
    center: np.ndarray | None  # xi0 for inversions
    direction: np.ndarray | None  # e for reflections
    values: np.ndarray  # scanned lambda (or alpha) values, increasing
    min_w: np.ndarray
    sup_abs_w: np.ndarray
    defect: np.ndarray
    critical: float | None = None
    sup_w_at_critical: float | None = None
    critical_is_bound: bool = False
    samples: int = DEFAULT_SAMPLES

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if np.any(np.diff(self.values) <= 0):
            raise ValueError("scan values must be strictly increasing")
        if not (np.all(np.isfinite(self.min_w)) and np.all(np.isfinite(self.sup_abs_w))):
            raise ValueError("non-finite comparison minima in the report")

    @property
    def parameter_name(self) -> str:
        return "lambda" if self.kind == "inversion" else "alpha"

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "center": None if self.center is None else self.center.tolist(),
            "direction": None if self.direction is None else self.direction.tolist(),
            "parameter": self.parameter_name,
            "values": self.values.tolist(),
            "min_w": self.min_w.tolist(),
            "sup_abs_w": self.sup_abs_w.tolist(),
            "defect": self.defect.tolist(),
            "critical": self.critical,
            "sup_w_at_critical": self.sup_w_at_critical,
            "critical_is_bound": self.critical_is_bound,
            "samples": self.samples,
        }

    def csv_rows(self) -> list[tuple]:
        head = (self.parameter_name, "min_w", "sup_abs_w", "defect")
        rows = [head]
        rows += [
            (float(v), float(a), float(b), float(d))
            for v, a, b, d in zip(self.values, self.min_w, self.sup_abs_w, self.defect)
        ]
        return rows


def _map_for(kind: str, center, direction, value: float) -> cf.ConformalMap:
    if kind == "inversion":
        return cf.LiftedInversion(value, center)
    return cf.LiftedReflection(value, direction)


class _CapProbe:
    """w = u_Phi - u over one map family, on sample nodes from a template that
    deforms continuously with the scale parameter: half planar-ball nodes
    (inversions only), half cap nodes.

    A value whose map has a pole at a node is retried once on a fresh
    template from the probe's generator; other values keep the first one.
    The bisection needs only min w, which skips the second map pass of the
    antisymmetry defect, so a pole that only that pass would hit is not
    retried there.
    """

    def __init__(self, u, kind: str, center, direction, samples: int,
                 rng: np.random.Generator):
        if isinstance(u, HarmonicCoeffs):
            u = as_evaluable(u)
        elif not callable(u):
            raise TypeError("u must be callable on points or a HarmonicCoeffs")
        self.u, self.kind, self.center, self.direction = u, kind, center, direction
        self.n = (center.size - 1) if kind == "inversion" else direction.size
        self.samples, self.rng = samples, rng
        self.template = self._draw_template()

    def _draw_template(self):
        half, n, rng = max(self.samples // 2, 8), self.n, self.rng
        # planar ball template (used by the inversion variant)
        ball_dirs = rng.standard_normal((half, n))
        ball_dirs /= np.linalg.norm(ball_dirs, axis=1, keepdims=True)
        ball_radii = np.maximum(rng.uniform(0.0, 1.0, half) ** (1.0 / n), 1e-6)
        # cap template in the frame of the cap axis
        cap_u = rng.uniform(0.0, 1.0, half)
        cap_phi = rng.uniform(0.0, 2.0 * math.pi, half)
        return ball_dirs, ball_radii, cap_u, cap_phi

    def _w(self, phi: cf.ConformalMap, template):
        """w at the template's nodes, with J^{1/2}, the images and u there."""
        ball_dirs, ball_radii, cap_u, cap_phi = template
        pts = cf.cap_points(cf.region_of(phi), cap_u, cap_phi)
        if isinstance(phi, cf.LiftedInversion):
            x = phi.x0 + phi.lam * ball_radii[:, None] * ball_dirs
            pts = np.vstack([pts, np.atleast_2d(cf.stereographic(x))])
        mapped, jac = cf.map_with_jacobian(phi, pts)
        jr, mapped = np.sqrt(jac), np.atleast_2d(mapped)
        # one evaluation of u for the images and the nodes together
        both = np.atleast_1d(self.u(np.vstack([mapped, pts])))
        u_mapped = both[:len(mapped)]
        w = jr * u_mapped - both[len(mapped):]
        return w, jr, mapped, u_mapped

    def _stats(self, phi: cf.ConformalMap, template) -> tuple[float, float, float]:
        w, jr, mapped, u_mapped = self._w(phi, template)
        back, jac_m = cf.map_with_jacobian(phi, mapped)
        w_m = np.sqrt(jac_m) * np.atleast_1d(self.u(np.atleast_2d(back))) - u_mapped
        defect = float(np.abs(w + jr * w_m).max())
        return float(w.min()), float(np.abs(w).max()), defect

    def _min_w(self, phi: cf.ConformalMap, template) -> float:
        return float(self._w(phi, template)[0].min())

    def _at(self, stats, value: float):
        """stats(phi, template) for the value's map, under the retry policy."""
        phi = _map_for(self.kind, self.center, self.direction, value)
        try:
            return stats(phi, self.template)
        except cf.PoleError:
            return stats(phi, self._draw_template())

    def w_stats(self, value: float) -> tuple[float, float, float]:
        """(min w, sup |w|, antisymmetry defect) at one scale value."""
        return self._at(self._stats, value)

    def min_w(self, value: float) -> float:
        """min w at one scale value, the first entry of `w_stats`."""
        return self._at(self._min_w, value)

    def profile(self, values) -> MovingSphereReport:
        """Report of the stats at each value, in increasing order."""
        values = np.sort(np.asarray(values, dtype=float))
        stats = np.array([self.w_stats(float(v)) for v in values]).reshape(-1, 3)
        return MovingSphereReport(
            kind=self.kind, n=self.n, center=self.center, direction=self.direction,
            values=values, min_w=stats[:, 0], sup_abs_w=stats[:, 1],
            defect=stats[:, 2], samples=self.samples,
        )


def _sup_abs_u(u, n: int, rng: np.random.Generator, count: int = 4096) -> float:
    pts = rng.standard_normal((count, n + 1))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return float(np.abs(np.atleast_1d(u(pts))).max())


def moving_sphere_profile(u, values, xi0=None, e=None,
                          samples: int = DEFAULT_SAMPLES,
                          rng: np.random.Generator | None = None) -> MovingSphereReport:
    """Scan w = u_Phi - u over the comparison region for each scale value.

    Pass `xi0` for the inversion family (values are radii lambda) or `e`
    for the reflection family (values are offsets alpha).
    """
    if (xi0 is None) == (e is None):
        raise ValueError("pass exactly one of xi0 (inversion) or e (reflection)")
    rng = rng if rng is not None else np.random.default_rng(0)
    if xi0 is not None:
        if np.any(np.asarray(values) <= 0):
            raise ValueError("inversion radii must be positive")
        probe = _CapProbe(u, "inversion", np.asarray(xi0, float), None, samples, rng)
    else:
        probe = _CapProbe(u, "reflection", None, np.asarray(e, float), samples, rng)
    return probe.profile(values)


def _critical_search(probe: _CapProbe, scan: np.ndarray, mean, tol: float,
                     bisect_iters: int = 48) -> MovingSphereReport:
    """Profile over `scan`, which runs from the safe end toward the unsafe
    end, then bisect the first failing step with `mean`."""
    threshold = -tol * _sup_abs_u(probe.u, probe.n, probe.rng)
    report = probe.profile(scan)
    fails = report.min_w < threshold
    if scan[0] > scan[-1]:  # the report is in increasing order
        fails = fails[::-1]
    if fails[0]:
        raise ValueError(
            f"comparison already fails at the safe end {scan[0]}: "
            "enlarge the search interval"
        )
    if not fails.any():
        # no sign change: the critical value is at least the end of the scan
        report.critical = float(scan[-1])
        report.critical_is_bound = True
    else:
        k = int(np.argmax(fails))
        good, bad = float(scan[k - 1]), float(scan[k])
        for _ in range(bisect_iters):
            mid = mean(good, bad)
            if probe.min_w(mid) < threshold:
                bad = mid
            else:
                good = mid
        report.critical = float(mean(good, bad))
    report.sup_w_at_critical = probe.w_stats(report.critical)[1]
    return report


def critical_lambda(u, xi0, lo: float = 0.02, hi: float = 50.0, tol: float = 1e-9,
                    samples: int = DEFAULT_SAMPLES,
                    rng: np.random.Generator | None = None) -> MovingSphereReport:
    """Bisection for the critical inversion radius at base point xi0.

    The comparison minimum must be clean at the small-radius end; if no sign
    change occurs up to `hi` the report carries critical_is_bound = True
    (read: the critical scale is >= hi).
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    probe = _CapProbe(u, "inversion", np.asarray(xi0, float), None, samples, rng)
    return _critical_search(probe, np.geomspace(lo, hi, 32),
                            lambda a, b: math.sqrt(a * b), tol)


def critical_alpha(u, e, lo: float = -6.0, hi: float = 6.0, tol: float = 1e-9,
                   samples: int = DEFAULT_SAMPLES,
                   rng: np.random.Generator | None = None) -> MovingSphereReport:
    """Reflection analogue: bisection for the critical offset along e.

    Large offsets (small caps) are the safe end; the offset decreases until
    the comparison fails.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    probe = _CapProbe(u, "reflection", None, np.asarray(e, float), samples, rng)
    return _critical_search(probe, np.linspace(hi, lo, 32), lambda a, b: 0.5 * (a + b), tol)
