"""Deficit-minimizing flow, extremizer fitting, and the moving-spheres
diagnostic that locates the critical inversion scale (or reflection offset)
of a candidate solution.

The flow is projected gradient descent on the deficit over the sphere
||u||_2 = const in coefficient space, with a backtracking line search, so
the recorded deficit sequence is nonincreasing by construction.  The
moving-spheres probe evaluates w = u_Phi - u on DEFAULT_SAMPLES nodes of the
comparison cap; the templates deform continuously with the scale parameter,
which keeps the bisection predicate stable.
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
    h_multiplier_table,
    random_coeffs,
    synthesize,
)
from .sphere import GridFunction, sphere_area

DEFAULT_SAMPLES = 2048  # probe nodes per template


# ---------------------------------------------------------------------------
# deficit flow

@dataclass
class FlowConfig:
    step_size: float = 0.05
    max_iter: int = 2000
    band_limit: int = 16

    def __post_init__(self):
        # the chained comparison is false for NaN and infinities too
        if not (0 < self.step_size < math.inf and self.max_iter > 0):
            raise ValueError("flow parameters must be positive and finite")
        if self.band_limit < 1:
            raise ValueError("band limit must be >= 1")


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


class _Deficit:
    """The deficit and its coefficient-space gradient at one (n, L), with
    what every evaluation shares set up once: the entropy grid, h_l at each
    slot, |S^n| and C_n."""

    def __init__(self, n: int, L: int):
        self.n, self.L = n, L
        self.grid = default_entropy_grid(n, L)
        self.hvec = h_multiplier_table(n, L).per_slot(L)
        self.area, self.cn = sphere_area(n), constant_Cn(n)

    def __call__(self, coefs: np.ndarray) -> tuple[float, np.ndarray]:
        grid, hvec, cn = self.grid, self.hvec, self.cn
        vals = synthesize(HarmonicCoeffs(self.n, self.L, coefs), grid).values
        norm_sq = float(np.dot(coefs, coefs))
        usq = vals * vals
        logfac = np.where(
            usq > 0.0,
            np.log(np.maximum(usq, 1e-300)) + math.log(self.area / norm_sq),
            0.0,
        )
        deficit = 2.0 * float(np.sum(hvec * coefs * coefs)) - cn * float(
            np.sum(grid.weights * usq * logfac)
        )
        grad_entropy = 2.0 * cn * analyze(GridFunction(grid, vals * logfac), self.L).coeffs
        grad = 4.0 * hvec * coefs - grad_entropy
        return deficit, grad


def deficit_gradient(u: HarmonicCoeffs) -> np.ndarray:
    """Gradient of the (unconstrained) deficit in coefficient space."""
    return _Deficit(u.n, u.L)(u.coeffs)[1]


def deficit_value(u: HarmonicCoeffs) -> float:
    return _Deficit(u.n, u.L)(u.coeffs)[0]


def minimize_deficit(init: HarmonicCoeffs, cfg: FlowConfig) -> FlowResult:
    """Projected gradient descent on the deficit over ||u||_2 = ||init||_2,
    on the entropy grid of the flow's band limit.

    The deficit is 2-homogeneous, D(tu) = t^2 D(u), so the flow keeps the
    initial norm; scale `init` to flow on another sphere.
    """
    if not np.any(init.coeffs):
        raise ValueError("flow needs a nonzero initial state")
    n, L = init.n, cfg.band_limit
    c = init.with_band_limit(L).coeffs
    target = math.sqrt(float(np.dot(c, c)))
    deficit_parts = _Deficit(n, L)
    deficit, grad = deficit_parts(c)
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
            d_new, g_new = deficit_parts(cand)
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
        if decrease < 1e-13:  # the stop tolerance
            converged, message = True, "deficit decrease below stop tolerance"
            break
    return FlowResult(HarmonicCoeffs(n, L, c), deficits, it, converged, message)


def random_positive_init(n: int, L: int, rng: np.random.Generator,
                         amplitude: float = 0.2) -> HarmonicCoeffs:
    """Constant plus a band-limited perturbation kept safely positive."""
    pert = random_coeffs(n, L, rng, decay=1.5).coeffs
    pert[degree_of_index(n, L) == 0] = 0.0
    grid = default_entropy_grid(n, L)
    probe = synthesize(HarmonicCoeffs(n, L, pert), grid).values
    scale = amplitude / max(np.abs(probe).max(), 1e-12)
    u = HarmonicCoeffs.constant(n, L, 1.0)
    u.coeffs += pert * scale
    return u


# ---------------------------------------------------------------------------
# extremizer fitting (one weighted least-squares solve for u^{-2/n})

@dataclass
class FitResult:
    params: cf.ExtremizerParams
    residual: float
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
            "iterations": 1,  # one solve; the benchmark's traced runs read this key
            "in_family": self.in_family,
            "message": self.message,
        }


def fit_extremizer(u: HarmonicCoeffs) -> FitResult:
    """Least-squares fit of the family c (sqrt(1-|z|^2)/(1-z.w))^{n/2}.

    On the family u^{-2/n} = a0 - a.w, with zeta = a/a0 and
    c = (a0 sqrt(1-|zeta|^2))^{-n/2}, so the fit is one linear solve for
    (a0, a) on the entropy grid of u's band limit.  Its rows carry the
    weights sqrt(w_i) u_i^{1+2/n}, which make it the linearization of the
    misfit in u.  The residual is the relative L2 misfit of the fitted
    member.  A u that is not positive on the grid, or a solve that gives no
    a0 > |a|, fits the zero model: c = 0 with residual 1.
    """
    n, L = u.n, u.L
    grid = default_entropy_grid(n, L)
    u_vals = synthesize(u, grid).values
    zero_model = cf.ExtremizerParams(np.zeros(n + 1), 0.0)
    if not np.all(u_vals > 0.0):
        return FitResult(zero_model, 1.0, "u is not positive on the grid, so no "
                                          "family member fits")
    sqrt_w = np.sqrt(grid.weights)
    row_w = sqrt_w * u_vals ** (1.0 + 2.0 / n)
    design = np.column_stack([np.ones(grid.node_count), -grid.nodes]) * row_w[:, None]
    sol = np.linalg.lstsq(design, row_w * u_vals ** (-2.0 / n), rcond=None)[0]
    a0, a = sol[0], sol[1:]
    if not a0 > float(np.linalg.norm(a)):
        return FitResult(zero_model, 1.0, "u^(-2/n) fits no a0 - a.w with a0 > |a|, "
                                          "so no family member fits")
    zeta = a / a0
    c = (a0 * math.sqrt(1.0 - float(np.dot(zeta, zeta)))) ** (-0.5 * n)
    params = cf.ExtremizerParams(zeta, float(c))
    misfit = sqrt_w * (u_vals - cf.extremizer(params)(grid.nodes))
    residual = float(np.linalg.norm(misfit) / np.linalg.norm(sqrt_w * u_vals))
    message = "one weighted least-squares solve"
    if float(np.linalg.norm(zeta)) > 0.9:
        message = (
            "fitted |zeta| exceeds 0.9; the family member is under-resolved "
            f"at band limit L={L}, increase L"
        )
    return FitResult(params, residual, message)


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

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if np.any(np.diff(self.values) <= 0):
            raise ValueError("scan values must be strictly increasing")
        finite = np.isfinite(self.min_w) & np.isfinite(self.sup_abs_w) & np.isfinite(self.defect)
        if not finite.all():
            raise ValueError(f"non-finite comparison values at {self.parameter_name} = "
                             f"{self.values[~finite][0]:g}")

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
            "samples": DEFAULT_SAMPLES,
        }

    def csv_rows(self) -> list[tuple]:
        head = (self.parameter_name, "min_w", "sup_abs_w", "defect")
        rows = [head]
        rows += [
            (float(v), float(a), float(b), float(d))
            for v, a, b, d in zip(self.values, self.min_w, self.sup_abs_w, self.defect)
        ]
        return rows


class _CapProbe:
    """w = u_Phi - u over the inversions about xi0 or the reflections along e,
    on sample nodes from a template that deforms continuously with the scale
    parameter: DEFAULT_SAMPLES / 2 planar-ball nodes (inversions only) and as
    many cap nodes.

    A value whose map has a pole at a node is retried once on a fresh
    template from the probe's generator; other values keep the first one.
    The bisection needs only min w, which skips the second map pass of the
    antisymmetry defect, so a pole that only that pass would hit is not
    retried there.
    """

    def __init__(self, u, xi0, e, rng: np.random.Generator | None):
        if (xi0 is None) == (e is None):
            raise ValueError("pass exactly one of xi0 (inversion) or e (reflection)")
        if isinstance(u, HarmonicCoeffs):
            u = as_evaluable(u)
        elif not callable(u):
            raise TypeError("u must be callable on points or a HarmonicCoeffs")
        self.u, self.kind = u, "inversion" if e is None else "reflection"
        self.center = None if xi0 is None else np.asarray(xi0, float)
        self.direction = None if e is None else np.asarray(e, float)
        self.n = self.center.size - 1 if e is None else self.direction.size
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.template = self._draw_template()

    def _draw_template(self):
        half, n, rng = DEFAULT_SAMPLES // 2, self.n, self.rng
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
        """stats(phi, template) under the retry policy; an error names the value."""
        try:
            phi = (cf.LiftedInversion(value, self.center) if self.direction is None
                   else cf.LiftedReflection(value, self.direction))
            try:
                return stats(phi, self.template)
            except cf.PoleError:
                return stats(phi, self._draw_template())
        except ValueError as exc:
            name = "lambda" if self.direction is None else "alpha"
            raise type(exc)(f"at {name} = {value:g}: {exc}") from None

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
            defect=stats[:, 2],
        )


def _sup_abs_u(u, n: int, rng: np.random.Generator) -> float:
    """max |u| over 4096 random points."""
    pts = rng.standard_normal((4096, n + 1))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return float(np.abs(np.atleast_1d(u(pts))).max())


def moving_sphere_profile(u, values, xi0=None, e=None,
                          rng: np.random.Generator | None = None) -> MovingSphereReport:
    """Scan w = u_Phi - u over the comparison region for each scale value.

    Pass `xi0` for the inversion family (values are radii lambda) or `e`
    for the reflection family (values are offsets alpha).
    """
    return _CapProbe(u, xi0, e, rng).profile(values)


def _critical_search(probe: _CapProbe, scan: np.ndarray, mean, tol: float) -> MovingSphereReport:
    """Profile over `scan`, which runs from the safe end toward the unsafe
    end, then bisect the first failing step with `mean`, 48 times."""
    threshold = -tol * _sup_abs_u(probe.u, probe.n, probe.rng)
    report = probe.profile(scan)
    fails = report.min_w < threshold
    if scan[0] > scan[-1]:  # the report is in increasing order
        fails = fails[::-1]
    if fails[0]:
        raise ValueError(f"comparison already fails at the safe end {scan[0]:g} of the fixed "
                         f"scan: the critical {report.parameter_name} lies beyond it")
    if not fails.any():
        # no sign change: the critical value is at least the end of the scan
        report.critical = float(scan[-1])
        report.critical_is_bound = True
    else:
        k = int(np.argmax(fails))
        good, bad = float(scan[k - 1]), float(scan[k])
        for _ in range(48):
            mid = mean(good, bad)
            if probe.min_w(mid) < threshold:
                bad = mid
            else:
                good = mid
        report.critical = float(mean(good, bad))
    report.sup_w_at_critical = probe.w_stats(report.critical)[1]
    return report


def critical_lambda(u, xi0, tol: float = 1e-9,
                    rng: np.random.Generator | None = None) -> MovingSphereReport:
    """Bisection for the critical inversion radius at base point xi0, from a
    scan of 32 radii from 0.02 to 50 in geometric steps.

    The comparison minimum must be clean at the small-radius end; if no sign
    change occurs up to 50 the report carries critical_is_bound = True
    (read: the critical scale is >= 50).
    """
    return _critical_search(_CapProbe(u, xi0, None, rng), np.geomspace(0.02, 50.0, 32),
                            lambda a, b: math.sqrt(a * b), tol)


def critical_alpha(u, e, tol: float = 1e-9,
                   rng: np.random.Generator | None = None) -> MovingSphereReport:
    """Reflection analogue: bisection for the critical offset along e, from
    a scan of 32 offsets from 6 down to -6.

    Large offsets (small caps) are the safe end; the offset decreases until
    the comparison fails.
    """
    return _critical_search(_CapProbe(u, None, e, rng), np.linspace(6.0, -6.0, 32),
                            lambda a, b: 0.5 * (a + b), tol)
