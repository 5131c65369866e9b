"""Deficit-minimizing flow, extremizer fitting, and the moving-spheres
diagnostic that locates the critical inversion scale (or reflection offset)
of a candidate solution.

The flow is projected gradient descent on the deficit over the sphere
||u||_2 = const in coefficient space, with a backtracking line search, so
the recorded deficit sequence is nonincreasing by construction.  The
moving-spheres probe evaluates w = u_Phi - u on DEFAULT_SAMPLES nodes of the
comparison cap; the templates deform continuously with the scale parameter,
so min w is continuous in it and a bracketing root-finder (Brent's zeroin)
locates the critical value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import conformal as cf
from .energy import beckner_deficit, default_entropy_grid, deficit_gradient_at, deficit_terms
from .harmonics import (HarmonicCoeffs, analyze, degree_of_index, evaluate_on_grid,
                        random_coeffs, synthesize)
from .sphere import QuadratureGrid, build_grid

DEFAULT_SAMPLES = 2048  # probe nodes per template
MAX_AMPLITUDE = 1e300  # largest |amplitude| of a random initial state


# ---------------------------------------------------------------------------
# deficit flow

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


def deficit_gradient(u: HarmonicCoeffs) -> np.ndarray:
    """Gradient of the (unconstrained) deficit in coefficient space."""
    grid = default_entropy_grid(u.n, u.L)
    return deficit_gradient_at(u, grid, deficit_terms(u, grid)[1])


def deficit_value(u: HarmonicCoeffs) -> float:
    return beckner_deficit(u).deficit


def minimize_deficit(init: HarmonicCoeffs, step: float, max_iter: int,
                     grid: QuadratureGrid | None = None) -> FlowResult:
    """Projected gradient descent on the deficit over ||u||_2 = ||init||_2,
    at init's band limit and on `grid`, by default its entropy grid
    (`default_entropy_grid(init.n, init.L)`, built here when none is
    passed), from line-search step `step` for at most `max_iter` iterations.
    Each trial point costs one deficit evaluation; the gradient is taken at
    accepted points only.  A trial whose unprojected candidate has no finite
    norm (a step too large for floats) is rejected, and the step halves.

    The deficit is 2-homogeneous, D(tu) = t^2 D(u), so the flow keeps the
    initial norm; scale `init` to flow on another sphere.  An init whose
    squared norm is no positive finite float (zero, or a square that
    overflows or underflows) is refused.
    """
    # the chained comparison is false for NaN and infinities too
    if not (0 < step < math.inf and max_iter > 0):
        raise ValueError("flow parameters must be positive and finite")
    with np.errstate(over="ignore"):  # an overflow is refused below, with its cause
        norm_sq = init.norm_sq()
    if not 0.0 < norm_sq < math.inf:
        raise ValueError("the flow needs an initial state whose squared norm is a positive "
                         f"finite float, got {norm_sq!r}")
    n, L = init.n, init.L
    if grid is None:
        grid = default_entropy_grid(n, L)
    u = init.copy_with(init.coeffs.copy())
    target = math.sqrt(norm_sq)
    report, density = deficit_terms(u, grid)
    deficit, grad = report.deficit, deficit_gradient_at(u, grid, density)
    deficits = [deficit]
    converged, message = False, "max iterations reached"
    it = 0
    for it in range(1, max_iter + 1):
        c = u.coeffs
        tangent = grad - (np.dot(grad, c) / np.dot(c, c)) * c
        gnorm = float(np.linalg.norm(tangent))
        if gnorm < 1e-13:
            converged, message = True, "gradient below resolution"
            break
        accepted = False
        for _ in range(50):
            with np.errstate(over="ignore"):  # an overflowing trial is rejected
                cand = c - step * tangent
                cand_norm = np.linalg.norm(cand)
            if not math.isfinite(cand_norm):
                step *= 0.5
                continue
            cand *= target / cand_norm
            trial = HarmonicCoeffs(n, L, cand)
            report, density = deficit_terms(trial, grid)
            if report.deficit <= deficit - 1e-4 * step * gnorm * gnorm:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            converged, message = False, "line search stalled: deficit no longer decreases"
            break
        decrease = deficit - report.deficit
        u, deficit = trial, report.deficit
        grad = deficit_gradient_at(u, grid, density)
        deficits.append(deficit)
        step *= 1.3
        if decrease < 1e-13:  # the stop tolerance
            converged, message = True, "deficit decrease below stop tolerance"
            break
    return FlowResult(u, deficits, it, converged, message)


def random_positive_init(n: int, L: int, rng: np.random.Generator,
                         amplitude: float = 0.2,
                         grid: QuadratureGrid | None = None) -> HarmonicCoeffs:
    """Constant plus a band-limited perturbation kept safely positive: its
    largest magnitude over the nodes of the entropy grid of (n, L) is
    `amplitude`.  A caller that holds that grid passes it as `grid`, and the
    perturbation is synthesized on its transform tables; with none passed,
    its node values come from `evaluate_on_grid` on the cached Chebyshev
    plan, which builds no transform table, and agree with a synthesis to
    rounding.  An amplitude above MAX_AMPLITUDE in size, or one whose
    perturbation scale is not finite, is refused."""
    pert = random_coeffs(n, L, rng, decay=1.5)
    pert.coeffs[degree_of_index(n, L) == 0] = 0.0
    if grid is None:
        probe = evaluate_on_grid(pert, default_entropy_grid(n, L))
    else:
        probe = synthesize(pert, grid).values
    with np.errstate(over="ignore"):  # an overflowing scale is refused below
        scale = amplitude / max(np.abs(probe).max(), 1e-12)
    if not (abs(amplitude) <= MAX_AMPLITUDE and math.isfinite(scale)):
        raise ValueError(f"amplitude {amplitude:g} is above {MAX_AMPLITUDE:g} in size, or "
                         "its perturbation scale is not finite")
    u = HarmonicCoeffs.constant(n, L, 1.0)
    u.coeffs += pert.coeffs * scale
    return u


def family_coeffs(params: cf.ExtremizerParams, L: int,
                  grid: QuadratureGrid | None = None) -> HarmonicCoeffs:
    """The family member of `params`, analyzed on `grid`, by default the
    degree-L grid (built here when none is passed)."""
    if grid is None:
        grid = build_grid(params.n, L)
    return analyze(grid.sample(cf.extremizer(params)), L)


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


def fit_extremizer(u: HarmonicCoeffs, grid: QuadratureGrid | None = None) -> FitResult:
    """Least-squares fit of the family c (sqrt(1-|z|^2)/(1-z.w))^{n/2}.

    On the family u^{-2/n} = a0 - a.w, with zeta = a/a0 and
    c = (a0 sqrt(1-|zeta|^2))^{-n/2}, so the fit is one linear solve for
    (a0, a) on `grid`, by default the entropy grid of u's band limit (built
    here when none is passed).  Its rows carry the
    weights sqrt(w_i) u_i^{1+2/n}, which make it the linearization of the
    misfit in u.  The residual is the relative L2 misfit of the fitted
    member.  A u that is not positive on the grid, a solve that gives no
    a0 > |a|, or a member that misfits u by more than u itself fits the zero
    model: c = 0 with residual 1.
    """
    n, L = u.n, u.L
    if grid is None:
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
    if residual > 1.0:
        return FitResult(zero_model, 1.0, f"the solved member misfits u by {residual:.3g}, "
                                          "more than the zero model, so no family member fits")
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
    defect: np.ndarray | None  # per value in a profile; None in a critical search
    critical: float | None = None
    sup_w_at_critical: float | None = None
    defect_at_critical: float | None = None
    critical_is_bound: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if np.any(np.diff(self.values) <= 0):
            raise ValueError("scan values must be strictly increasing")
        finite = np.isfinite(self.min_w) & np.isfinite(self.sup_abs_w)
        if self.defect is not None:
            finite &= np.isfinite(self.defect)
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
            "defect": None if self.defect is None else self.defect.tolist(),
            "critical": self.critical,
            "sup_w_at_critical": self.sup_w_at_critical,
            "defect_at_critical": self.defect_at_critical,
            "critical_is_bound": self.critical_is_bound,
            "samples": DEFAULT_SAMPLES,
        }

    def csv_rows(self) -> list[tuple]:
        """A header and one row per value; the defect column only when the
        report has one."""
        names, cols = ["min_w", "sup_abs_w"], [self.min_w, self.sup_abs_w]
        if self.defect is not None:
            names.append("defect")
            cols.append(self.defect)
        rows = [(self.parameter_name, *names)]
        rows += [tuple(float(x) for x in row) for row in zip(self.values, *cols)]
        return rows


class _CapProbe:
    """w = u_Phi - u, for a callable u on points, over the inversions about
    xi0 or the reflections along e, on sample nodes from a template that
    deforms continuously with the scale parameter: DEFAULT_SAMPLES / 2
    planar-ball nodes (inversions only) and as many cap nodes.

    `stats(value, defect)` is the one entry point: (min w, sup |w|) from
    one map pass, and with `defect` the antisymmetry defect from a second.
    The map of each value is `base.at_scale(value)`, so the unit centre (or
    normal) and the planar base point are derived once per probe.  A value
    whose map has a pole at a node is retried once on a fresh template from
    the probe's generator; other values keep the first one.  A pole that
    only the defect's pass would hit is retried only when `defect` is set;
    a critical search sets it once, at the critical value.
    """

    def __init__(self, u, xi0, e, rng: np.random.Generator | None):
        if (xi0 is None) == (e is None):
            raise ValueError("pass exactly one of xi0 (inversion) or e (reflection)")
        self.u, self.kind = u, "inversion" if e is None else "reflection"
        self.center = None if xi0 is None else np.asarray(xi0, float)
        self.direction = None if e is None else np.asarray(e, float)
        self.n = self.center.size - 1 if e is None else self.direction.size
        self.base = (cf.LiftedInversion(1.0, self.center) if e is None
                     else cf.LiftedReflection(0.0, self.direction))
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.template = self._draw_template()

    def _draw_template(self):
        half, n, rng = DEFAULT_SAMPLES // 2, self.n, self.rng
        # planar ball template (used by the inversion variant)
        ball_dirs = rng.standard_normal((half, n))
        ball_dirs /= np.linalg.norm(ball_dirs, axis=1, keepdims=True)
        ball_dirs = np.ascontiguousarray(ball_dirs.T)  # coordinate columns
        ball_radii = np.maximum(rng.uniform(0.0, 1.0, half) ** (1.0 / n), 1e-6)
        # cap template in the frame of the cap axis
        cap_u = rng.uniform(0.0, 1.0, half)
        cap_phi = rng.uniform(0.0, 2.0 * math.pi, half)
        return ball_dirs, ball_radii, cap_u, cap_phi

    def _stats(self, phi: cf.ConformalMap, template, defect: bool) -> tuple[float, ...]:
        """(min w, sup |w|) at the template's nodes from one map pass, and
        with `defect` the antisymmetry defect, whose second pass maps the
        images."""
        ball_dirs, ball_radii, cap_u, cap_phi = template
        pts = cf.cap_points(cf.region_of(phi), cap_u, cap_phi)
        if isinstance(phi, cf.LiftedInversion):
            x = phi.x0[:, None] + phi.lam * ball_radii * ball_dirs
            pts = np.vstack([pts, cf.stereographic(x.T)])
        mapped, jac = cf.map_with_jacobian(phi, pts)
        jr = np.sqrt(jac)
        # one evaluation of u for the images and the nodes together
        both = self.u(np.concatenate([mapped, pts]))
        u_mapped = both[:len(mapped)]
        w = jr * u_mapped - both[len(mapped):]
        stats = (float(w.min()), float(np.abs(w).max()))
        if not defect:
            return stats
        back, jac_m = cf.map_with_jacobian(phi, mapped)
        w_m = np.sqrt(jac_m) * self.u(back) - u_mapped
        return stats + (float(np.abs(w + jr * w_m).max()),)

    def stats(self, value: float, defect: bool = False) -> tuple[float, ...]:
        """`_stats` at one scale value under the retry policy; an error
        names the value."""
        try:
            phi = self.base.at_scale(value)
            try:
                return self._stats(phi, self.template, defect)
            except cf.PoleError:
                return self._stats(phi, self._draw_template(), defect)
        except ValueError as exc:
            name = "lambda" if self.direction is None else "alpha"
            raise type(exc)(f"at {name} = {value:g}: {exc}") from None

    def profile(self, values, defect: bool = True) -> MovingSphereReport:
        """Report of the stats at each value, in increasing order, with no
        defect column when `defect` is false."""
        values = np.sort(np.asarray(values, dtype=float))
        stats = np.array([self.stats(float(v), defect) for v in values])
        stats = stats.reshape(-1, 3 if defect else 2)
        return MovingSphereReport(
            kind=self.kind, n=self.n, center=self.center, direction=self.direction,
            values=values, min_w=stats[:, 0], sup_abs_w=stats[:, 1],
            defect=stats[:, 2] if defect else None,
        )


def _sup_abs_u(u, n: int, rng: np.random.Generator) -> float:
    """max |u| over 4096 random points."""
    pts = rng.standard_normal((4096, n + 1))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return float(np.abs(u(pts)).max())


def moving_sphere_profile(u, values, xi0=None, e=None,
                          rng: np.random.Generator | None = None) -> MovingSphereReport:
    """Scan w = u_Phi - u over the comparison region for each scale value.

    Pass `xi0` for the inversion family (values are radii lambda) or `e`
    for the reflection family (values are offsets alpha).
    """
    return _CapProbe(u, xi0, e, rng).profile(values)


def _zeroin(f, a: float, b: float, fa: float, fb: float, xtol: float) -> float:
    """A zero of f between a and b, given f(a) = fa and f(b) = fb of opposite
    signs (or one of them zero), to within xtol + 4 eps |x|: the Dekker-Brent
    "zeroin" (R. P. Brent, Algorithms for Minimization without Derivatives,
    1973, ch. 4).  Each step evaluates f once, inside the bracket, by inverse
    quadratic or linear interpolation when that shrinks the bracket fast
    enough, and by bisection otherwise.
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


def _critical_search(probe: _CapProbe, scan: np.ndarray, to_x, from_x,
                     tol: float) -> MovingSphereReport:
    """Profile over `scan`, which runs from the safe end toward the unsafe
    end, with one map pass per value and no defect column, then find where
    min w crosses the threshold in the first failing step by zeroin in the
    coordinate x = to_x(value), value = from_x(x).  The step's ends reuse
    the scan's min w.  Every value takes `probe.stats` without the defect
    but the critical value, whose stats with it also give sup |w| there."""
    threshold = -tol * _sup_abs_u(probe.u, probe.n, probe.rng)
    report = probe.profile(scan, defect=False)
    f_scan = report.min_w - threshold
    if scan[0] > scan[-1]:  # the report is in increasing order
        f_scan = f_scan[::-1]
    fails = f_scan < 0
    if fails[0]:
        raise ValueError(f"comparison already fails at the safe end {scan[0]:g} of the fixed "
                         f"scan: the critical {report.parameter_name} lies beyond it")
    if not fails.any():
        # no sign change: the critical value lies past the end of the scan
        report.critical = float(scan[-1])
        report.critical_is_bound = True
    else:
        k = int(np.argmax(fails))
        # refined within the failing scan step to 1e-15 + 4 eps |x| in x
        x = _zeroin(lambda x: probe.stats(from_x(x))[0] - threshold,
                    to_x(float(scan[k - 1])), to_x(float(scan[k])),
                    float(f_scan[k - 1]), float(f_scan[k]), 1e-15)
        report.critical = float(from_x(x))
    _, report.sup_w_at_critical, report.defect_at_critical = probe.stats(
        report.critical, defect=True)
    return report


def critical_lambda(u, xi0, tol: float = 1e-9,
                    rng: np.random.Generator | None = None) -> MovingSphereReport:
    """The critical inversion radius at base point xi0, by zeroin in ln lambda
    on the first failing step of a scan of 32 radii from 0.02 to 50 in
    geometric steps.

    The comparison minimum must be clean at the small-radius end; if no sign
    change occurs up to 50 the report carries critical_is_bound = True
    (read: the critical scale is >= 50).
    """
    return _critical_search(_CapProbe(u, xi0, None, rng), np.geomspace(0.02, 50.0, 32),
                            math.log, math.exp, tol)


def critical_alpha(u, e, tol: float = 1e-9,
                   rng: np.random.Generator | None = None) -> MovingSphereReport:
    """Reflection analogue: the critical offset along e, by zeroin in alpha
    on the first failing step of a scan of 32 offsets from 6 down to -6.

    Large offsets (small caps) are the safe end; the offset decreases until
    the comparison fails.  If no sign change occurs down to -6 the report
    carries critical_is_bound = True (read: the critical offset is <= -6).
    """
    return _critical_search(_CapProbe(u, None, e, rng), np.linspace(6.0, -6.0, 32),
                            float, float, tol)
