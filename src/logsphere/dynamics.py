"""Deficit-minimizing flow, extremizer fitting, and the moving-spheres
diagnostic that locates the critical inversion scale (or reflection offset)
of a candidate solution.

The flow is projected gradient descent on the deficit over the sphere
||u||_2 = const in coefficient space, with a backtracking line search, so
the recorded deficit sequence is nonincreasing by construction.  The
moving-spheres probe evaluates w = u_Phi - u on DEFAULT_SAMPLES nodes of the
comparison cap; the templates deform continuously with the scale parameter,
so w at each node is smooth in it and min w is continuous, with a kink
wherever its minimizing node changes.  A bracketing root-finder (Brent's
zeroin on min w, whose interpolation follows the node that crosses first)
locates the critical value from the vectors of w at the nodes, and the
defect check there reuses the search's own evaluation of u at that value.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import conformal as cf
from .energy import beckner_deficit, default_entropy_grid, deficit_gradient_at, deficit_terms
from .harmonics import (HarmonicCoeffs, analyze, degree_of_index, evaluate_on_grid,
                        random_coeffs, synthesize)
from .sphere import QuadratureGrid, build_grid

DEFAULT_SAMPLES = 2048  # probe nodes per template
_PARAMETER = {"inversion": "lambda", "reflection": "alpha"}  # the scale parameter's name


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
    squared norm is no normal positive finite float (zero, a square that
    overflows, or one that underflows to zero or to a subnormal, where the
    deficit's logarithms break down) is refused.
    """
    # the chained comparison is false for NaN and infinities too
    if not (0 < step < math.inf and max_iter > 0):
        raise ValueError("flow parameters must be positive and finite")
    with np.errstate(over="ignore"):  # an overflow is refused below, with its cause
        norm_sq = init.norm_sq()
    if not sys.float_info.min <= norm_sq < math.inf:
        raise ValueError("the flow needs an initial state whose squared norm is a normal "
                         f"positive finite float, got {norm_sq!r}")
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
    """Constant 1 plus a band-limited perturbation whose largest magnitude
    over the nodes of the entropy grid of (n, L) is |amplitude|, so the
    state is positive there.  An amplitude of size 1 or more, or NaN, is
    refused: the state could change sign.  A caller that holds that grid
    passes it as `grid`, and the perturbation is synthesized on its
    transform tables; with none passed, its node values come from
    `evaluate_on_grid` on the cached Chebyshev plan, which builds no
    transform table, and agree with a synthesis to rounding."""
    if not abs(amplitude) < 1.0:  # false for NaN too
        raise ValueError(f"amplitude {amplitude:g} is not below 1 in size, so the state "
                         "could change sign")
    pert = random_coeffs(n, L, rng, decay=1.5)
    pert.coeffs[degree_of_index(n, L) == 0] = 0.0
    if grid is None:
        probe = evaluate_on_grid(pert, default_entropy_grid(n, L))
    else:
        probe = synthesize(pert, grid).values
    scale = amplitude / max(np.abs(probe).max(), 1e-12)
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

def _non_finite(kind: str, value: float) -> str:
    return f"non-finite comparison values at {_PARAMETER[kind]} = {value:g}"


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
    refine_evaluations: int = 0  # evaluations of w in a critical search's refinement
    retried: list[float] = field(default_factory=list)  # values re-drawn after a pole

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if np.any(np.diff(self.values) <= 0):
            raise ValueError("scan values must be strictly increasing")
        finite = np.isfinite(self.min_w) & np.isfinite(self.sup_abs_w)
        if self.defect is not None:
            finite &= np.isfinite(self.defect)
        if not finite.all():
            raise ValueError(_non_finite(self.kind, self.values[~finite][0]))

    @property
    def parameter_name(self) -> str:
        return _PARAMETER[self.kind]

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
            "refine_evaluations": self.refine_evaluations,
            "retried": [float(v) for v in self.retried],
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


@dataclass
class _Pass:
    """One map pass of a probe at a scale value: the images of the
    template's nodes, the square root of the Jacobian there, u at the images
    and w at the nodes.  `fresh` marks a pass on a template re-drawn after a
    pole, whose nodes match no other pass's."""
    value: float
    phi: cf.ConformalMap
    mapped: np.ndarray
    jr: np.ndarray
    u_mapped: np.ndarray
    w: np.ndarray
    fresh: bool

    def stats(self) -> tuple[float, float]:
        """(min w, sup |w|)."""
        return float(self.w.min()), float(np.abs(self.w).max())

    def excess(self, threshold: float) -> np.ndarray:
        """w - threshold at the nodes, or on a fresh template its minimum
        alone, since its nodes match no other pass's."""
        excess = self.w - threshold
        return excess.min(keepdims=True) if self.fresh else excess


class _CapProbe:
    """w = u_Phi - u, for a callable u on points, over the inversions about
    xi0 or the reflections along e, on sample nodes from a template that
    deforms continuously with the scale parameter: DEFAULT_SAMPLES / 2
    planar-ball nodes (inversions only) and as many cap nodes.

    `measure(value, p, defect)` is the one measurement.  It makes the map
    pass at `value`, which maps the nodes and evaluates u once on the images
    and the nodes together, or takes `p`, a pass already made there; with
    `defect` it adds the antisymmetry defect, whose second map pass takes
    the images back and evaluates u there, reusing everything else.  The map
    of each value is `base.at_scale(value)`, so the unit centre (or normal)
    and the planar base point are derived once per probe.  Its one pole
    handler holds the retry policy: a pole at a node, in the forward pass or
    in the defect's pass of a pass on the probe's template, re-draws that
    one value once on a fresh template from the probe's generator, and
    `retried` lists it; other values keep the probe's template.  A pole on
    a fresh template raises.  Every error names the value.
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
        self.retried: list[float] = []

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

    def _pass(self, value: float, phi: cf.ConformalMap, template,
              fresh: bool = False) -> _Pass:
        """The map pass of phi, the map at `value`, on the template's nodes."""
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
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite w is refused
            w = jr * u_mapped - both[len(mapped):]
        return _Pass(value, phi, mapped, jr, u_mapped, w, fresh)

    def _defect(self, p: _Pass) -> float:
        """The antisymmetry defect sup |w + J^(1/2) w o Phi| of pass p."""
        back, jac_m = cf.map_with_jacobian(p.phi, p.mapped)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite defect is refused
            w_m = np.sqrt(jac_m) * self.u(back) - p.u_mapped
            return float(np.abs(p.w + p.jr * w_m).max())

    def measure(self, value: float, p: _Pass | None = None,
                defect: bool = False) -> tuple[_Pass, float | None]:
        """(the map pass at `value`, its defect with `defect`, else None),
        reusing `p` when it is a pass already made at `value`, under the
        retry policy."""
        fresh = p is not None and p.fresh
        try:
            phi = self.base.at_scale(value) if p is None else p.phi
            while True:
                try:
                    if p is None:
                        template = self._draw_template() if fresh else self.template
                        p = self._pass(value, phi, template, fresh)
                    return p, (self._defect(p) if defect else None)
                except cf.PoleError:
                    if fresh:
                        raise
                    self.retried.append(value)
                    fresh, p = True, None
        except ValueError as exc:
            raise type(exc)(f"at {_PARAMETER[self.kind]} = {value:g}: {exc}") from None

    def profile(self, values) -> MovingSphereReport:
        """Report of (min w, sup |w|) and the defect at each value, in
        increasing order."""
        values = np.sort(np.asarray(values, dtype=float))
        stats = np.array([p.stats() + (d,) for p, d in
                          (self.measure(float(v), defect=True) for v in values)]).reshape(-1, 3)
        return MovingSphereReport(
            kind=self.kind, n=self.n, center=self.center, direction=self.direction,
            values=values, min_w=stats[:, 0], sup_abs_w=stats[:, 1], defect=stats[:, 2],
            retried=self.retried,
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


def _secant_step(a: float, b: float, fa: np.ndarray, fb: np.ndarray, xm: float,
                 b_safe: bool) -> float | None:
    """The step from b to the secant root of one node, through (a, fa) and
    (b, fb) node by node: of the roots strictly inside the bracket from b to
    b + 2 xm, the one nearest its safe end (b when `b_safe`, else the far
    end, where only nodes below zero at b can cross).  None when no node
    crosses inside.  Vectors of two sizes (a value re-drawn on a fresh
    template) have no matching nodes, so both reduce to their minima."""
    if fa.size != fb.size:
        fa, fb = fa.min(keepdims=True), fb.min(keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):  # a flat node has no root
        t = fb * (b - a) / (fa - fb) * math.copysign(1.0, xm)  # root's distance from b
    inside = (t > 0) & (t < 2.0 * abs(xm))
    if not b_safe:
        inside &= fb < 0
    if not inside.any():
        return None
    t = t[inside]
    return math.copysign(float(t.min() if b_safe else t.max()), xm)


def _zeroin(f, a: float, b: float, fa: np.ndarray, fb: np.ndarray, xtol: float) -> float:
    """A zero of min f between a and b, for f with values in R^k, one entry
    per node, given f(a) = fa and f(b) = fb whose minima have opposite signs
    (or one is zero), to within xtol + 4 eps |x|.  This is the Dekker-Brent
    "zeroin" (R. P. Brent, Algorithms for Minimization without Derivatives,
    1973, ch. 4) on min f, whose bracket, acceptance test, minimum step and
    stop rule it keeps.  Its interpolation follows the nodes: the secant
    root, through the previous and the current iterate, of the node that
    crosses nearest the bracket's safe end (`_secant_step`).  Min f has a
    kink wherever its minimizing node changes, and a node has none.  Each
    step evaluates f once, inside the bracket, at that root when it shrinks
    the bracket fast enough, else at the midpoint.  On one node this is the
    scalar method with secant steps.
    """
    ya, yb = float(fa.min()), float(fb.min())
    c, fc, yc = a, fa, ya
    d = e = b - a
    while True:
        # keep the zero between b and c; the product of two tiny minima underflows
        if (yb > 0 and yc > 0) or (yb < 0 and yc < 0):
            c, fc, yc = a, fa, ya
            d = e = b - a
        if abs(yc) < abs(yb):  # b is the best estimate
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
            ya, yb, yc = yb, yc, yb
        tol1 = 2.0 * math.ulp(1.0) * abs(b) + 0.5 * xtol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or yb == 0:
            return b
        step = None
        if abs(e) >= tol1 and abs(ya) > abs(yb):
            step = _secant_step(a, b, fa, fb, xm, yb > 0)
        if step is not None and 2.0 * abs(step) < min(3.0 * abs(xm) - tol1, abs(e)):
            e, d = d, step
        else:
            d = e = xm
        a, fa, ya = b, fb, yb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = f(b)
        yb = float(fb.min())


def _critical_search(probe: _CapProbe, scan: np.ndarray, to_x, from_x,
                     tol: float) -> MovingSphereReport:
    """Scan from the safe end of `scan` toward the unsafe end with one map
    pass per value, then find where min w crosses the threshold in the
    first failing step by `_zeroin` in the coordinate x = to_x(value),
    value = from_x(x), on the vector w - threshold over the probe's nodes.
    The step's ends reuse the scan's passes, which are kept for that step
    alone.  The critical value takes the defect on the pass the search made
    there (`_CapProbe.measure` with that pass): zeroin returns either its
    last point or the last one on the other side of the threshold, and the
    search keeps the last pass on each side.  So a search evaluates u once
    for the threshold, once per scan value and refinement step, and once on
    the images mapped back at the critical value.  The report is built
    once, after that defect.

    A state whose sampled sup |u| is positive but subnormal is refused,
    since the threshold -tol sup |u| would underflow, and so is the first
    scan value whose comparison values are not finite, before any
    refinement step."""
    sup_u = _sup_abs_u(probe.u, probe.n, probe.rng)
    if 0 < sup_u < sys.float_info.min:
        raise ValueError("the search needs a state whose sampled sup |u| is zero or a "
                         f"normal float, got {sup_u!r}")
    threshold = -tol * sup_u
    stats = np.empty((len(scan), 2))
    ends = last = None
    for i, value in enumerate(scan):
        p, _ = probe.measure(float(value))
        stats[i] = p.stats()
        if not np.isfinite(stats[i]).all():
            raise ValueError(_non_finite(probe.kind, value))
        if ends is None and stats[i, 0] < threshold:
            ends = (last, p)  # the first failing step
        last = p
    steps = 0
    if ends is None:
        # no sign change: the critical value lies past the end of the scan
        critical, is_bound, kept = float(scan[-1]), True, [last]
    elif ends[0] is None:
        raise ValueError(f"comparison already fails at the safe end {scan[0]:g} of the fixed "
                         f"scan: the critical {_PARAMETER[probe.kind]} lies beyond it")
    else:
        latest = {False: ends[0], True: ends[1]}  # the last pass on each side

        def excess(x):
            nonlocal steps
            p, _ = probe.measure(from_x(x))
            steps += 1
            latest[bool(p.w.min() < threshold)] = p
            return p.excess(threshold)

        # refined within the failing scan step to 1e-15 + 4 eps |x| in x
        x = _zeroin(excess, to_x(ends[0].value), to_x(ends[1].value),
                    ends[0].excess(threshold), ends[1].excess(threshold), 1e-15)
        critical, is_bound, kept = float(from_x(x)), False, latest.values()
    done = next((p for p in kept if p.value == critical), None)
    p, defect = probe.measure(critical, done, defect=True)
    order = slice(None, None, 1 if scan[0] < scan[-1] else -1)  # the report is increasing
    return MovingSphereReport(
        kind=probe.kind, n=probe.n, center=probe.center, direction=probe.direction,
        values=scan[order], min_w=stats[order, 0], sup_abs_w=stats[order, 1], defect=None,
        critical=critical, sup_w_at_critical=p.stats()[1], defect_at_critical=defect,
        critical_is_bound=is_bound, refine_evaluations=steps, retried=probe.retried,
    )


def critical_lambda(u, xi0, tol: float = 1e-9,
                    rng: np.random.Generator | None = None) -> MovingSphereReport:
    """The critical inversion radius at base point xi0, by zeroin in ln lambda
    on the first failing step of a scan of 32 radii from 0.02 to 50 in
    geometric steps.  `critical` is a crossing of min w in that step, not
    necessarily the first one there: min w can cross the threshold more
    than once in one step, and the root-finder may land on a later one.

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
    As for `critical_lambda`, `critical` is a crossing of min w in that
    step, not necessarily the first one there.

    Large offsets (small caps) are the safe end; the offset decreases until
    the comparison fails.  If no sign change occurs down to -6 the report
    carries critical_is_bound = True (read: the critical offset is <= -6).
    """
    return _critical_search(_CapProbe(u, None, e, rng), np.linspace(6.0, -6.0, 32),
                            float, float, tol)
