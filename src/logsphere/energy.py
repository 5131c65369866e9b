"""The quadratic energy form, the log-Sobolev functional and its deficit,
Euler-Lagrange residuals, conformal transformation identities, and the
entropy duality (Gibbs) inequality.

The spectral route is primary: for band-limited u, v the energy is the
exactly representable sum E[u,v] = sum_l h_l u_{l,m} v_{l,m}.  The direct
double-quadrature of the difference kernel is a cross-check path with a
chordal exclusion |xi-eta| >= eps and Richardson extrapolation in eps, eps
set by the grid (the excluded mass scales like eps^2 because the squared
difference vanishes quadratically on the diagonal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .conformal import ConformalMap, Moebius, map_with_jacobian
from .harmonics import (
    HarmonicCoeffs,
    analyze,
    apply_H,
    degree_of_index,
    evaluate_at,
    h_multiplier_table,
    log_operator_scale,
    synthesize,
)
from .sphere import (
    GridFunction,
    QuadratureGrid,
    build_grid,
    min_internode_distance,
    sphere_area,
    weighted_kernel_products,
)

CUTOFF_MARGIN = 1.25  # least ratio of default_energy_eps to the pair-sum guard


def constant_Cn(n: int) -> float:
    """Sharp constant (4/n) pi^{n/2} / Gamma(n/2) of the log-Sobolev bound."""
    if n < 1:
        raise ValueError(f"invalid dimension n={n}")
    return 2.0 / n * log_operator_scale(n)


def energy_spectral(u: HarmonicCoeffs, v: HarmonicCoeffs,
                    table: np.ndarray | None = None) -> float:
    """E[u,v] = sum h_l u_{l,m} v_{l,m}; exact at the band limit.  `table`
    replaces h_l at each slot (`h_multiplier_table`)."""
    if u.n != v.n or u.L != v.L:
        raise ValueError(
            f"coefficient shape mismatch: (n={u.n}, L={u.L}) vs (n={v.n}, L={v.L})"
        )
    if table is None:
        table = h_multiplier_table(u.n, u.L)
    # grouping u*v first makes the form exactly symmetric in its arguments
    return float(np.sum(table * (u.coeffs * v.coeffs)))


def _pair_energy_sums(grid: QuadratureGrid, V: np.ndarray, eps_list) -> np.ndarray:
    """sum_{|xi_i - xi_j| >= eps} w_i w_j (V_i - V_j)^2 / |xi_i - xi_j|^n
    for each eps and each column of the (N, k) array V.

    K being symmetric, the sum is 2 sum w V^2 (K w) - 2 sum w V K(w V); one
    kernel product per eps serves every column.
    """
    wV = grid.weights[:, None] * V
    out = np.empty((len(eps_list), V.shape[1]))
    for ei, eps in enumerate(eps_list):
        Kw, KwV = weighted_kernel_products(grid, 0.5 * grid.n, eps, V)
        out[ei] = 2.0 * (wV * V).T @ Kw - 2.0 * np.sum(wV * KwV, axis=0)
        del Kw, KwV  # not alive during the next cutoff's kernel pass
    return out


def _cutoff_energies(u: GridFunction, v: GridFunction, eps_list) -> np.ndarray:
    """Double quadrature of E[u,v] over pairs with |xi-eta| >= eps, for each
    eps in increasing order."""
    grid = u.grid
    if v.grid is not grid:
        raise ValueError("grid mismatch: both functions must live on one grid")
    if u is v or u.values is v.values:
        return 0.5 * _pair_energy_sums(grid, u.values[:, None], eps_list)[:, 0]
    # polarization: 4 E[u,v] = E[u+v,u+v] - E[u-v,u-v]
    V = np.column_stack([u.values + v.values, u.values - v.values])
    s = _pair_energy_sums(grid, V, eps_list)
    return 0.5 * (s[:, 0] - s[:, 1]) / 4.0


def energy_direct(u: GridFunction, v: GridFunction, eps: float) -> float:
    """Double quadrature of E[u,v] over pairs with |xi-eta| >= eps."""
    return float(_cutoff_energies(u, v, [eps])[0])


def default_energy_eps(grid: QuadratureGrid) -> float:
    """2 pi / (degree + 1), twice the mean node spacing along a meridian, but
    at least CUTOFF_MARGIN times the pair-sum guard, twice the minimum node
    gap.  The first is the larger on S^2 (1.36x the guard or more); on the
    circle the two tend to each other, so there the margin sets the cutoff."""
    return max(2.0 * math.pi / (grid.degree + 1),
               CUTOFF_MARGIN * 2.0 * min_internode_distance(grid))


def energy_direct_extrapolated(u: GridFunction, v: GridFunction) -> float:
    """Richardson extrapolation over (eps, 2 eps), eps = default_energy_eps."""
    eps = default_energy_eps(u.grid)
    e1, e2 = _cutoff_energies(u, v, [eps, 2.0 * eps])
    return float((4.0 * e1 - e2) / 3.0)


def energy_direct_extrapolated_many(grid: QuadratureGrid, values: np.ndarray) -> np.ndarray:
    """`energy_direct_extrapolated` of several functions at once (columns of
    `values`); one kernel product per cutoff serves all."""
    eps = default_energy_eps(grid)
    s = _pair_energy_sums(grid, values, [eps, 2.0 * eps])
    return 0.5 * (4.0 * s[0] - s[1]) / 3.0


def _entropy_log_factor(usq: np.ndarray, norm_sq: float, area: float) -> np.ndarray:
    """ln(u^2 |S^n| / ||u||^2) at the nodes where u^2 > 0, and 0 elsewhere (NaN
    nodes included), so that u^2 times it is the entropy density with 0 ln 0
    := 0.  It is one new array, worked in place; its bits are those of the
    out-of-place `np.where(usq > 0, ln max(usq, 1e-300) + c, 0)`."""
    logfac = np.maximum(usq, 1e-300)
    np.log(logfac, out=logfac)
    logfac += math.log(area / norm_sq)
    np.copyto(logfac, 0.0, where=~(usq > 0.0))
    return logfac


def beckner_rhs(u: GridFunction) -> float:
    """C_n int u^2 ln(u^2 |S^n| / ||u||^2), with 0 ln 0 := 0."""
    grid = u.grid
    usq = u.values * u.values
    norm_sq = float(np.sum(grid.weights * usq))
    if norm_sq <= 0.0:
        raise ValueError("the zero function has no entropy term")
    logfac = _entropy_log_factor(usq, norm_sq, sphere_area(grid.n))
    return constant_Cn(grid.n) * float(np.sum(grid.weights * usq * logfac))


@dataclass
class DeficitReport:
    energy_term: float
    entropy_term: float
    deficit: float


def entropy_degree(L: int) -> int:
    """Exact to degree 4L, enough to suppress aliasing in u^2 ln u^2."""
    return max(2 * L, 4)


def default_entropy_grid(n: int, L: int) -> QuadratureGrid:
    return build_grid(n, entropy_degree(L))


def deficit_terms(u: HarmonicCoeffs, grid: QuadratureGrid) -> tuple[DeficitReport, np.ndarray]:
    """The deficit 2 E[u,u] - C_n int u^2 ln(u^2 |S^n|/||u||^2) with the
    Parseval norm, and the node values u ln(u^2 |S^n|/||u||^2) that its
    gradient projects (`deficit_gradient_at`).

    The entropy pass works in place: the integrand w u^2 ln(...) overwrites
    u^2 and the density the log factor, each product in the order of
    `grid.weights * usq * logfac` and `vals * logfac`, whose bits it keeps."""
    c = u.coeffs
    norm_sq = u.norm_sq()
    if norm_sq <= 0.0:
        raise ValueError("the zero function has no deficit")
    vals = synthesize(u, grid).values
    usq = vals * vals
    logfac = _entropy_log_factor(usq, norm_sq, sphere_area(u.n))
    energy_term = 2.0 * float(np.sum(h_multiplier_table(u.n, u.L) * c * c))
    usq *= grid.weights
    usq *= logfac
    entropy_term = constant_Cn(u.n) * float(np.sum(usq))
    report = DeficitReport(energy_term, entropy_term, energy_term - entropy_term)
    logfac *= vals
    return report, logfac


def deficit_gradient_at(u: HarmonicCoeffs, grid: QuadratureGrid,
                        density: np.ndarray) -> np.ndarray:
    """Coefficient-space gradient 4 h u - 2 C_n analyze(density) of the
    unconstrained deficit, from `deficit_terms(u, grid)`'s density."""
    entropy = analyze(GridFunction(grid, density), u.L).coeffs
    return 4.0 * h_multiplier_table(u.n, u.L) * u.coeffs - 2.0 * constant_Cn(u.n) * entropy


def beckner_deficit(u: HarmonicCoeffs, grid: QuadratureGrid | None = None) -> DeficitReport:
    """Deficit 2 E[u,u] - C_n int u^2 ln(u^2 |S^n|/||u||^2); nonnegative,
    and zero exactly on the conformal orbit of constants."""
    if grid is None:
        grid = default_entropy_grid(u.n, u.L)
    return deficit_terms(u, grid)[0]


_EL_FLOOR = 1e-12  # el_residual takes ln max(u, _EL_FLOOR)


@dataclass
class ELResidual:
    """Weak-equation residuals r_{l,m} = E[Y_{l,m}, u] - C_n int Y_{l,m} u ln u
    against the test harmonics of degree <= residuals.L."""

    residuals: HarmonicCoeffs
    floored: bool
    max_abs: float = field(init=False)

    def __post_init__(self):
        self.max_abs = float(np.abs(self.residuals.coeffs).max())


def el_residual(u: HarmonicCoeffs, L_test: int,
                grid: QuadratureGrid | None = None) -> ELResidual:
    """Residuals on `grid`, by default the entropy grid of u's band limit
    (built here when none is passed), with ln u floored at _EL_FLOOR."""
    if L_test > u.L:
        raise ValueError(f"L_test={L_test} exceeds the band limit L={u.L}")
    if grid is None:
        grid = default_entropy_grid(u.n, u.L)
    vals = synthesize(u, grid).values
    floored = bool(np.any(vals < _EL_FLOOR))
    logs = np.log(np.maximum(vals, _EL_FLOOR))
    rhs = analyze(GridFunction(grid, vals * logs), L_test)
    res = apply_H(u.with_band_limit(L_test)).coeffs - constant_Cn(u.n) * rhs.coeffs
    return ELResidual(residuals=HarmonicCoeffs(u.n, L_test, res), floored=floored)


# ---------------------------------------------------------------------------
# conformal transformation identities as numerical residuals

def _check_identity_inputs(phi: ConformalMap, grid: QuadratureGrid, *states: HarmonicCoeffs):
    """Refuse a map that is not Moebius, and a map or states on another
    sphere than the grid's or states above its band limit: the grid cannot
    project their pullbacks."""
    if not isinstance(phi, Moebius):
        raise ValueError("the identity check projects pullbacks spectrally; "
                         "use a globally smooth Moebius map")
    if any(x.n != grid.n for x in (phi, *states)):
        raise ValueError(f"the map and the states must act on the grid's S^{grid.n}")
    L = max(s.L for s in states)
    if L > grid.degree:
        raise ValueError(f"states of band limit {L} exceed the grid's band limit {grid.degree}")


def verify_conf_E(u: HarmonicCoeffs, v: HarmonicCoeffs, phi: ConformalMap,
                  grid: QuadratureGrid) -> float:
    """Residual |E[u_phi, v_phi] - (E[u,v] + C_n int u_phi v_phi ln J_phi^{1/2})|.

    The pullbacks J_phi^{1/2} u o phi and ln J_phi share one map pass of the
    grid's nodes.  Both pullbacks are re-projected to band limit grid.degree
    before the spectral energy; the tolerance owns the truncation error.
    """
    _check_identity_inputs(phi, grid, u, v)
    image, jac = map_with_jacobian(phi, grid.nodes)
    jr = np.sqrt(jac)
    u_vals, v_vals = jr * evaluate_at(u, image), jr * evaluate_at(v, image)
    u_pb = analyze(GridFunction(grid, u_vals), grid.degree)
    v_pb = analyze(GridFunction(grid, v_vals), grid.degree)
    _check_projection_tail(u_pb)
    _check_projection_tail(v_pb)
    lhs = energy_spectral(u_pb, v_pb)
    correction = constant_Cn(u.n) * float(
        np.sum(grid.weights * u_vals * v_vals * 0.5 * np.log(jac)))
    return abs(lhs - (energy_spectral(u, v) + correction))


def verify_conf_H(u: HarmonicCoeffs, phi: ConformalMap, grid: QuadratureGrid) -> float:
    """Max node residual of H(u_phi) = (Hu)_phi + C_n u_phi ln J_phi^{1/2}.

    Both pullbacks and ln J_phi come from one map pass of the grid's nodes."""
    _check_identity_inputs(phi, grid, u)
    image, jac = map_with_jacobian(phi, grid.nodes)
    jr = np.sqrt(jac)
    u_pb = jr * evaluate_at(u, image)
    c_pb = analyze(GridFunction(grid, u_pb), grid.degree)
    _check_projection_tail(c_pb)
    lhs = synthesize(apply_H(c_pb), grid).values
    hu_pb = jr * evaluate_at(apply_H(u), image)
    rhs = hu_pb + constant_Cn(u.n) * u_pb * (0.5 * np.log(jac))
    return float(np.abs(lhs - rhs).max())


def _check_projection_tail(c: HarmonicCoeffs):
    """Reject pullbacks whose top two degrees carry more than 1e-3 of the
    energy."""
    ls = degree_of_index(c.n, c.L)
    tail = float(np.sum(c.coeffs[ls >= c.L - 1] ** 2))
    total = c.norm_sq()
    if total > 0.0 and tail > 1e-3 * total:
        raise ValueError(
            "pullback projection overflow: map parameter too extreme for the "
            f"working band limit L={c.L} (top-degree energy fraction {tail/total:.2e})"
        )


def gibbs_gap(grid: QuadratureGrid, fv: np.ndarray, gv: np.ndarray) -> np.ndarray:
    """Gap int f ln f + ln int e^g - int f g >= 0 for densities f, from node
    values along the last axis: an array over the leading axes (0-d for one
    pair of (N,) rows)."""
    fv, gv = np.asarray(fv, dtype=float), np.asarray(gv, dtype=float)
    w = grid.weights
    if np.any(fv < 0.0):
        raise ValueError("density must be nonnegative")
    mass = np.sum(w * fv, axis=-1)
    if np.any(np.abs(mass - 1.0) > 1e-10):
        raise ValueError(f"density must integrate to 1, got masses {mass.min()} to {mass.max()}")
    flogf = np.sum(w * np.where(fv > 0.0, fv * np.log(np.maximum(fv, 1e-300)), 0.0), axis=-1)
    gmax = gv.max(axis=-1, keepdims=True)
    log_int_eg = gmax[..., 0] + np.log(np.sum(w * np.exp(gv - gmax), axis=-1))
    fg = np.sum(w * fv * gv, axis=-1)
    return flogf + log_int_eg - fg
