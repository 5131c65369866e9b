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
from dataclasses import asdict, dataclass, field

import numpy as np

from .conformal import ConformalMap, Moebius, inverse, jacobian, pullback
from .harmonics import (
    HarmonicCoeffs,
    MultiplierTable,
    analyze,
    apply_H,
    as_evaluable,
    degree_of_index,
    h_multiplier_table,
    synthesize,
)
from .specfun import ln_gamma
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
    return (4.0 / n) * math.exp(0.5 * n * math.log(math.pi) - ln_gamma(0.5 * n))


def energy_spectral(u: HarmonicCoeffs, v: HarmonicCoeffs,
                    table: MultiplierTable | None = None) -> float:
    """E[u,v] = sum h_l u_{l,m} v_{l,m}; exact at the band limit."""
    if u.n != v.n or u.L != v.L:
        raise ValueError(
            f"coefficient shape mismatch: (n={u.n}, L={u.L}) vs (n={v.n}, L={v.L})"
        )
    if table is None:
        table = h_multiplier_table(u.n, u.L)
    # grouping u*v first makes the form exactly symmetric in its arguments
    return float(np.sum(table.per_slot(u.L) * (u.coeffs * v.coeffs)))


def _pair_energy_sums(grid: QuadratureGrid, V: np.ndarray, eps_list) -> np.ndarray:
    """sum_{|xi_i - xi_j| >= eps} w_i w_j (V_i - V_j)^2 / |xi_i - xi_j|^n
    for each eps and each column of V.

    K being symmetric, the sum is 2 sum w V^2 (K w) - 2 sum w V K(w V); one
    kernel product per eps serves every column.
    """
    V = np.atleast_2d(V.T).T  # (N, k)
    wV = grid.weights[:, None] * V
    out = np.empty((len(eps_list), V.shape[1]))
    for ei, eps in enumerate(eps_list):
        Kw, KwV = weighted_kernel_products(grid, 0.5 * grid.n, eps, V)
        out[ei] = 2.0 * (wV * V).T @ Kw - 2.0 * np.sum(wV * KwV, axis=0)
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


def beckner_rhs(u: GridFunction) -> float:
    """C_n int u^2 ln(u^2 |S^n| / ||u||^2), with 0 ln 0 := 0."""
    grid = u.grid
    vals = u.values
    usq = vals * vals
    norm_sq = float(np.sum(grid.weights * usq))
    if norm_sq <= 0.0:
        raise ValueError("the zero function has no entropy term")
    area = sphere_area(grid.n)
    logs = np.where(usq > 0.0, np.log(np.maximum(usq, 1e-300)), 0.0)
    entropy = float(np.sum(grid.weights * usq * logs))
    entropy += norm_sq * math.log(area / norm_sq)
    return constant_Cn(grid.n) * entropy


@dataclass
class DeficitReport:
    energy_term: float
    entropy_term: float
    deficit: float
    n: int
    L: int
    grid_degree: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def entropy_degree(L: int) -> int:
    """Exact to degree 4L, enough to suppress aliasing in u^2 ln u^2."""
    return max(2 * L, 4)


def default_entropy_grid(n: int, L: int) -> QuadratureGrid:
    return build_grid(n, entropy_degree(L))


def beckner_deficit(u: HarmonicCoeffs, grid: QuadratureGrid | None = None) -> DeficitReport:
    """Deficit 2 E[u,u] - C_n int u^2 ln(u^2 |S^n|/||u||^2); nonnegative,
    and zero exactly on the conformal orbit of constants."""
    if not np.any(u.coeffs):
        raise ValueError("the zero function has no deficit")
    if grid is None:
        grid = default_entropy_grid(u.n, u.L)
    energy_term = 2.0 * energy_spectral(u, u)
    entropy_term = beckner_rhs(synthesize(u, grid))
    return DeficitReport(
        energy_term=energy_term,
        entropy_term=entropy_term,
        deficit=energy_term - entropy_term,
        n=u.n,
        L=u.L,
        grid_degree=grid.degree,
    )


_EL_FLOOR = 1e-12  # el_residual takes ln max(u, _EL_FLOOR)


@dataclass
class ELResidual:
    """Weak-equation residuals r_{l,m} = E[Y_{l,m}, u] - C_n int Y_{l,m} u ln u
    against test harmonics of degree <= L_test."""

    n: int
    L: int
    L_test: int
    grid_degree: int
    residuals: np.ndarray
    floored: bool
    max_abs: float = field(init=False)

    def __post_init__(self):
        self.residuals = np.asarray(self.residuals, dtype=float)
        self.max_abs = float(np.abs(self.residuals).max())

    def _coeffs(self) -> HarmonicCoeffs:
        return HarmonicCoeffs(self.n, self.L_test, self.residuals)

    def get(self, l: int, m: int) -> float:
        return self._coeffs().get(l, m)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "L": self.L,
            "L_test": self.L_test,
            "grid_degree": self.grid_degree,
            "floored": self.floored,
            "floor": _EL_FLOOR,
            "max_abs": self.max_abs,
            "residuals": self._coeffs().triplets(),
        }


def el_residual(u: HarmonicCoeffs, L_test: int) -> ELResidual:
    """Residuals on the entropy grid, with ln u floored at _EL_FLOOR."""
    if L_test > u.L:
        raise ValueError(f"L_test={L_test} exceeds the band limit L={u.L}")
    grid = default_entropy_grid(u.n, u.L)
    vals = synthesize(u, grid).values
    floored = bool(np.any(vals < _EL_FLOOR))
    logs = np.log(np.maximum(vals, _EL_FLOOR))
    rhs = analyze(GridFunction(grid, vals * logs), L_test)
    res = apply_H(u.with_band_limit(L_test)).coeffs - constant_Cn(u.n) * rhs.coeffs
    return ELResidual(n=u.n, L=u.L, L_test=L_test, grid_degree=grid.degree,
                      residuals=res, floored=floored)


# ---------------------------------------------------------------------------
# conformal transformation identities as numerical residuals

def verify_conf_E(u: HarmonicCoeffs, v: HarmonicCoeffs, phi: ConformalMap,
                  grid: QuadratureGrid) -> float:
    """Residual |E[u_phi, v_phi] - (E[u,v] + C_n int u v ln J_{phi^{-1}}^{-1/2})|.

    Pullbacks are re-projected to band limit grid.degree before the spectral
    energy; the tolerance owns the truncation error.
    """
    if not isinstance(phi, Moebius):
        raise ValueError("the identity check projects pullbacks spectrally; "
                         "use a globally smooth Moebius map")
    if u.n != v.n:
        raise ValueError("dimension mismatch between u and v")
    u_pb = analyze(grid.sample(pullback(as_evaluable(u), phi)), grid.degree)
    v_pb = analyze(grid.sample(pullback(as_evaluable(v), phi)), grid.degree)
    _check_projection_tail(u_pb)
    lhs = energy_spectral(u_pb, v_pb)
    uv = synthesize(u, grid).values * synthesize(v, grid).values
    log_jinv = np.log(jacobian(inverse(phi), grid.nodes))
    correction = constant_Cn(u.n) * float(np.sum(grid.weights * uv * (-0.5) * log_jinv))
    rhs = energy_spectral(u, v) + correction
    return abs(lhs - rhs)


def verify_conf_H(u: HarmonicCoeffs, phi: ConformalMap, grid: QuadratureGrid) -> float:
    """Max node residual of H(u_phi) = (Hu)_phi + C_n u_phi ln J_phi^{1/2}."""
    if not isinstance(phi, Moebius):
        raise ValueError("the identity check projects pullbacks spectrally; "
                         "use a globally smooth Moebius map")
    u_pb_vals = grid.sample(pullback(as_evaluable(u), phi))
    c_pb = analyze(u_pb_vals, grid.degree)
    _check_projection_tail(c_pb)
    lhs = synthesize(apply_H(c_pb), grid).values
    hu_pb = pullback(as_evaluable(apply_H(u)), phi)(grid.nodes)
    log_j = 0.5 * np.log(jacobian(phi, grid.nodes))
    rhs = hu_pb + constant_Cn(u.n) * u_pb_vals.values * log_j
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


def gibbs_gap(f: GridFunction, g: GridFunction) -> float:
    """Gap int f ln f + ln int e^g - int f g >= 0 for densities f."""
    grid = f.grid
    if g.grid is not grid:
        raise ValueError("grid mismatch between density and exponent")
    fv, gv = f.values, g.values
    if np.any(fv < 0.0):
        raise ValueError("density must be nonnegative")
    mass = float(np.sum(grid.weights * fv))
    if abs(mass - 1.0) > 1e-10:
        raise ValueError(f"density must integrate to 1, got {mass}")
    flogf = float(np.sum(grid.weights * np.where(fv > 0.0, fv * np.log(np.maximum(fv, 1e-300)), 0.0)))
    gmax = float(gv.max())
    log_int_eg = gmax + math.log(float(np.sum(grid.weights * np.exp(gv - gmax))))
    fg = float(np.sum(grid.weights * fv * gv))
    return flogf + log_int_eg - fg
