"""The `verify` suites, one ordered table of `Suite` records that check the
paper's identities on random inputs against bounds that scale with `--tol`.
The suite at position k draws from a generator seeded with seed + 1000 k.
Suites read `n` and `fault` from the config they are given; their band
limits and grids are the constants below, and so follow from `n` alone.
`Suite.check` scales each bound by the config's `tol`."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import conformal as cf
from . import dynamics as dy
from . import energy as en
from . import harmonics as hm
from . import sphere as sp

# the scale of a fault that names none, and the range of |scale| in which a
# faulted suite's metric stays finite: no zero, underflowed or overflowed energy
FAULT_SCALE = 1.05
FAULT_SCALE_RANGE = (1e-300, 1e300)

CONFORMAL_L, CONFORMAL_STATE_L = 32, 8  # conformal suites' work band and grid, states
GIBBS_L, GIBBS_DEGREE, GIBBS_STATES = 6, 16, 300  # gibbs' band limit, grid, states
ENERGYHARMONICS_DEGREE = {1: 64, 2: 48}  # the pair-sum grid's degree, by n
DEFICIT_L = 8  # deficit_nonneg's band limit
EL_L, EL_TEST_L = 16, 8  # el_residual_family's member and test band limits


def _random_zeta(n: int, rng: np.random.Generator, lo: float, hi: float) -> np.ndarray:
    """A uniformly directed vector in R^{n+1} with length drawn from [lo, hi)."""
    zdir = rng.standard_normal(n + 1)
    zdir *= rng.uniform(lo, hi) / np.linalg.norm(zdir)
    return zdir


def _random_inversion(n: int, rng: np.random.Generator) -> cf.LiftedInversion:
    xi0 = rng.standard_normal(n + 1)
    if 1.0 + sp.sphere_point(xi0)[-1] < 0.2:  # keep the base point away from the south pole
        xi0 = -xi0
    return cf.LiftedInversion(float(rng.uniform(0.3, 2.0)), xi0)


def _random_maps(n: int, rng: np.random.Generator, count: int):
    maps = []
    for _ in range(count):
        maps.append(_random_inversion(n, rng))
        e = rng.standard_normal(n)
        maps.append(cf.LiftedReflection(float(rng.uniform(-1.0, 1.0)), e))
        maps.append(cf.Moebius(_random_zeta(n, rng, 0.1, 0.6)))
    return maps


def _suite_conformal_distance(cfg, rng):
    n, worst = cfg.n, 0.0
    for phi in _random_maps(n, rng, 5):
        pts = sp.sphere_point(rng.standard_normal((200, n + 1)))
        mapped, jac = cf.map_with_jacobian(phi, pts)
        (a, b), (ma, mb), (ja, jb) = (np.split(x, 2) for x in (pts, mapped, jac))
        lhs = ja ** (1.0 / n) * np.sum((a - b) ** 2, axis=1) * jb ** (1.0 / n)
        rhs = np.sum((ma - mb) ** 2, axis=1)
        worst = max(worst, float(np.abs(lhs / rhs - 1.0).max()))
    return worst, {}


def _suite_kernel_sign(cfg, rng):
    # per map, every pair of two 50-point cap samples from one map pass
    n = cfg.n
    violations, pairs, worst, residual, min_kappa = 0, 0, math.inf, 0.0, math.inf
    for _ in range(20):
        for phi in (_random_inversion(n, rng),
                    cf.LiftedReflection(float(rng.uniform(-1.0, 1.0)), rng.standard_normal(n))):
            region = cf.region_of(phi)
            # less the eta points within 1e-6 of a xi point: |xi - eta|^2 = 2 - 2 xi.eta
            pts = cf.sample_region(region, 100, rng)
            xi, eta = pts[:50], pts[50:]
            eta = eta[np.min(2.0 - 2.0 * (xi @ eta.T), axis=0) > 1e-12]
            vals, gap = cf.kernel_l(phi, xi, eta)
            c = region.cos_threshold
            kappa = float(_faulted(cfg, "kernel_sign", 4.0 / (1.0 - c * c)))
            g_xi, g_eta = (np.sum(p * region.axis, axis=1) - c for p in (xi, eta))
            off = np.abs(gap - np.multiply.outer(kappa * g_xi, g_eta)).max()
            residual = max(residual, float(off / (1.0 + np.abs(gap).max())))
            pairs, violations = pairs + vals.size, violations + int(np.sum(vals <= 0.0))
            worst, min_kappa = min(worst, float(vals.min())), min(min_kappa, kappa)
    return violations, {"pairs": pairs, "min_kernel": worst,
                        "identity_residual": residual, "min_kappa": min_kappa}


# The two conformal-identity suites report their worst error relative to the
# size of the state.

def _suite_conf_transf_E(cfg, rng):
    n, L_in = cfg.n, CONFORMAL_STATE_L
    grid = sp.build_grid(n, CONFORMAL_L)
    worst = 0.0
    for _ in range(3):
        u, v = hm.random_coeffs(n, L_in, rng), hm.random_coeffs(n, L_in, rng)
        phi = cf.Moebius(_random_zeta(n, rng, 0.1, 0.5))
        res = en.verify_conf_E(u, v, phi, grid)
        worst = max(worst, res / (1.0 + abs(en.energy_spectral(u, v))))
    return worst, {}


def _suite_conf_transf_H(cfg, rng):
    n, L_in = cfg.n, CONFORMAL_STATE_L
    grid = sp.build_grid(n, CONFORMAL_L)
    worst = 0.0
    for _ in range(3):
        u = hm.random_coeffs(n, L_in, rng)
        phi = cf.Moebius(_random_zeta(n, rng, 0.1, 0.4))
        res = en.verify_conf_H(u, phi, grid)
        hu = hm.synthesize(hm.apply_H(u).with_band_limit(grid.degree), grid).values
        worst = max(worst, res / max(1.0, float(np.abs(hu).max())))
    return worst, {}


def _suite_energyharmonics(cfg, rng):
    n, L = cfg.n, 8
    grid = sp.build_grid(n, ENERGYHARMONICS_DEGREE[n])
    table = _faulted(cfg, "energyharmonics", hm.h_multiplier_table(n, L))
    cs = [hm.random_coeffs(n, L, rng) for _ in range(3)]
    # one synthesis and one kernel pass per cutoff serve the three states
    values = hm.synthesize_values(L, np.stack([c.coeffs for c in cs]), grid)
    direct = 2.0 * en.energy_direct_extrapolated_many(grid, values.T)
    spectral = [2.0 * en.energy_spectral(c, c, table=table) for c in cs]
    return max(abs(float(d) - s) / abs(s) for d, s in zip(direct, spectral)), {}


def _suite_gibbs(cfg, rng):
    n, L, count = cfg.n, GIBBS_L, GIBBS_STATES
    grid = sp.build_grid(n, GIBBS_DEGREE)
    # one row per state: the Gaussians of f, of g, then the shift; f and g
    # damped as `random_coeffs` damps them at decay 1
    slots = hm.harmonic_count(n, L)
    draws = rng.standard_normal((count, 2 * slots + 1))
    damping = 1.0 + hm.degree_of_index(n, L)
    fv = np.abs(hm.synthesize_values(L, draws[:, :slots] / damping, grid)) + 0.05
    fv /= np.sum(grid.weights * fv, axis=1, keepdims=True)
    gv = hm.synthesize_values(L, draws[:, slots:-1] / damping, grid)
    worst_gap = float(en.gibbs_gap(grid, fv, gv).min())
    eq = en.gibbs_gap(grid, fv, np.log(fv) + draws[:, -1:])
    return worst_gap, {"max_equality_gap": float(np.abs(eq).max())}


def _suite_deficit(cfg, rng):
    n, L = cfg.n, DEFICIT_L
    # one entropy grid serves every deficit, one degree-L grid every member
    grid, member_grid = en.default_entropy_grid(n, L), sp.build_grid(n, L)
    randoms = [en.beckner_deficit(hm.random_coeffs(n, L, rng), grid) for _ in range(20)]
    family = [en.beckner_deficit(dy.family_coeffs(cf.ExtremizerParams(
        _random_zeta(n, rng, 0.1, 0.5)), L, member_grid), grid) for _ in range(5)]
    return (max(abs(r.deficit) / r.energy_term for r in family),
            {"min_random_relative_deficit": min(r.deficit / r.energy_term for r in randoms)})


def _suite_el_residual(cfg, rng):
    n, L, L_test = cfg.n, EL_L, EL_TEST_L
    # one degree-L grid serves every member, one entropy grid every residual
    member_grid, grid = sp.build_grid(n, L), en.default_entropy_grid(n, L)
    worst = 0.0
    for mag in (0.0, 0.2, 0.4):
        zdir = rng.standard_normal(n + 1)
        zdir *= mag / np.linalg.norm(zdir)
        member = dy.family_coeffs(cf.ExtremizerParams(zdir), L, member_grid)
        worst = max(worst, en.el_residual(member, L_test, grid).max_abs)
    return worst, {}


_OPS = {"<=": operator.le, ">=": operator.ge}


@dataclass(frozen=True)
class Bound:
    """`value op limit x tol`: the metric, with the limit reported as its
    "tolerance", or the detail `value`, with the limit as detail `reported`."""
    op: str  # "<=" or ">="
    limit: float  # the bound at --tol 1
    value: str = "metric"
    reported: str = "tolerance"


@dataclass(frozen=True)
class Suite:
    name: str
    run: Callable  # (cfg, rng) -> (metric, details)
    bounds: tuple[Bound, ...]
    fault: bool = False  # whether a config's fault may scale its checked quantity

    def check(self, cfg, rng: np.random.Generator) -> dict:
        """The suite's report entry: metric, details, limits and verdict."""
        metric, details = self.run(cfg, rng)
        values = {"metric": metric, **details}
        result, checks = {"name": self.name, "metric": metric}, []
        for b in self.bounds:
            limit = b.limit * cfg.tol
            (result if b.value == "metric" else details)[b.reported] = limit
            checks.append(_OPS[b.op](values[b.value], limit))
        result["passed"] = all(checks)
        return result | ({"details": details} if details else {})


SUITES = (
    Suite("conformal_distance", _suite_conformal_distance, (Bound("<=", 1e-9),)),
    # worst identity_residual at seeds 1000-1299: 1.7e-15 (S^1), 2.6e-15 (S^2)
    Suite("kernel_sign", _suite_kernel_sign,
          (Bound("<=", 0.0), Bound("<=", 1e-11, "identity_residual", "identity_tolerance")),
          fault=True),
    Suite("conf_transf_E", _suite_conf_transf_E, (Bound("<=", 1e-3),)),
    Suite("conf_transf_H", _suite_conf_transf_H, (Bound("<=", 1e-3),)),
    Suite("energyharmonics", _suite_energyharmonics, (Bound("<=", 2e-2),),
          fault=True),
    Suite("gibbs", _suite_gibbs,
          (Bound(">=", -1e-10),
           Bound("<=", 1e-9, "max_equality_gap", "equality_tolerance"))),
    Suite("deficit_nonneg", _suite_deficit,
          (Bound("<=", 1e-3),
           Bound(">=", -1e-6, "min_random_relative_deficit", "random_tolerance"))),
    Suite("el_residual_family", _suite_el_residual, (Bound("<=", 1e-3),)),
)


def _faulted(cfg, name: str, quantity):
    """`quantity`, times the fault's scale if the config's fault names suite `name`."""
    fault = cfg.fault or {}
    if fault.get("suite") != name:
        return quantity
    return quantity * float(fault.get("scale", FAULT_SCALE))


def run_suites(cfg) -> list[dict]:
    """Every suite's report entry in table order, printing a PASS/FAIL line each."""
    results = []
    for k, suite in enumerate(SUITES):
        res = suite.check(cfg, np.random.default_rng(cfg.seed + 1000 * k))
        print(f"{'PASS' if res['passed'] else 'FAIL'}  {res['name']:<22} "
              f"metric={res['metric']:.3e}")
        results.append(res)
    return results
