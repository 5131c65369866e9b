"""The `verify` suites, one ordered table of `Suite` records that check the
paper's identities on random inputs against bounds that scale with `--tol`.
The suite at position k draws from a generator seeded with seed + 1000 k.
Suites read `n`, `band_limit`, `grid_degree` and `fault` from the config
they are given; `Suite.check` scales each bound by the config's `tol`."""

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


def _energyharmonics_degree(cfg) -> int:
    return cfg.grid_degree or (48 if cfg.n == 2 else 64)


def _work_band_limit(cfg) -> int:
    """Band limit and grid degree of the conformal-identity suites."""
    return max(32, 2 * cfg.band_limit)


def _state_band_limit(cfg) -> int:
    """Band limit of the random states of the conformal-identity suites."""
    return max(4, cfg.band_limit // 2)


GIBBS_L, GIBBS_DEGREE, GIBBS_STATES = 6, 16, 300  # gibbs' band limit, grid, states


def table_needs(cfg) -> dict[str, int]:
    """Peak bytes of the suites, by the input that sets them.  The band limit
    sets the conformal-identity suites': on the work grid, the transform
    table at the work band limit (the states are synthesized there too), one
    `evaluate_at` at its nodes and 16 node arrays; on small grids `gibbs`
    (six arrays of its node values, three of its coefficients, 256 KiB)
    needs more, and the other suites always less.  The grid degree sets
    `energyharmonics`' kernel pass."""
    n, L_work, L_state = cfg.n, _work_band_limit(cfg), _state_band_limit(cfg)
    nodes = math.prod(sp.grid_shape(n, L_work))
    conformal = (hm.transform_table_bytes(n, L_work, L_work)
                 + hm.evaluate_at_bytes(n, L_state, nodes) + 8 * 16 * nodes)
    gibbs = 8 * GIBBS_STATES * (6 * math.prod(sp.grid_shape(n, GIBBS_DEGREE))
                                + 3 * hm.harmonic_count(n, GIBBS_L))
    degree = _energyharmonics_degree(cfg)
    return {f"band limit {cfg.band_limit}": max(conformal, gibbs + 256 * 1024),
            f"grid degree {degree}": sp.radial_kernel_bytes(n, degree)}


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
    n = cfg.n
    violations, pairs, worst = 0, 0, math.inf
    for _ in range(20):
        for phi in (_random_inversion(n, rng),
                    cf.LiftedReflection(float(rng.uniform(-1.0, 1.0)), rng.standard_normal(n))):
            region = cf.region_of(phi)
            a = cf.sample_region(region, 2500, rng)
            b = cf.sample_region(region, 2500, rng)
            ok = np.sum((a - b) ** 2, axis=1) > 1e-12
            if not ok.all():
                a, b = a[ok], b[ok]
            vals = cf.kernel_l(phi, a, b)
            pairs += int(ok.sum())
            violations += int(np.sum(vals <= 0.0))
            worst = min(worst, float(vals.min()))
    return violations, {"pairs": pairs, "min_kernel": worst}


# The two conformal-identity suites report their worst error relative to the
# size of the state.

def _suite_conf_transf_E(cfg, rng):
    n, L_in = cfg.n, _state_band_limit(cfg)
    grid = sp.build_grid(n, _work_band_limit(cfg))
    worst = 0.0
    for _ in range(3):
        u, v = hm.random_coeffs(n, L_in, rng), hm.random_coeffs(n, L_in, rng)
        phi = cf.Moebius(_random_zeta(n, rng, 0.1, 0.5))
        res = en.verify_conf_E(u, v, phi, grid)
        worst = max(worst, res / (1.0 + abs(en.energy_spectral(u, v))))
    return worst, {}


def _suite_conf_transf_H(cfg, rng):
    n, L_in = cfg.n, _state_band_limit(cfg)
    grid = sp.build_grid(n, _work_band_limit(cfg))
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
    grid = sp.build_grid(n, _energyharmonics_degree(cfg))
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
    n, L = cfg.n, max(8, cfg.band_limit // 2)
    # one entropy grid serves every deficit, one degree-L grid every member
    grid, member_grid = en.default_entropy_grid(n, L), sp.build_grid(n, L)
    randoms = [en.beckner_deficit(hm.random_coeffs(n, L, rng), grid) for _ in range(20)]
    family = [en.beckner_deficit(dy.family_coeffs(cf.ExtremizerParams(
        _random_zeta(n, rng, 0.1, 0.5)), L, member_grid), grid) for _ in range(5)]
    return (max(abs(r.deficit) / r.energy_term for r in family),
            {"min_random_relative_deficit": min(r.deficit / r.energy_term for r in randoms)})


def _suite_el_residual(cfg, rng):
    n, L = cfg.n, cfg.band_limit
    L_test = min(8, L // 2)
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
    fault: Callable | None = None  # (checked quantity, scale) -> perturbed quantity

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
    Suite("kernel_sign", _suite_kernel_sign, (Bound("<=", 0.0),)),
    Suite("conf_transf_E", _suite_conf_transf_E, (Bound("<=", 1e-3),)),
    Suite("conf_transf_H", _suite_conf_transf_H, (Bound("<=", 1e-3),)),
    Suite("energyharmonics", _suite_energyharmonics, (Bound("<=", 2e-2),),
          fault=lambda table, scale: table * scale),
    Suite("gibbs", _suite_gibbs,
          (Bound(">=", -1e-10),
           Bound("<=", 1e-9, "max_equality_gap", "equality_tolerance"))),
    Suite("deficit_nonneg", _suite_deficit,
          (Bound("<=", 1e-3),
           Bound(">=", -1e-6, "min_random_relative_deficit", "random_tolerance"))),
    Suite("el_residual_family", _suite_el_residual, (Bound("<=", 1e-3),)),
)


def _faulted(cfg, name: str, quantity):
    """`quantity`, perturbed by suite `name`'s fault if the config injects it."""
    fault = cfg.fault or {}
    if fault.get("suite") != name:
        return quantity
    suite = next(s for s in SUITES if s.name == name)
    return suite.fault(quantity, float(fault.get("scale", FAULT_SCALE)))


def run_suites(cfg) -> list[dict]:
    """Every suite's report entry in table order, printing a PASS/FAIL line each."""
    results = []
    for k, suite in enumerate(SUITES):
        res = suite.check(cfg, np.random.default_rng(cfg.seed + 1000 * k))
        print(f"{'PASS' if res['passed'] else 'FAIL'}  {res['name']:<22} "
              f"metric={res['metric']:.3e}")
        results.append(res)
    return results
