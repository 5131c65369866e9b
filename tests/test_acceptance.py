"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single pass/fail line (run with `pytest -s` to see them
all) and asserts both the numerical tolerance and the runtime budget.
"""

import math
import time

import numpy as np

from logsphere import (
    ExtremizerParams,
    Moebius,
    analyze,
    beckner_deficit,
    build_grid,
    constant_Cn,
    critical_alpha,
    critical_lambda,
    deficit_gradient,
    deficit_value,
    el_residual,
    energy_spectral,
    extremizer,
    fit_extremizer,
    gibbs_gap,
    kernel_l,
    minimize_deficit,
    multiplier_H,
    multiplier_P2s,
    north_pole,
    random_coeffs,
    region_of,
    sample_region,
    sphere_area,
    sphere_point,
    synthesize,
    verify_conf_E,
)
from logsphere.dynamics import random_positive_init
from logsphere.energy import default_entropy_grid, energy_direct_extrapolated_many
from logsphere.harmonics import h_multiplier_table, log_operator_scale
from logsphere import LiftedInversion, LiftedReflection
from oracles import coeff


def report(num, name, ok, detail, budget, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num} ({name}): {detail}; {elapsed:.1f}s of {budget:.0f}s budget")


def test_criterion_1_multiplier_identity():
    t0 = time.time()
    s = 1e-5
    worst = 0.0
    for n in (1, 2, 3, 4):
        scale = log_operator_scale(n)
        g_plus = multiplier_P2s(n, 0, s)
        g_minus = 1.0 / multiplier_P2s(n, 0, s)
        for l in range(0, 65):
            q_plus = g_plus - multiplier_P2s(n, l, s)
            q_minus = g_minus - 1.0 / multiplier_P2s(n, l, s)
            fd = scale * (q_plus - q_minus) / (4.0 * s)
            h = multiplier_H(n, l)
            if l > 0:
                worst = max(worst, abs(fd - h) / abs(h))
            else:
                worst = max(worst, abs(fd - h))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 1.0
    report(1, "multiplier identity", ok, f"max rel err {worst:.2e} (tol 1e-6)", 1, elapsed)
    assert ok


def test_criterion_2_spectral_energy_identity():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n, degree in ((2, 48), (1, 64)):
        grid = build_grid(n, degree)
        cs = [random_coeffs(n, 8, rng) for _ in range(10)]
        V = np.column_stack([synthesize(c, grid).values for c in cs])
        direct = 2.0 * energy_direct_extrapolated_many(grid, V)
        psi = h_multiplier_table(n, 8) / log_operator_scale(n)
        for k, c in enumerate(cs):
            psi_sum = float(np.sum(psi * c.coeffs**2))
            lhs = direct[k] / (n * constant_Cn(n))
            worst = max(worst, abs(lhs - psi_sum) / abs(psi_sum))
    elapsed = time.time() - t0
    ok = worst <= 2e-2 and elapsed < 120.0
    report(2, "spectral energy identity", ok, f"max rel err {worst:.2e} (tol 2e-2)", 120, elapsed)
    assert ok


def test_criterion_3_conformal_invariance_of_energy():
    t0 = time.time()
    rng = np.random.default_rng(33)
    grid = build_grid(2, 32)
    worst_ratio = 0.0
    for _ in range(10):
        u = random_coeffs(2, 8, rng)
        v = random_coeffs(2, 8, rng)
        direction = rng.standard_normal(3)
        direction *= rng.uniform(0.05, 0.5) / np.linalg.norm(direction)
        residual = verify_conf_E(u, v, Moebius(direction), grid)
        allowed = 1e-3 * (1.0 + abs(energy_spectral(u, v)))
        worst_ratio = max(worst_ratio, residual / allowed)
    elapsed = time.time() - t0
    ok = worst_ratio <= 1.0 and elapsed < 120.0
    report(3, "conformal energy identity", ok,
           f"worst residual/tolerance ratio {worst_ratio:.2e}", 120, elapsed)
    assert ok


def test_criterion_4_kernel_sign():
    t0 = time.time()
    rng = np.random.default_rng(44)
    n = 2
    violations = {"inversion": 0, "reflection": 0}
    totals = {"inversion": 0, "reflection": 0}
    for _ in range(20):
        xi0 = sphere_point(rng.standard_normal(n + 1))
        if 1.0 + xi0[-1] < 0.2:
            xi0 = -xi0
        maps = {
            "inversion": LiftedInversion(float(rng.uniform(0.2, 2.5)), xi0),
            "reflection": LiftedReflection(float(rng.uniform(-1.5, 1.5)),
                                           rng.standard_normal(n)),
        }
        for kind, phi in maps.items():
            region = region_of(phi)
            # every pair of a 100- and a 50-point cap sample: 5000 per map
            a, b = sample_region(region, 100, rng), sample_region(region, 50, rng)
            b = b[np.min(np.sum((a[:, None] - b) ** 2, axis=2), axis=0) > 1e-12]
            vals, _ = kernel_l(phi, a, b)
            totals[kind] += vals.size
            violations[kind] += int(np.sum(vals <= 0.0))
    elapsed = time.time() - t0
    ok = (violations["inversion"] == 0 and violations["reflection"] == 0
          and totals["inversion"] >= 99_000 and totals["reflection"] >= 99_000
          and elapsed < 30.0)
    report(4, "difference-kernel sign", ok,
           f"0 violations required, got {violations} over {totals} pairs", 30, elapsed)
    assert ok


def test_criterion_5_euler_lagrange_on_family():
    t0 = time.time()
    rng = np.random.default_rng(55)
    grid32 = build_grid(2, 32)
    worst = 0.0
    for mag in (0.0, 0.2, 0.4):
        direction = rng.standard_normal(3)
        zeta = mag * direction / np.linalg.norm(direction)
        u = analyze(grid32.sample(extremizer(ExtremizerParams(zeta))), 32)
        res = el_residual(u, 8)
        worst = max(worst, res.max_abs)
    # amplitude c != 1 shifts the constant-mode residual by -C_n ln(c) u_{0,0}
    c_amp = 2.0
    zeta = np.array([0.24, -0.32, 0.0])
    u = analyze(grid32.sample(extremizer(ExtremizerParams(zeta, c_amp))), 32)
    r0 = coeff(el_residual(u, 2).residuals, 0, 0)
    predicted = -constant_Cn(2) * math.log(c_amp) * coeff(u, 0, 0)
    offset_rel = abs(r0 - predicted) / abs(predicted)
    elapsed = time.time() - t0
    ok = worst <= 1e-3 and offset_rel <= 1e-6 and elapsed < 60.0
    report(5, "Euler-Lagrange residual", ok,
           f"max residual {worst:.2e} (tol 1e-3), amplitude offset rel {offset_rel:.2e} (tol 1e-6)",
           60, elapsed)
    assert ok


def test_criterion_6_deficit_nonnegativity_and_equality():
    t0 = time.time()
    rng = np.random.default_rng(66)
    n, L = 2, 8
    grid = default_entropy_grid(n, L)
    min_rel = math.inf
    for _ in range(100):
        c = random_coeffs(n, L, rng)
        rep = beckner_deficit(c, grid)
        min_rel = min(min_rel, rep.deficit / rep.energy_term)
    grid32 = build_grid(2, 32)
    worst_family = 0.0
    for _ in range(10):
        direction = rng.standard_normal(3)
        zeta = rng.uniform(0.1, 0.5) * direction / np.linalg.norm(direction)
        c_amp = float(rng.uniform(0.5, 2.0))
        u = analyze(grid32.sample(extremizer(ExtremizerParams(zeta, c_amp))), 32)
        rep = beckner_deficit(u)
        worst_family = max(worst_family, abs(rep.deficit) / rep.energy_term)
    elapsed = time.time() - t0
    ok = min_rel >= -1e-6 and worst_family <= 1e-3 and elapsed < 60.0
    report(6, "deficit nonnegativity/equality", ok,
           f"min relative deficit {min_rel:.2e} (>= -1e-6), "
           f"family |deficit| rel {worst_family:.2e} (tol 1e-3)", 60, elapsed)
    assert ok


def test_criterion_7_gibbs_inequality():
    t0 = time.time()
    rng = np.random.default_rng(77)
    grid = build_grid(2, 12)
    min_gap = math.inf
    worst_eq = 0.0
    for _ in range(1000):
        fv = np.abs(synthesize(random_coeffs(2, 5, rng), grid).values) + 0.05
        fv /= np.sum(grid.weights * fv)
        gv = synthesize(random_coeffs(2, 5, rng), grid).values
        min_gap = min(min_gap, gibbs_gap(grid, fv, gv))
        eq = gibbs_gap(grid, fv, np.log(fv) + float(rng.normal()))
        worst_eq = max(worst_eq, abs(eq))
    elapsed = time.time() - t0
    ok = min_gap >= -1e-10 and worst_eq <= 1e-9 and elapsed < 10.0
    report(7, "Gibbs inequality", ok,
           f"min gap {min_gap:.2e} (>= -1e-10), equality gap {worst_eq:.2e} (tol 1e-9)",
           10, elapsed)
    assert ok


def test_criterion_8_moving_spheres_critical_scale():
    t0 = time.time()
    one = lambda pts: np.ones(len(pts))
    rep = critical_lambda(one, north_pole(2), rng=np.random.default_rng(8))
    const_ok = abs(rep.critical - 1.0) <= 1e-2 and rep.sup_w_at_critical <= 1e-6
    worst_family = 0.0
    rng = np.random.default_rng(88)
    zetas = ([0.2, -0.1, 0.25], [0.0, 0.0, 0.4], [-0.3, 0.2, 0.1])
    bases = ([0.0, 0.0, 1.0], [1.0, 0.5, 0.3], [-0.2, 0.9, -0.6])
    for zeta in zetas:
        u = extremizer(ExtremizerParams(np.array(zeta)))
        for raw in bases:
            r = critical_lambda(u, sphere_point(raw), rng=rng)
            worst_family = max(worst_family, r.sup_w_at_critical)
    worst_reflection = 0.0
    for zeta, e in zip(zetas, ([1.0, 0.0], [0.6, 0.8], [0.0, -1.0])):
        u = extremizer(ExtremizerParams(np.array(zeta)))
        r = critical_alpha(u, np.array(e), rng=rng)
        worst_reflection = max(worst_reflection, r.sup_w_at_critical)
    elapsed = time.time() - t0
    ok = (const_ok and worst_family <= 1e-3 and worst_reflection <= 1e-3
          and elapsed < 300.0)
    report(8, "moving-spheres critical scale", ok,
           f"constant: lambda0 {rep.critical:.4f} sup|w| {rep.sup_w_at_critical:.1e}; "
           f"family sup|w| {worst_family:.1e}, reflection sup|w| {worst_reflection:.1e} (tol 1e-3)",
           300, elapsed)
    assert ok


def test_criterion_9_classification_by_flow():
    t0 = time.time()
    worst_deficit = 0.0
    worst_fit = 0.0
    worst_iters = 0
    for seed in range(5):
        rng = np.random.default_rng(900 + seed)
        init = random_positive_init(2, 16, rng, amplitude=0.35)
        res = minimize_deficit(init, 0.05, 2000)
        fit = fit_extremizer(res.coeffs)
        worst_deficit = max(worst_deficit, res.final_deficit)
        worst_fit = max(worst_fit, fit.residual)
        worst_iters = max(worst_iters, res.iterations)
    elapsed = time.time() - t0
    ok = (worst_deficit <= 1e-4 and worst_fit <= 1e-2 and worst_iters <= 2000
          and elapsed < 600.0)
    report(9, "classification by deficit flow", ok,
           f"worst deficit {worst_deficit:.2e} (tol 1e-4), worst fit residual "
           f"{worst_fit:.2e} (tol 1e-2), max iters {worst_iters}", 600, elapsed)
    assert ok


def test_criterion_10_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(1010)
    n, L = 2, 8
    h = 1e-6
    worst = 0.0
    for _ in range(20):
        c = random_coeffs(n, L, rng, decay=1.5)
        c.coeffs[0] += math.sqrt(sphere_area(n))  # keep u away from zero
        grad = deficit_gradient(c)
        for idx in rng.choice(c.coeffs.size, 8, replace=False):
            e = np.zeros_like(c.coeffs)
            e[idx] = h
            fd = (
                deficit_value(c.copy_with(c.coeffs + e))
                - deficit_value(c.copy_with(c.coeffs - e))
            ) / (2.0 * h)
            worst = max(worst, abs(fd - grad[idx]) / max(1.0, abs(grad[idx])))
    elapsed = time.time() - t0
    ok = worst <= 1e-5 and elapsed < 30.0
    report(10, "flow gradient vs finite differences", ok,
           f"max rel err {worst:.2e} (tol 1e-5)", 30, elapsed)
    assert ok
