"""Transforms, spectral multipliers, and the slow integral-definition oracles."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from logsphere import (
    GridFunction,
    HarmonicCoeffs,
    analyze,
    apply_H,
    apply_P2s,
    evaluate_at,
    evaluate_on_grid,
    integrate,
    multiplier_H,
    multiplier_P2s,
    pv_apply_H,
    random_coeffs,
    synthesize,
)
from logsphere.harmonics import (
    _evaluation_plan,
    _slot_maps,
    _transform_tables,
    apply_P2s_direct,
    EVALUATION_CELLS,
    degree_of_index,
    evaluate_at_bytes,
    evaluate_on_grid_bytes,
    h_multiplier_table,
    harmonic_count,
    harmonic_indices,
    log_operator_scale,
    transform_table_bytes,
)
from logsphere.specfun import digamma, legendre_row
from logsphere.sphere import build_grid, min_internode_distance, sphere_area, sphere_point
from oracles import coeff, flat_index, loop_assoc_legendre_norm


def traced_peak(build) -> int:
    """Peak bytes that tracemalloc sees while `build()` runs."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the work grid of verify (degree L) and the entropy grid (degree 2L), at
# even and odd L
@pytest.mark.parametrize("n, L, degree", [(n, L, d * L) for n in (1, 2)
                                          for L in (16, 17, 63, 64, 128) for d in (1, 2)])
def test_transform_table_bytes_bounds_the_tables(n, L, degree):
    grid = build_grid(n, degree)
    _slot_maps.cache_clear()  # count building the slot maps too
    peak = traced_peak(lambda: _transform_tables(grid, L))
    # a bound, and not so loose that the budget refuses band limits that fit
    assert peak <= transform_table_bytes(n, L, degree) <= 1.5 * peak


@pytest.mark.parametrize("n", [1, 2])
def test_transform_tables_hold_one_polar_block(n):
    # on and off the grid, one batched product over the pairs of orders
    # (m, (L | 1) - m), whatever the parity of L: never one per order
    for L in range(0, 40):
        grid = build_grid(n, max(L, 1))
        azimuth, polar, maps = _transform_tables(grid, L)
        plan = _evaluation_plan(n, L)[0]
        width = 2 * L + 2 - (L | 1) if n == 2 else 2
        batches = L // 2 + 1
        assert maps.width == width
        assert azimuth.shape == (grid.az_phi.size, 4 * batches)
        assert polar.shape == (batches, width, grid.polar_t.size)
        assert plan.shape == (batches, width, L + 1 if n == 2 else 1)


@pytest.mark.parametrize("n", [1, 2])
def test_slot_index_decodes_to_its_row_and_column(n):
    # every slot's polar product is a row of its own order and degree, in the
    # column of its kind (cos or sin) and of its half of the batch, and no
    # two slots share one
    for L in range(65):
        maps = _slot_maps(n, L)
        l, m = harmonic_indices(n, L)
        order = np.abs(m) if n == 2 else l
        width = maps.width
        size = maps.packed.size // 2 * 4 * width
        assert np.unique(maps.index).size == maps.index.size
        assert 0 <= maps.index.min() and maps.index.max() < size
        batch, column = maps.index // (4 * width), maps.index // width % 4
        row = batch * width + maps.index % width
        assert np.array_equal(maps.order[row], order)
        assert np.array_equal(column % 2 == 1, m < 0)
        assert np.array_equal(maps.packed[2 * batch + column // 2], order)
        # an order's rows run by degree from its first
        first = np.zeros(maps.packed.size, int)
        labels, at = np.unique(maps.order, return_index=True)
        first[labels] = at
        assert np.array_equal(row - first[order], l - order)


@pytest.mark.parametrize("L", [16, 17, 64, 127, 128])
def test_evaluation_plan_bytes_bounds_the_plan(L):
    # at one point a cold call is building the slot maps and the plan
    for n in (1, 2):
        c = random_coeffs(n, L, np.random.default_rng(L))
        point = sphere_point(np.ones((1, n + 1)))
        evaluate_at(c, point)  # first-use allocations stay out of the count
        _evaluation_plan.cache_clear()
        _slot_maps.cache_clear()
        peak = traced_peak(lambda: evaluate_at(c, point))
        assert peak <= evaluate_at_bytes(n, L, 1) <= 1.5 * peak


def test_analyze_constant(grids):
    g = grids(2, 8)
    c = analyze(GridFunction(g, np.ones(g.node_count)), 8)
    assert coeff(c, 0, 0) == pytest.approx(math.sqrt(4.0 * math.pi), rel=1e-12)
    rest = c.coeffs.copy()
    rest[0] = 0.0
    assert np.abs(rest).max() < 1e-10


def test_analyze_picks_out_single_harmonic(grids):
    g = grids(2, 8)
    unit = HarmonicCoeffs.zeros(2, 8)
    unit.coeffs[flat_index(2, 2, 1)] = 1.0
    c = analyze(synthesize(unit, g), 8)
    np.testing.assert_allclose(c.coeffs, unit.coeffs, atol=1e-10)


@pytest.mark.parametrize("n,L,degree", [(2, 8, 8), (2, 12, 16), (1, 16, 16)])
def test_roundtrip_band_limited(grids, rng, n, L, degree):
    g = grids(n, degree)
    c = random_coeffs(n, L, rng)
    f = synthesize(c, g)
    back = synthesize(analyze(f, L), g)
    assert np.abs(back.values - f.values).max() < 1e-8


def test_analyze_rejects_coarse_grid(grids):
    g = grids(2, 4)
    with pytest.raises(ValueError):
        analyze(GridFunction(g, np.ones(g.node_count)), 8)


def test_synthesize_edge_cases(grids):
    g = grids(2, 8)
    zero = synthesize(HarmonicCoeffs.zeros(2, 5), g)
    assert np.abs(zero.values).max() == 0.0
    const = HarmonicCoeffs.zeros(2, 5)
    const.coeffs[0] = math.sqrt(4.0 * math.pi)
    np.testing.assert_allclose(synthesize(const, g).values, 1.0, atol=1e-12)


def test_off_grid_evaluation_matches_nodes(grids, rng):
    for n in (1, 2):
        g = grids(n, 12)
        c = random_coeffs(n, 8, rng)
        on_grid = synthesize(c, g).values
        off = evaluate_at(c, g.nodes)
        assert np.abs(on_grid - off).max() < 1e-10
        one_row = evaluate_at(c, g.nodes[3:4])
        assert one_row.shape == (1,)
        assert one_row[0] == pytest.approx(on_grid[3], abs=1e-12)


def dense_evaluate_at(c, points):
    """Reference for evaluate_at on S^2: the table of every normalized
    Legendre value at every point, with sin(theta) = |(x, y)|, summed term by
    term."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    t = np.clip(pts[:, 2], -1.0, 1.0)
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    leg = loop_assoc_legendre_norm(c.L, t, np.hypot(pts[:, 0], pts[:, 1]))
    out = np.zeros(t.size)
    for l in range(c.L + 1):
        out += coeff(c, l, 0) * leg[legendre_row(c.L, l, 0)]
        for m in range(1, l + 1):
            out += math.sqrt(2.0) * leg[legendre_row(c.L, l, m)] * (
                coeff(c, l, m) * np.cos(m * phi) + coeff(c, l, -m) * np.sin(m * phi))
    return out


def longdouble_evaluate_at(c, points):
    """evaluate_at on S^2 in extended precision: the same normalized-Legendre
    recurrence, with t = z, sin(theta) = |(x, y)| and phi = atan2(y, x).
    Near a pole sqrt(1 - t^2) would be no reference: a last-bit error in z
    moves it by about 1e-16 / sin(theta)."""
    ld = np.longdouble
    pts = np.asarray(points, dtype=ld)
    t = np.clip(pts[:, 2], ld(-1), ld(1))
    s = np.hypot(pts[:, 0], pts[:, 1])
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    out = np.zeros(t.size, dtype=ld)
    pmm = np.full(t.size, ld(1) / np.sqrt(ld(4) * ld(np.pi)))
    for m in range(c.L + 1):
        trig = {l: (ld(coeff(c, l, m)), ld(coeff(c, l, -m)) if m else ld(0))
                for l in range(m, c.L + 1)}
        azc, azs = np.sqrt(ld(2)) * np.cos(m * phi), np.sqrt(ld(2)) * np.sin(m * phi)
        prev, cur = np.zeros_like(t), pmm
        for l in range(m, c.L + 1):
            if m == 0:
                out += trig[l][0] * cur
            else:
                out += cur * (trig[l][0] * azc + trig[l][1] * azs)
            a = np.sqrt(ld((2 * l + 1) * (2 * l + 3)) / ld((l + 1 - m) * (l + 1 + m)))
            b = np.sqrt(ld((2 * l + 3) * (l - m) * (l + m))
                        / ld((2 * l - 1) * (l + 1 - m) * (l + 1 + m))) if l > m else ld(0)
            prev, cur = cur, a * t * cur - b * prev
        pmm = pmm * s * np.sqrt(ld(2 * m + 3) / ld(2 * m + 2))
    return out


# points on the z-axis, signed zeros included
AXIS_POINTS = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-0.0, 0.0, 1.0], [0.0, -0.0, -1.0]]


@given(L=st.integers(0, 24), seed=st.integers(0, 2**32 - 1), count=st.integers(1, 40),
       extra=st.lists(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)
                      .filter(lambda v: np.linalg.norm(v) > 0.1), max_size=4))
# 4 axis points + 20500 more: a full chunk and a short one
@example(L=24, seed=0, count=EVALUATION_CELLS // 26 + 20, extra=[])
@example(L=0, seed=1, count=1, extra=[])
# near the poles, where sin(theta) is |(x, y)| and not sqrt(1 - t^2)
@example(L=24, seed=2, count=1, extra=[[0.0, 1e-8, 1.0], [3e-7, 2e-7, -1.0], [1e-5, 0.0, 1.0]])
def test_evaluate_at_matches_dense_table(L, seed, count, extra):
    rng = np.random.default_rng(seed)
    c = HarmonicCoeffs(2, L, rng.standard_normal(harmonic_count(2, L)))
    pts = np.vstack([AXIS_POINTS, sphere_point(rng.standard_normal((count, 3))),
                     sphere_point(np.reshape(extra, (-1, 3)))])
    want = dense_evaluate_at(c, pts)
    tol = 1e-12 * np.abs(want).max()
    got = evaluate_at(c, pts)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= tol
    for k in (0, 1, pts.shape[0] - 1):
        one_row = evaluate_at(c, pts[k:k + 1])
        assert one_row.shape == (1,)
        assert abs(one_row[0] - want[k]) <= tol


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="numpy long double is not extended precision here")
def test_evaluate_at_high_band_limit_matches_extended_precision():
    rng = np.random.default_rng(128)
    c = random_coeffs(2, 128, rng)
    pts = np.vstack([AXIS_POINTS, sphere_point(rng.standard_normal((256, 3)))])
    want = longdouble_evaluate_at(c, pts)
    scale = float(np.abs(want).max())
    assert float(np.abs(evaluate_at(c, pts) - want).max()) <= 1e-13 * scale
    # 64 points within 1e-3 of a pole, where sin(theta) taken as sqrt(1 - t^2)
    # was 1e-10 of max|u| off; u itself varies by about L^2 eps there
    theta, phi = rng.uniform(0.0, 1e-3, 64), rng.uniform(0.0, 2.0 * math.pi, 64)
    sign = rng.choice([-1.0, 1.0], 64)
    near = np.column_stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                            sign * np.cos(theta)])
    want = longdouble_evaluate_at(c, near)
    scale = float(np.abs(want).max())
    assert float(np.abs(evaluate_at(c, near) - want).max()) <= 1e-12 * scale


def longdouble_fourier_terms(c, points):
    """The terms of the circle's expansion at the points, (slots, points), in
    extended precision, with phi = atan2(y, x)."""
    ld = np.longdouble
    phi = np.arctan2(points[:, 1].astype(ld), points[:, 0].astype(ld))
    terms = np.empty((c.coeffs.size, phi.size), dtype=ld)
    terms[0] = ld(c.coeffs[0]) / np.sqrt(2 * ld(np.pi))
    for l in range(1, c.L + 1):
        terms[2 * l - 1] = ld(c.coeffs[2 * l - 1]) * np.cos(l * phi) / np.sqrt(ld(np.pi))
        terms[2 * l] = ld(c.coeffs[2 * l]) * np.sin(l * phi) / np.sqrt(ld(np.pi))
    return terms


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="numpy long double is not extended precision here")
@pytest.mark.parametrize("L", [16, 256, 4096])
def test_circle_evaluate_at_matches_extended_precision(L):
    # the circle as the equator of S^2, against the Fourier sum, relative to
    # the sum of the terms' magnitudes at each point
    rng = np.random.default_rng(L)
    c = random_coeffs(1, L, rng)
    pts = sphere_point(rng.standard_normal((512, 2)))
    terms = longdouble_fourier_terms(c, pts)
    err = np.abs(evaluate_at(c, pts) - terms.sum(axis=0)) / np.abs(terms).sum(axis=0)
    assert float(err.max()) <= 5e-15


# one chunk or several, whose workspace does not grow with L, and on S^2 the
# plan, of a few points or a grid's worth
@pytest.mark.parametrize("n, L, count", [(1, 64, 1000), (1, 512, 4098), (1, 256, 20000),
                                         (1, 4096, 20000), (2, 16, 8385), (2, 17, 8385),
                                         (2, 64, 5000), (2, 127, 100), (2, 128, 100)])
def test_evaluate_at_bytes_bounds_a_call(n, L, count):
    rng = np.random.default_rng(L)
    c = random_coeffs(n, L, rng)
    pts = sphere_point(rng.standard_normal((count, n + 1)))
    evaluate_at(c, pts)  # first-use allocations stay out of the count
    _evaluation_plan.cache_clear()  # count building the per-L plan too
    peak = traced_peak(lambda: evaluate_at(c, pts))
    assert peak <= evaluate_at_bytes(n, L, count) <= 1.5 * peak


# the budget's cases: a grid's worth of values at band limits where the plan
# or the azimuth powers, not the fixed overhead, decide the peak
@pytest.mark.parametrize("n, L, degree", [(1, 64, 128), (1, 512, 1024), (1, 1024, 2048),
                                          (2, 64, 128), (2, 127, 254), (2, 128, 256),
                                          (2, 128, 128)])
def test_evaluate_on_grid_bytes_bounds_a_call(n, L, degree):
    c = random_coeffs(n, L, np.random.default_rng(L))
    grid = build_grid(n, degree)
    evaluate_on_grid(c, grid)  # first-use allocations stay out of the count
    _evaluation_plan.cache_clear()  # count building the per-L plan too
    _slot_maps.cache_clear()
    peak = traced_peak(lambda: evaluate_on_grid(c, grid))
    assert peak <= evaluate_on_grid_bytes(n, L, degree) <= 1.5 * peak


def test_evaluate_on_grid_matches_synthesis_at_high_band_limit():
    # the scan_hi state: S^2, L = 128, on its degree-256 entropy grid
    c = random_coeffs(2, 128, np.random.default_rng(128), decay=1.5)
    grid = build_grid(2, 256)
    want = synthesize(c, grid).values
    assert np.abs(evaluate_on_grid(c, grid) - want).max() <= 1e-13 * np.abs(want).max()
    assert "nodes" not in vars(grid)


def test_evaluate_on_grid_refuses_another_sphere():
    with pytest.raises(ValueError, match="grid dimension 1 does not match"):
        evaluate_on_grid(random_coeffs(2, 4, np.random.default_rng(0)), build_grid(1, 8))


def test_evaluate_at_memory_is_bounded_at_high_band_limit():
    rng = np.random.default_rng(4096)
    c = random_coeffs(2, 128, rng)
    pts = sphere_point(rng.standard_normal((4096, 3)))
    _evaluation_plan.cache_clear()  # count building the per-L plan too
    peak = traced_peak(lambda: evaluate_at(c, pts))
    assert peak < 50e6


@pytest.mark.parametrize("n, width", [(1, 3), (2, 2), (2, 4)])
def test_evaluate_at_rejects_points_of_another_sphere(n, width):
    c = HarmonicCoeffs.constant(n, 4, 1.0)
    with pytest.raises(ValueError, match=f"need {n + 1} coordinates"):
        evaluate_at(c, np.ones((3, width)) / math.sqrt(width))
    with pytest.raises(ValueError, match=f"need {n + 1} coordinates"):
        evaluate_at(c, np.ones(width) / math.sqrt(width))


@pytest.mark.parametrize("n", [1, 2])
def test_degree_of_index_matches_harmonic_indices(n):
    # slot k has degree (k + 1) // 2 on the circle and isqrt(k) on S^2
    for L in range(41):
        want = [(k + 1) // 2 if n == 1 else math.isqrt(k) for k in range(harmonic_count(n, L))]
        assert degree_of_index(n, L).tolist() == want
        assert harmonic_indices(n, L)[0].tolist() == want


def test_parseval(grids, rng):
    g = grids(2, 16)
    c = random_coeffs(2, 16, rng)
    f = synthesize(c, g)
    quad = integrate(g, GridFunction(g, f.values * f.values))
    assert abs(quad - c.norm_sq()) < 1e-8 * c.norm_sq()


def test_multiplier_P2s_values():
    for l in (0, 1, 5, 20):
        assert multiplier_P2s(2, l, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert multiplier_P2s(2, 0, 0.5) == pytest.approx(2.0, rel=1e-12)
    assert multiplier_P2s(2, 1, 0.5) == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_multiplier_product_identity(rng):
    for _ in range(50):
        n = int(rng.integers(1, 5))
        l = int(rng.integers(0, 40))
        s = float(rng.uniform(0.0, 0.5 * n * 0.999))
        # the inverse family's eigenvalue Gamma(a+s)/Gamma(a-s), a = l + n/2
        a = l + 0.5 * n
        prod = multiplier_P2s(n, l, s) * math.exp(math.lgamma(a + s) - math.lgamma(a - s))
        assert abs(prod - 1.0) < 1e-12


def test_multiplier_range_errors():
    with pytest.raises(ValueError):
        multiplier_P2s(2, 1, 1.0)  # s = n/2 excluded
    with pytest.raises(ValueError):
        multiplier_P2s(2, 1, -0.1)
    with pytest.raises(ValueError):
        multiplier_H(2, -1)


def test_multiplier_H_values():
    assert multiplier_H(2, 0) == 0.0
    assert multiplier_H(2, 1) == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert multiplier_H(2, 2) == pytest.approx(3.0 * math.pi, rel=1e-12)
    assert multiplier_H(1, 1) == pytest.approx(4.0, rel=1e-12)


def test_multiplier_H_strictly_increasing():
    for n in (1, 2, 3):
        vals = [multiplier_H(n, l) for l in range(0, 40)]
        assert np.all(np.diff(vals) > 0.0)


def test_multiplier_H_matches_fractional_difference_quotient():
    # h_l = (2 pi^{n/2}/Gamma(n/2)) lim (1/2s) (G(s) - P_{2s}) with G = l=0 ratio
    s = 1e-6
    for n in (1, 2, 3, 4):
        scale = log_operator_scale(n)
        for l in (0, 1, 2, 7, 33):
            q_plus = multiplier_P2s(n, 0, s) - multiplier_P2s(n, l, s)
            q_minus = 1.0 / multiplier_P2s(n, 0, s) - 1.0 / multiplier_P2s(n, l, s)
            fd = scale * (q_plus - q_minus) / (4.0 * s)
            assert fd == pytest.approx(multiplier_H(n, l), rel=1e-8, abs=1e-10)


def test_log_growth_of_multiplier_H():
    # h_l grows like A (ln l - psi(n/2)); the offset matters at any desk-scale l
    for n in (1, 2):
        scale = log_operator_scale(n)
        for l in (1000, 10_000):
            model = scale * (math.log(l) - digamma(0.5 * n))
            assert multiplier_H(n, l) == pytest.approx(model, rel=5e-3)
    # and the bare h_l / ln l ratio approaches the scale constant from above
    r4 = multiplier_H(2, 10_000) / (math.log(10_000) * log_operator_scale(2))
    r3 = multiplier_H(2, 1000) / (math.log(1000) * log_operator_scale(2))
    assert 1.0 < r4 < r3 < 1.1


def test_apply_H_on_harmonics(grids):
    g = grids(2, 8)
    const = analyze(GridFunction(g, np.ones(g.node_count)), 8)
    assert np.abs(apply_H(const).coeffs).max() < 1e-9
    unit = HarmonicCoeffs.zeros(2, 8)
    unit.coeffs[flat_index(2, 1, 0)] = 1.0
    out = apply_H(unit)
    assert coeff(out, 1, 0) == pytest.approx(2.0 * math.pi, rel=1e-12)


def test_apply_H_spectral_symmetry(rng):
    u = random_coeffs(2, 10, rng)
    v = random_coeffs(2, 10, rng)
    lhs = float(np.dot(v.coeffs, apply_H(u).coeffs))
    rhs = float(np.dot(apply_H(v).coeffs, u.coeffs))
    assert lhs == pytest.approx(rhs, rel=1e-14)


def test_pv_oracle_agrees_with_spectral_H(grids, rng):
    # slow oracle: symmetric chordal exclusion + Richardson in eps
    for n, degree in ((2, 40), (1, 64)):
        g = grids(n, degree)
        c = random_coeffs(n, 4, rng)
        f = synthesize(c, g)
        exact = synthesize(apply_H(c), g).values
        spacing = math.pi / (degree + 1) if n == 2 else 2.0 * math.pi / g.node_count
        approx = pv_apply_H(f, 2.0 * spacing)
        rel = np.abs(approx - exact).max() / np.abs(exact).max()
        assert rel < 1e-2


def test_apply_P2s_special_cases(grids):
    g = grids(2, 8)
    c = analyze(GridFunction(g, np.ones(g.node_count)), 8)
    assert np.abs(apply_P2s(c, 0.0).coeffs - c.coeffs).max() < 1e-12
    doubled = synthesize(apply_P2s(c, 0.5), g).values
    np.testing.assert_allclose(doubled, 2.0, atol=1e-10)


def test_apply_P2s_direct_quadrature_oracle(grids, rng):
    g = grids(2, 48)
    c = random_coeffs(2, 2, rng)
    f = synthesize(c, g)
    exact = synthesize(apply_P2s(c, 0.5), g).values
    eps = 2.0 * math.pi / 49.0
    approx = apply_P2s_direct(f, 0.5, eps)
    assert np.abs(approx - exact).max() / np.abs(exact).max() < 1e-3


def test_quadrature_oracles_refuse_unresolved_cutoff(grids, rng):
    # the cutoff rule of the direct energy: below twice the smallest node gap
    # the pairs just outside the cutoff are too sparse to resolve
    g = grids(2, 24)
    f = synthesize(random_coeffs(2, 4, rng), g)
    eps = 0.5 * min_internode_distance(g)
    with pytest.raises(ValueError, match="unresolved"):
        pv_apply_H(f, eps)
    with pytest.raises(ValueError, match="unresolved"):
        apply_P2s_direct(f, 0.5, eps)


def test_apply_P2s_conformal_covariance(grids, rng):
    # the fractional family intertwines with Moebius maps through conformal
    # weights: P(J^{(n+2s)/2n} u o phi) = J^{(n-2s)/2n} (P u) o phi
    from logsphere import Moebius, apply_map, jacobian

    n, L, L_work, s = 2, 6, 32, 0.5
    g = grids(2, 32)
    u = random_coeffs(n, L, rng)
    phi = Moebius(np.array([0.2, -0.1, 0.2]))
    j = jacobian(phi, g.nodes)
    mapped = apply_map(phi, g.nodes)
    lhs_in = j ** ((n + 2 * s) / (2 * n)) * evaluate_at(u, mapped)
    lhs = synthesize(apply_P2s(analyze(GridFunction(g, lhs_in), L_work), s), g).values
    rhs = j ** ((n - 2 * s) / (2 * n)) * evaluate_at(apply_P2s(u, s), mapped)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_json_roundtrip(rng):
    c = random_coeffs(2, 6, rng)
    text = json.dumps(c.to_json_dict())
    # the dense vector in slot order
    assert json.loads(text) == {"n": 2, "L": 6, "coeffs": c.coeffs.tolist()}
    back = HarmonicCoeffs.from_json_dict(json.loads(text))
    np.testing.assert_array_equal(back.coeffs, c.coeffs)
    # JSON integers are numbers too
    ints = HarmonicCoeffs.from_json_dict({"n": 1, "L": 1, "coeffs": [1, 0, -2]})
    assert ints.coeffs.tolist() == [1.0, 0.0, -2.0]


# the slot counts at L = 2 are 5 (n = 1) and 9 (n = 2)
@pytest.mark.parametrize("n, L, coeffs, match", [
    (2, 2, [0.0] * 8, "list of 9 numbers"),
    (1, 2, [0.0] * 6, "list of 5 numbers"),
    (2, 2, [], "list of 9 numbers"),
    (2, 2, {"0": 1.0}, "list of 9 numbers"),
    (1, 2, [[0, 0, 1.0]] * 5, "not a number"),
    (2, 2, [math.nan] + [0.0] * 8, "non-finite"),
    (2, 2, [0.0] * 8 + [math.inf], "non-finite"),
    (1, 2, [0.0, -math.inf, 0.0, 0.0, 0.0], "non-finite"),
    (1, 2, [0.0, 10**400, 0.0, 0.0, 0.0], "non-finite"),
    (1, 2, [0.0, "1.5", 0.0, 0.0, 0.0], "not a number"),
    (1, 2, [0.0, True, 0.0, 0.0, 0.0], "not a number"),
    (1, 2, [0.0, None, 0.0, 0.0, 0.0], "not a number"),
    (2, -1, [], "band limit"),
    (2.9, 1, [0.0] * 4, "must be integers"),
    (2, 1.5, [0.0] * 4, "must be integers"),
    (True, 1, [0.0] * 3, "must be integers"),
])
def test_coeff_json_rejects_bad_vectors(n, L, coeffs, match):
    with pytest.raises(ValueError, match=match):
        HarmonicCoeffs.from_json_dict({"n": n, "L": L, "coeffs": coeffs})


def test_coefficient_layout():
    assert harmonic_count(1, 4) == 9
    assert harmonic_count(2, 4) == 25
    assert flat_index(2, 2, -2) == 4
    assert flat_index(2, 2, 2) == 8
    assert (flat_index(1, 0, 0), flat_index(1, 2, 1), flat_index(1, 2, -1)) == (0, 3, 4)
    for n, l, m in ((2, 1, 2), (1, 0, 1), (1, 2, 0), (1, 2, 2), (3, 0, 0)):
        with pytest.raises(ValueError):
            flat_index(n, l, m)


@pytest.mark.parametrize("n", [1, 2])
def test_slot_order_is_degree_major(n):
    # harmonic_indices lists the slots in order, so a lower band is a prefix
    for L in range(12):
        labels = harmonic_indices(n, L)
        assert [flat_index(n, l, m) for l, m in zip(*labels)] == list(range(harmonic_count(n, L)))
        if L:
            count = harmonic_count(n, L - 1)
            for got, want in zip(labels, harmonic_indices(n, L - 1)):
                assert np.array_equal(got[:count], want)


def per_label_band_change(c: HarmonicCoeffs, L: int) -> HarmonicCoeffs:
    """The per-(l, m) copy that changed a band limit before `with_band_limit`."""
    vec = np.zeros(harmonic_count(c.n, L))
    for l, m in zip(*harmonic_indices(c.n, min(L, c.L))):
        vec[flat_index(c.n, l, m)] = coeff(c, l, m)
    return HarmonicCoeffs(c.n, L, vec)


@given(n=st.sampled_from([1, 2]), L=st.integers(0, 20), L_new=st.integers(0, 20),
       seed=st.integers(0, 2**32 - 1))
@example(n=2, L=20, L_new=0, seed=0)
@example(n=1, L=0, L_new=20, seed=0)
def test_with_band_limit_matches_per_label_copy(n, L, L_new, seed):
    c = HarmonicCoeffs(n, L, np.random.default_rng(seed).standard_normal(harmonic_count(n, L)))
    got = c.with_band_limit(L_new)
    want = per_label_band_change(c, L_new)
    assert (got.n, got.L) == (n, L_new)
    np.testing.assert_array_equal(got.coeffs, want.coeffs)
    assert got.coeffs is not c.coeffs


@pytest.mark.parametrize("n", [1, 2])
def test_constant_coeffs(n):
    c = HarmonicCoeffs.constant(n, 5, 2.5)
    assert coeff(c, 0, 0) == 2.5 * math.sqrt(sphere_area(n))
    assert not np.any(c.with_band_limit(0).with_band_limit(5).coeffs - c.coeffs)
    assert c.norm_sq() == coeff(c, 0, 0) ** 2


def test_energy_identity_band_limited(grids, rng):
    # sum (psi(l+n/2)-psi(n/2)) v_lm^2 = (1/(n C_n)) double-integral of the
    # squared-difference kernel; the double integral by direct quadrature
    from logsphere import constant_Cn, energy_direct_extrapolated

    for n, degree in ((2, 48), (1, 64)):
        g = grids(n, degree)
        c = random_coeffs(n, 8, rng)
        f = synthesize(c, g)
        direct = 2.0 * energy_direct_extrapolated(f, f)
        psi = h_multiplier_table(n, 8) / log_operator_scale(n)
        psi_sum = float(np.sum(psi * c.coeffs**2))
        assert direct / (n * constant_Cn(n)) == pytest.approx(psi_sum, rel=2e-2)
