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
    integrate,
    multiplier_A2s,
    multiplier_H,
    multiplier_P2s,
    pv_apply_H,
    random_coeffs,
    synthesize,
)
from logsphere.harmonics import (
    _evaluation_plan,
    apply_P2s_direct,
    degree_of_index,
    flat_index,
    h_multiplier_table,
    harmonic_count,
    harmonic_indices,
    log_operator_scale,
)
from logsphere.specfun import assoc_legendre_norm, digamma, tri_index
from logsphere.sphere import sphere_point


def test_analyze_constant(grids):
    g = grids(2, 8)
    c = analyze(GridFunction(g, np.ones(g.node_count)), 8)
    assert c.get(0, 0) == pytest.approx(math.sqrt(4.0 * math.pi), rel=1e-12)
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
        single = evaluate_at(c, g.nodes[3])
        assert single == pytest.approx(on_grid[3], abs=1e-12)


def dense_evaluate_at(c, points):
    """Reference for evaluate_at on S^2: the table of every normalized
    Legendre value at every point, summed term by term."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    t = np.clip(pts[:, 2], -1.0, 1.0)
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    leg = assoc_legendre_norm(c.L, t)
    out = np.zeros(t.size)
    for l in range(c.L + 1):
        out += c.get(l, 0) * leg[tri_index(l, 0)]
        for m in range(1, l + 1):
            out += math.sqrt(2.0) * leg[tri_index(l, m)] * (
                c.get(l, m) * np.cos(m * phi) + c.get(l, -m) * np.sin(m * phi))
    return out


def longdouble_evaluate_at(c, points):
    """evaluate_at on S^2 in extended precision: the same normalized-Legendre
    recurrence, with t = z, sin(theta) = sqrt(1 - t^2) and phi = atan2(y, x)."""
    ld = np.longdouble
    pts = np.asarray(points, dtype=ld)
    t = np.clip(pts[:, 2], ld(-1), ld(1))
    s = np.sqrt(ld(1) - t * t)
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    out = np.zeros(t.size, dtype=ld)
    pmm = np.full(t.size, ld(1) / np.sqrt(ld(4) * ld(np.pi)))
    for m in range(c.L + 1):
        trig = {l: (ld(c.get(l, m)), ld(c.get(l, -m)) if m else ld(0))
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
       chunk=st.integers(1, 64),
       extra=st.lists(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)
                      .filter(lambda v: np.linalg.norm(v) > 0.1), max_size=4))
@example(L=24, seed=0, count=16, chunk=7, extra=[])  # 20 points: 7 + 7 + 6
@example(L=0, seed=1, count=1, chunk=4096, extra=[])
def test_evaluate_at_matches_dense_table(L, seed, count, chunk, extra):
    rng = np.random.default_rng(seed)
    c = HarmonicCoeffs(2, L, rng.standard_normal(harmonic_count(2, L)))
    pts = np.vstack([AXIS_POINTS, sphere_point(rng.standard_normal((count, 3))),
                     sphere_point(np.reshape(extra, (-1, 3)))])
    want = dense_evaluate_at(c, pts)
    tol = 1e-12 * np.abs(want).max()
    got = evaluate_at(c, pts, chunk=chunk)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= tol
    for k in (0, 1, pts.shape[0] - 1):
        single = evaluate_at(c, pts[k], chunk=chunk)
        assert isinstance(single, float)
        assert abs(single - want[k]) <= tol


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="numpy long double is not extended precision here")
def test_evaluate_at_high_band_limit_matches_extended_precision():
    rng = np.random.default_rng(128)
    c = random_coeffs(2, 128, rng)
    pts = np.vstack([AXIS_POINTS, sphere_point(rng.standard_normal((256, 3)))])
    want = longdouble_evaluate_at(c, pts)
    scale = float(np.abs(want).max())
    assert float(np.abs(evaluate_at(c, pts) - want).max()) <= 1e-13 * scale


def test_evaluate_at_memory_is_bounded_at_high_band_limit():
    rng = np.random.default_rng(4096)
    c = random_coeffs(2, 128, rng)
    pts = sphere_point(rng.standard_normal((4096, 3)))
    _evaluation_plan.cache_clear()  # count building the per-L plan too
    tracemalloc.start()
    try:
        evaluate_at(c, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6


@pytest.mark.parametrize("n", [1, 2])
def test_degree_of_index_matches_harmonic_indices(n):
    for L in range(41):
        want = [l for l, _m in harmonic_indices(n, L)]
        assert degree_of_index(n, L).tolist() == want


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


def test_multiplier_A2s_values():
    assert multiplier_A2s(2, 0, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert multiplier_A2s(2, 0, 0.5) == pytest.approx(0.5, rel=1e-12)
    assert multiplier_A2s(2, 3, 1.0) == pytest.approx(12.0, rel=1e-12)


def test_multiplier_product_identity(rng):
    for _ in range(50):
        n = int(rng.integers(1, 5))
        l = int(rng.integers(0, 40))
        s = float(rng.uniform(0.0, 0.5 * n * 0.999))
        prod = multiplier_P2s(n, l, s) * multiplier_A2s(n, l, s)
        assert abs(prod - 1.0) < 1e-12


def test_multiplier_range_errors():
    with pytest.raises(ValueError):
        multiplier_P2s(2, 1, 1.0)  # s = n/2 excluded
    with pytest.raises(ValueError):
        multiplier_P2s(2, 1, -0.1)
    with pytest.raises(ValueError):
        multiplier_A2s(2, 1, 2.0)  # s >= l + n/2
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
            q_minus = 1.0 / multiplier_P2s(n, 0, s) - multiplier_A2s(n, l, s)
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
    assert out.get(1, 0) == pytest.approx(2.0 * math.pi, rel=1e-12)


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


def test_apply_P2s_conformal_covariance(grids, rng):
    # the fractional family intertwines with Moebius maps through conformal
    # weights: P(J^{(n+2s)/2n} u o phi) = J^{(n-2s)/2n} (P u) o phi
    from logsphere import Moebius, apply_map, jacobian

    n, L, L_work, s = 2, 6, 32, 0.5
    g = grids(2, 32)
    u = random_coeffs(n, L, rng)
    phi = Moebius(np.array([0.2, -0.1, 0.2]))
    j = jacobian(phi, g.nodes)
    mapped = np.atleast_2d(apply_map(phi, g.nodes))
    lhs_in = j ** ((n + 2 * s) / (2 * n)) * evaluate_at(u, mapped)
    lhs = synthesize(apply_P2s(analyze(GridFunction(g, lhs_in), L_work), s), g).values
    rhs = j ** ((n - 2 * s) / (2 * n)) * evaluate_at(apply_P2s(u, s), mapped)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_json_roundtrip(rng):
    c = random_coeffs(2, 6, rng)
    data = json.loads(c.dumps())
    assert data["n"] == 2 and data["L"] == 6
    back = HarmonicCoeffs.loads(c.dumps())
    np.testing.assert_allclose(back.coeffs, c.coeffs, atol=0.0)
    # sparse input fills missing entries with zero
    sparse = HarmonicCoeffs.from_json_dict({"n": 2, "L": 2, "coeffs": [[1, 0, 3.5]]})
    assert sparse.get(1, 0) == 3.5
    assert sparse.norm_sq() == pytest.approx(3.5**2)


@pytest.mark.parametrize("n, triplets, match", [
    (2, [[1, 0, math.nan]], "non-finite"),
    (2, [[1, 0, -math.inf]], "non-finite"),
    (1, [[1, -1, 1.0], [1, -1, 1.0]], "duplicate"),
    (2, [[3, 0, 1.0]], "outside the band"),
    (1, [[-1, 1, 1.0]], "outside the band"),
    (2, [[1.7, 0.9, 1.0]], "integers"),
])
def test_coeff_json_rejects_bad_triplets(n, triplets, match):
    with pytest.raises(ValueError, match=match):
        HarmonicCoeffs.from_json_dict({"n": n, "L": 2, "coeffs": triplets})


def test_coefficient_layout():
    assert harmonic_count(1, 4) == 9
    assert harmonic_count(2, 4) == 25
    assert flat_index(2, 2, -2) == 4
    assert flat_index(2, 2, 2) == 8
    with pytest.raises(ValueError):
        flat_index(2, 1, 2)


def test_energy_identity_band_limited(grids, rng):
    # sum (psi(l+n/2)-psi(n/2)) v_lm^2 = (1/(n C_n)) double-integral of the
    # squared-difference kernel; the double integral by direct quadrature
    from logsphere import constant_Cn, energy_direct_extrapolated

    for n, degree in ((2, 48), (1, 64)):
        g = grids(n, degree)
        c = random_coeffs(n, 8, rng)
        f = synthesize(c, g)
        direct = 2.0 * energy_direct_extrapolated(f, f)
        table = h_multiplier_table(n, 8)
        from logsphere.harmonics import degree_of_index

        psi_sum = float(
            np.sum(
                (table.values / log_operator_scale(n))[degree_of_index(n, 8)]
                * c.coeffs**2
            )
        )
        assert direct / (n * constant_Cn(n)) == pytest.approx(psi_sum, rel=2e-2)
