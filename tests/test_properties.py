"""Property-based checks: the cap sampler and the cap as the planar region,
the column-wise cap points, difference kernel and Moebius images against
their row-wise oracles bit for bit, the family and the Moebius Jacobian on
C- and F-order rows bit for bit, Moebius inverses, the conformal
distance identity, the JSON round trip of coefficients, the extremizer
fit, the sign of the deficit and its two routes, its in-place entropy pass
against the out-of-place form bit for bit, the Euler-Lagrange residual of the family, the transforms against
their per-element loops and against each other and, on the circle, the transforms and the off-grid
evaluation against the Fourier basis, the batch axes of synthesis, the Gibbs gap and the direct energy,
the probe's root-finder on smooth and step functions, the conformal
identities over random states and Moebius maps (bit for bit against
per-pullback map passes too), and, bit for bit, the
off-grid evaluation on precomputed Chebyshev rows, the lazy grid nodes and
weights, the probe's maps from one base map against fresh ones, and the
critical search's one-pass scan against a profile at the same values, and
the spectral multipliers as per-slot arrays."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from logsphere import (
    ExtremizerParams,
    HarmonicCoeffs,
    LiftedInversion,
    LiftedReflection,
    Moebius,
    analyze,
    apply_map,
    beckner_deficit,
    build_grid,
    cap_points,
    critical_alpha,
    critical_lambda,
    deficit_value,
    el_residual,
    extremizer,
    fit_extremizer,
    jacobian,
    moving_sphere_profile,
    random_coeffs,
    random_positive_init,
    region_of,
    sample_region,
    sphere_area,
    sphere_point,
    synthesize,
)
from logsphere import energy as en
from logsphere.conformal import PoleError, _orthonormal_frame, kernel_l, map_with_jacobian
from logsphere.dynamics import _CapProbe, _zeroin
from logsphere.energy import (
    _entropy_log_factor,
    deficit_terms,
    default_entropy_grid,
    energy_direct_extrapolated,
    energy_direct_extrapolated_many,
    gibbs_gap,
)
from logsphere.harmonics import (
    EVALUATION_CELLS,
    _chebyshev_rows,
    apply_H,
    apply_multiplier,
    apply_P2s,
    as_evaluable,
    evaluate_at,
    evaluate_on_grid,
    h_multiplier_table,
    harmonic_count,
    harmonic_indices,
    multiplier_H,
    multiplier_P2s,
    synthesize_values,
)
from logsphere.specfun import fourier_basis, legendre_row
from logsphere.sphere import GridFunction
from oracles import (
    coeff,
    eager_nodes_and_weights,
    fresh_map_stats,
    in_sigma,
    inverse,
    inverse_pass_conf_E,
    loop_assoc_legendre_norm,
    pullback_conf_E,
    pullback_conf_H,
    row_cap_points,
    row_kernel_l,
    row_moebius_map_with_jacobian,
    where_deficit_terms,
    where_entropy_log_factor,
)

DIMS = st.sampled_from([1, 2])


def directions(dim):
    return (
        st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)
        .filter(lambda v: np.linalg.norm(v) > 0.1)
        .map(sphere_point)
    )


@st.composite
def cap_maps(draw, n):
    """A lifted inversion (base point kept off the south pole) or reflection,
    built from a vector of any length, which the constructor normalizes."""
    length = draw(st.floats(0.5, 2.0))
    if draw(st.booleans()):
        xi0 = draw(directions(n + 1))
        if 1.0 + xi0[-1] < 0.2:
            xi0 = -xi0
        return LiftedInversion(draw(st.floats(0.05, 5.0)), length * xi0)
    return LiftedReflection(draw(st.floats(-2.0, 2.0)), length * draw(directions(n)))


@st.composite
def moebius_maps(draw, n, radius=0.9):
    return Moebius(draw(directions(n + 1)) * draw(st.floats(0.0, radius)))


def sphere_points(n, seed, count=32):
    return sphere_point(np.random.default_rng(seed).standard_normal((count, n + 1)))


@given(n=DIMS, data=st.data())
def test_cap_points_lie_in_the_region(n, data):
    phi = data.draw(cap_maps(n))
    k = data.draw(st.integers(1, 16))
    # variates away from 0 and 1 keep the points off the cap boundary
    u = np.array(data.draw(st.lists(st.floats(1e-3, 1.0 - 1e-3), min_size=k, max_size=k)))
    az = np.array(data.draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=k, max_size=k)))
    region = region_of(phi)
    pts = cap_points(region, u, az)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-14)
    assert np.all(in_sigma(phi, pts))


@given(n=DIMS, data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_cap_is_the_planar_region(n, data, seed):
    # the cap test that SigmaRegion keeps classifies points as the planar
    # ball or halfspace of the map does, away from the boundary; half of the
    # points are moved to heights 1e-8 to 1e-2 above or below it
    phi = data.draw(cap_maps(n))
    region = region_of(phi)
    rng = np.random.default_rng(seed)
    pts = sphere_point(rng.standard_normal((64, n + 1)))
    side = sphere_point(pts[32:] - np.outer(pts[32:] @ region.axis, region.axis))
    t = region.cos_threshold + rng.choice([-1.0, 1.0], 32) * np.geomspace(1e-8, 1e-2, 32)
    t = np.clip(t, -1.0, 1.0)
    pts[32:] = t[:, None] * region.axis + np.sqrt(1.0 - t * t)[:, None] * side
    pts = pts[pts[:, -1] > -1.0 + 1e-6]  # the south pole has no planar preimage
    height = pts @ region.axis - region.cos_threshold
    clear = np.abs(height) > 1e-9
    assert np.array_equal((height > 0.0)[clear], in_sigma(phi, pts)[clear])


@given(phi=cap_maps(2), seed=st.integers(0, 2**32 - 1), count=st.integers(1, 64))
def test_sample_region_consumes_the_generator_as_before(phi, seed, count):
    # the direct draw of heights in [c, 1) and azimuths that sample_region
    # made before it went through cap_points
    region = region_of(phi)
    rng = np.random.default_rng(seed)
    t = rng.uniform(region.cos_threshold, 1.0, count)
    az = rng.uniform(0.0, 2.0 * math.pi, count)
    s = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    frame = _orthonormal_frame(region.axis)
    want = (
        t[:, None] * region.axis[None, :]
        + (s * np.cos(az))[:, None] * frame[0][None, :]
        + (s * np.sin(az))[:, None] * frame[1][None, :]
    )
    got = sample_region(region, count, np.random.default_rng(seed))
    np.testing.assert_array_equal(got, want)


def cap_variates(data, n, k):
    """k heights (or angles) in [0, 1] and, on S^2, k azimuths in [0, 2 pi]."""
    u = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)))
    az = np.array(data.draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=k, max_size=k)))
    return u, az if n == 2 else None


def outcome(f, *args):
    """f(*args), or the type of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc)


@given(n=DIMS, data=st.data())
def test_cap_points_match_the_row_oracle(n, data):
    region = region_of(data.draw(cap_maps(n)))
    u, az = cap_variates(data, n, data.draw(st.integers(1, 64)))
    np.testing.assert_array_equal(cap_points(region, u, az), row_cap_points(region, u, az))


@given(n=DIMS, data=st.data())
def test_kernel_l_matches_the_row_oracle(n, data):
    # pairs from the cap of one map, the kernel of it or of a Moebius map;
    # the cap points come as column blocks and, copied, as C-order rows
    cap_map = data.draw(cap_maps(n))
    phi = data.draw(st.one_of(st.just(cap_map), moebius_maps(n)))
    region = region_of(cap_map)
    k = data.draw(st.integers(1, 64))
    xi = cap_points(region, *cap_variates(data, n, k))
    eta = cap_points(region, *cap_variates(data, n, k))
    for a, b in ((xi, eta), (np.ascontiguousarray(xi), np.ascontiguousarray(eta))):
        want, got = outcome(row_kernel_l, phi, a, b), outcome(kernel_l, phi, a, b)
        if isinstance(want, type):
            assert got is want
        else:
            np.testing.assert_array_equal(got, want)


@given(n=DIMS, data=st.data(), seed=st.integers(0, 2**32 - 1), count=st.integers(1, 64))
def test_moebius_map_matches_the_row_oracle(n, data, seed, count):
    phi = data.draw(moebius_maps(n))
    pts = sphere_points(n, seed, count)
    for rows in (pts, np.asfortranarray(pts)):
        image, jac = map_with_jacobian(phi, rows)
        want_image, want_jac = row_moebius_map_with_jacobian(phi, rows)
        np.testing.assert_array_equal(image, want_image)
        np.testing.assert_array_equal(jac, want_jac)


@given(n=DIMS, data=st.data(), seed=st.integers(0, 2**32 - 1), count=st.integers(1, 512))
def test_family_and_moebius_jacobian_ignore_the_rows_layout(n, data, seed, count):
    # zeta . xi is summed over the coordinates in order, so C- and F-order
    # copies of the same rows give the same bits; a matrix product need not
    zeta = data.draw(directions(n + 1)) * data.draw(st.floats(0.0, 0.9))
    family = extremizer(ExtremizerParams(zeta, data.draw(st.floats(0.1, 10.0))))
    pts = sphere_points(n, seed, count)
    c_rows, f_rows = np.ascontiguousarray(pts), np.asfortranarray(pts)
    np.testing.assert_array_equal(family(f_rows), family(c_rows))
    for got, want in zip(map_with_jacobian(Moebius(zeta), f_rows),
                         map_with_jacobian(Moebius(zeta), c_rows)):
        np.testing.assert_array_equal(got, want)


@given(n=DIMS, data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_moebius_inverse_composes_to_identity(n, data, seed):
    phi = data.draw(moebius_maps(n))
    pts = sphere_points(n, seed)
    image = apply_map(phi, pts)
    assert np.abs(apply_map(inverse(phi), image) - pts).max() < 1e-12
    assert np.abs(apply_map(phi, apply_map(inverse(phi), pts)) - pts).max() < 1e-12
    # chain rule: J_{phi^-1}(phi(x)) J_phi(x) = 1
    chain = jacobian(inverse(phi), image) * jacobian(phi, pts)
    assert np.abs(chain - 1.0).max() < 1e-11


@given(n=DIMS, data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_conformal_distance_identity(n, data, seed):
    # |phi(a) - phi(b)|^2 = J(a)^{1/n} |a - b|^2 J(b)^{1/n}
    phi = data.draw(st.one_of(cap_maps(n), moebius_maps(n)))
    pts = sphere_points(n, seed, 64)
    a, b = pts[:32], pts[32:]
    lhs = np.sum((apply_map(phi, a) - apply_map(phi, b)) ** 2, axis=1)
    d2 = np.sum((a - b) ** 2, axis=1)
    rhs = jacobian(phi, a) ** (1.0 / n) * d2 * jacobian(phi, b) ** (1.0 / n)
    # below a distance of 1e-3 the squared distance of two rounded points is
    # off by more than 1e-13 relative, and a strong inversion can bring far
    # points within 1e-8 of each other
    apart = (lhs > 1e-6) & (d2 > 1e-6)
    assert np.abs(rhs / lhs - 1.0)[apart].max(initial=0.0) <= 1e-9


# Worst residuals, relative to the state as the conformal-identity suites
# take them, of L = 8 states under |zeta| = 0.4 Moebius maps on the degree-32
# grid over seeds 2000-2299: E 8.2e-15 (n = 1) and 1.1e-13 (n = 2), or 8.5e-15
# and 1.1e-13 with the correction through phi^{-1}; H 1.9e-11 and 1.2e-10.
# The bounds leave a margin of about 9 on S^2.
CONF_E_BOUND, CONF_H_BOUND = 1e-12, 1e-9


@settings(max_examples=30)
@given(n=DIMS, L=st.integers(0, 8), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_conformal_identities_hold_over_states_and_maps(grids, n, L, data, seed):
    grid = grids(n, 32)
    rng = np.random.default_rng(seed)
    u, v = random_coeffs(n, L, rng), random_coeffs(n, L, rng)
    phi = data.draw(moebius_maps(n, radius=0.4))
    res_e = en.verify_conf_E(u, v, phi, grid)
    scale = 1.0 + abs(en.energy_spectral(u, v))
    assert res_e / scale <= CONF_E_BOUND
    res_h = en.verify_conf_H(u, phi, grid)
    hu = synthesize(apply_H(u).with_band_limit(grid.degree), grid).values
    assert res_h / max(1.0, float(np.abs(hu).max())) <= CONF_H_BOUND
    # one map pass per node set gives the bits of a map pass per pullback
    assert same_bits(res_e, pullback_conf_E(u, v, phi, grid))
    # the correction on the image side, through phi^{-1}, meets the bound too
    # and agrees to within it
    res_inv = inverse_pass_conf_E(u, v, phi, grid)
    assert res_inv / scale <= CONF_E_BOUND and abs(res_inv - res_e) <= CONF_E_BOUND * scale
    assert same_bits(res_h, pullback_conf_H(u, phi, grid))


@given(n=DIMS, L=st.integers(0, 6), data=st.data())
def test_coefficient_json_roundtrip(n, L, data):
    count = harmonic_count(n, L)
    values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                min_size=count, max_size=count))
    c = HarmonicCoeffs(n, L, np.array(values))
    back = HarmonicCoeffs.from_json_dict(json.loads(json.dumps(c.to_json_dict())))
    assert (back.n, back.L) == (n, L)
    np.testing.assert_array_equal(back.coeffs, c.coeffs)


@given(n=DIMS, L=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
def test_analyze_inverts_synthesize(n, L, seed):
    c = np.random.default_rng(seed).standard_normal(harmonic_count(n, L))
    grid = build_grid(n, max(L, 1))
    back = analyze(synthesize(HarmonicCoeffs(n, L, c), grid), L)
    assert np.abs(back.coeffs - c).max() <= 1e-12 * max(1.0, np.abs(c).max())


def family_coeffs(n, L, zeta, c=1.0):
    grid = build_grid(n, L)
    return analyze(grid.sample(extremizer(ExtremizerParams(zeta, c))), L)


@settings(max_examples=20)
@given(n=DIMS, data=st.data(), size=st.floats(0.0, 0.85), c=st.floats(0.1, 10.0))
def test_fit_recovers_family_members(n, data, size, c):
    zeta = size * data.draw(directions(n + 1))
    fit = fit_extremizer(family_coeffs(n, 32, zeta, c))
    assert np.abs(fit.params.zeta - zeta).max() <= 1e-12
    assert fit.params.c == pytest.approx(c, rel=1e-12)
    assert fit.in_family


@settings(max_examples=30)
@given(n=DIMS, L=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       amp=st.floats(0.05, 0.9))
def test_deficit_is_nonnegative_on_positive_states(n, L, seed, amp):
    u = random_positive_init(n, L, np.random.default_rng(seed), amp)
    rep = beckner_deficit(u)
    assert rep.deficit >= -1e-9 * rep.energy_term
    # the flow's deficit and beckner_deficit are one evaluation
    assert rep.deficit == deficit_value(u)


@settings(max_examples=30)
@given(n=DIMS, L=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_deficit_is_nonnegative_on_signed_states(n, L, seed):
    # the random-state bound of the deficit_nonneg suite at --tol 1
    rep = beckner_deficit(random_coeffs(n, L, np.random.default_rng(seed)))
    assert rep.deficit >= -1e-6 * rep.energy_term


# node values the entropy pass sets apart: exact zeros of both signs, squares
# that underflow to a subnormal (below the 1e-300 log floor) or to 0, and NaN
ODD_NODE_VALUES = st.sampled_from([0.0, -0.0, 1e-160, -1e-170, 5e-324, math.nan])


def same_bits_each(got, want) -> np.ndarray:
    """Element-wise `same_bits` of two float arrays of one shape."""
    return np.asarray(got, float).view(np.int64) == np.asarray(want, float).view(np.int64)


@given(n=DIMS, norm_sq=st.floats(1e-100, 1e100),
       vals=st.lists(st.one_of(st.floats(-3.0, 3.0), ODD_NODE_VALUES), min_size=1, max_size=64))
def test_entropy_log_factor_is_the_where_form_bit_for_bit(n, norm_sq, vals):
    usq = np.square(vals)
    want = where_entropy_log_factor(usq, norm_sq, sphere_area(n))
    assert same_bits(_entropy_log_factor(usq, norm_sq, sphere_area(n)), want)


@settings(max_examples=50)
@given(n=DIMS, L=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_deficit_terms_is_the_where_form_bit_for_bit(n, L, seed, data):
    # the in-place entropy pass against the out-of-place one, on synthesized
    # values with some nodes set to odd values
    u = random_coeffs(n, L, np.random.default_rng(seed))
    grid = default_entropy_grid(n, L)
    vals = synthesize(u, grid).values.copy()
    nodes = st.integers(0, grid.node_count - 1)
    for node, value in data.draw(st.lists(st.tuples(nodes, ODD_NODE_VALUES), max_size=8)):
        vals[node] = value
    with mock.patch.object(en, "synthesize", lambda c, g: GridFunction(g, vals.copy())):
        report, density = deficit_terms(u, grid)
    want_floats, want_density = where_deficit_terms(u, grid, vals)
    assert same_bits([report.energy_term, report.entropy_term, report.deficit], want_floats)
    assert same_bits(density, want_density)


@settings(max_examples=20)
@given(n=DIMS, data=st.data(), size=st.floats(0.0, 0.4))
def test_el_residual_vanishes_on_family_members(n, data, size):
    # the equation fixes the amplitude: c = 2 leaves a residual of about 31
    zeta = size * data.draw(directions(n + 1))
    assert el_residual(family_coeffs(n, 16, zeta), 8).max_abs <= 1e-9


def per_order_rows(n, L, grid):
    """Per order m: the cosine and the sine labels of its polar rows, and the
    rows.  On S^2 they come from the per-pair loop table, one Legendre row
    per (l, m); on the circle's one ring order m has the one degree m and
    the row 1/sqrt(2 pi)."""
    if n == 1:
        row = np.full((1, 1), 1.0 / math.sqrt(2.0 * math.pi))
        return [([(m, 1 if m else 0)], [(m, -1)], row) for m in range(L + 1)]
    leg = loop_assoc_legendre_norm(L, grid.polar_t)
    return [([(l, m) for l in range(m, L + 1)], [(l, -m) for l in range(m, L + 1)],
             leg[[legendre_row(L, l, m) for l in range(m, L + 1)]]) for m in range(L + 1)]


def azimuth_columns(grid, L):
    """cos(m phi) and sin(m phi) for m = 0..L at the grid's azimuths, with
    the sqrt(2) of m > 0: two (azimuths, L + 1) arrays."""
    angle = np.outer(grid.az_phi, np.arange(L + 1))
    scale = np.where(np.arange(L + 1) > 0, math.sqrt(2.0), 1.0)
    return np.cos(angle) * scale, np.sin(angle) * scale


def synthesize_per_element(c, grid, size=lambda x: x):
    """Synthesis with one gather per coefficient and one product per order
    and kind.  `size=np.abs` sums the magnitudes of the terms instead."""
    cos, sin = (size(col) for col in azimuth_columns(grid, c.L))
    nt, L = grid.polar_t.size, c.L
    Hc, Hs = np.zeros((nt, L + 1)), np.zeros((nt, L + 1))
    for m, (cos_labels, sin_labels, rows) in enumerate(per_order_rows(c.n, L, grid)):
        Hc[:, m] = size(np.array([coeff(c, l, k) for l, k in cos_labels])) @ size(rows)
        if m > 0:
            Hs[:, m] = size(np.array([coeff(c, l, k) for l, k in sin_labels])) @ size(rows)
    return (Hc @ cos.T + Hs @ sin.T).ravel()


def analyze_per_element(f, L, size=lambda x: x):
    """Quadrature one coefficient at a time, each (l, m) one dot product of
    its polar row with the weighted azimuth projection over the rings.
    `size=np.abs` sums the magnitudes of the terms instead."""
    grid = f.grid
    cos, sin = (size(col) for col in azimuth_columns(grid, L))
    F = size(f.values).reshape(grid.polar_t.size, grid.az_phi.size)
    wphi = 2.0 * math.pi / grid.az_phi.size
    Gc, Gs = F @ cos * wphi, F @ sin * wphi
    coeffs = {}
    for m, (cos_labels, sin_labels, rows) in enumerate(per_order_rows(grid.n, L, grid)):
        for G, labels in ((Gc, cos_labels), (Gs, sin_labels if m > 0 else [])):
            for label, row in zip(labels, rows):
                coeffs[label] = np.dot(size(row), grid.polar_w * G[:, m])
    return np.array([coeffs[label] for label in zip(*harmonic_indices(grid.n, L))])


@settings(max_examples=60)
@given(n=DIMS, L=st.integers(0, 12), extra=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_transforms_match_the_per_element_loops(n, L, extra, seed):
    # the transforms sum in another order than the loops, so each value is
    # bounded relative to the sum of its terms' magnitudes
    rng = np.random.default_rng(seed)
    grid = build_grid(n, max(L, 1) + extra)
    c = HarmonicCoeffs(n, L, rng.standard_normal(harmonic_count(n, L)))
    got, want = synthesize_values(L, c.coeffs, grid), synthesize_per_element(c, grid)
    assert np.all(np.abs(got - want) <= 1e-15 * synthesize_per_element(c, grid, np.abs))
    f = GridFunction(grid, rng.standard_normal(grid.node_count))
    got, want = analyze(f, L).coeffs, analyze_per_element(f, L)
    assert np.all(np.abs(got - want) <= 1e-15 * analyze_per_element(f, L, np.abs))


@settings(max_examples=60)
@given(n=DIMS, L=st.integers(0, 40), degree=st.integers(1, 96), seed=st.integers(0, 2**32 - 1))
@example(n=2, L=40, degree=80, seed=0)  # the entropy grid
@example(n=1, L=0, degree=1, seed=0)
def test_evaluate_on_grid_matches_synthesis(n, L, degree, seed):
    # through the Chebyshev plan and the powers of e^{i phi}, against the
    # transform tables, on any product grid: within 1e-13 of max |u|
    grid = build_grid(n, degree)
    c = HarmonicCoeffs(n, L, np.random.default_rng(seed).standard_normal(harmonic_count(n, L)))
    want = synthesize_values(L, c.coeffs, grid)
    got = evaluate_on_grid(c, grid)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@settings(max_examples=60)
@given(n=DIMS, L=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
@example(n=2, L=0, seed=0)
@example(n=1, L=1, seed=0)
def test_analysis_inverts_synthesis(n, L, seed):
    grid = build_grid(n, max(L, 1))
    c = np.random.default_rng(seed).standard_normal(harmonic_count(n, L))
    back = analyze(GridFunction(grid, synthesize_values(L, c, grid)), L).coeffs
    # relative to the L2 norm of the function, which sets its rounding
    assert np.abs(back - c).max() <= 1e-13 * np.linalg.norm(c)


@settings(max_examples=60)
@given(L=st.integers(0, 12), extra=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_circle_transforms_match_the_fourier_basis(L, extra, seed):
    # an independent reference: the orthonormal Fourier modes at the nodes.
    # The bound is relative to the sum of the terms' magnitudes, which a
    # one-coefficient band cannot cancel.
    rng = np.random.default_rng(seed)
    grid = build_grid(1, max(L, 1) + extra)
    basis = fourier_basis(L, grid.az_phi)
    c = rng.standard_normal(harmonic_count(1, L))
    got = synthesize_values(L, c, grid)
    assert np.all(np.abs(got - basis @ c) <= 1e-15 * (np.abs(basis) @ np.abs(c)))
    f = GridFunction(grid, rng.standard_normal(grid.node_count))
    got, wf = analyze(f, L).coeffs, grid.weights * f.values
    assert np.all(np.abs(got - basis.T @ wf) <= 1e-15 * (np.abs(basis).T @ np.abs(wf)))


@settings(max_examples=20)
@given(L=st.integers(0, 300), chunks=st.integers(1, 3), extra=st.integers(-20, 20),
       seed=st.integers(0, 2**32 - 1))
@example(L=300, chunks=3, extra=7, seed=0)
def test_circle_evaluate_at_matches_the_fourier_basis(L, chunks, extra, seed):
    # points of the circle are the equator of S^2, in chunks of
    # EVALUATION_CELLS // (L + 2).  The reference's angle is atan2(y, x), so
    # its term of degree l is about l eps off; the bound is relative to the sum
    # of the terms' largest magnitudes and grows with L.
    rng = np.random.default_rng(seed)
    count = max(1, chunks * (EVALUATION_CELLS // (L + 2)) + extra)
    pts = sphere_point(rng.standard_normal((count, 2)))
    c = rng.standard_normal(harmonic_count(1, L))
    want = fourier_basis(L, np.arctan2(pts[:, 1], pts[:, 0])) @ c
    amplitude = np.full(c.size, 1.0 / math.sqrt(math.pi))
    amplitude[0] = 1.0 / math.sqrt(2.0 * math.pi)
    got = evaluate_at(HarmonicCoeffs(1, L, c), pts)
    assert got.shape == (count,)
    assert np.abs(got - want).max() <= (1e-15 + 1e-16 * L) * (amplitude @ np.abs(c))


def same_bits(a, b) -> bool:
    """Same shape, dtype and bytes: -0.0 and NaN payloads included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=40)
@given(n=DIMS, L=st.integers(0, 40), count=st.integers(1, 300), fortran=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(n=2, L=40, count=2 * (EVALUATION_CELLS // 42) + 5, fortran=True, seed=0)  # 3 chunks
@example(n=1, L=0, count=1, fortran=False, seed=0)
def test_evaluate_at_on_precomputed_rows_matches_deriving_them(n, L, count, fortran, seed):
    # `as_evaluable` derives a state's Chebyshev rows once; a call on them
    # gives the bits of a call that derives them, on C- and F-order points
    rng = np.random.default_rng(seed)
    c = HarmonicCoeffs(n, L, rng.standard_normal(harmonic_count(n, L)))
    pts = sphere_point(rng.standard_normal((count, n + 1)))
    if n == 2:
        pts[0] = [0.0, 0.0, 1.0]  # on the z-axis, where e^{i phi} is taken as 1
    if fortran:
        pts = np.asfortranarray(pts)
    want = evaluate_at(c, pts)
    assert same_bits(evaluate_at(c, pts, _chebyshev_rows(c)), want)
    assert same_bits(as_evaluable(c)(pts), want)


@settings(max_examples=40)
@given(n=DIMS, degree=st.integers(1, 64))
@example(n=2, degree=64)
@example(n=1, degree=1)
def test_lazy_nodes_and_weights_match_the_eager_formula(n, degree):
    grid = build_grid(n, degree)
    assert "nodes" not in vars(grid) and "weights" not in vars(grid)
    nodes, weights = eager_nodes_and_weights(grid)
    assert grid.node_count == len(nodes) == len(weights)
    assert same_bits(grid.nodes, nodes) and same_bits(grid.weights, weights)
    assert grid.nodes is grid.nodes and grid.weights is grid.weights  # formed once


FAMILY_BY_N = {n: extremizer(ExtremizerParams(np.array([0.2, -0.1, 0.25][:n + 1])))
               for n in (1, 2)}


@settings(max_examples=30)
@given(n=DIMS, data=st.data(), length=st.floats(0.5, 2.0), seed=st.integers(0, 2**32 - 1))
def test_probe_maps_from_one_base_match_fresh_maps(n, data, length, seed):
    # the probe derives the unit centre (or normal) and the planar base point
    # once; each scale value's map and statistics are those of a map built
    # afresh from the unnormalized geometry
    inversion = data.draw(st.booleans())
    if inversion:
        xi0 = data.draw(directions(n + 1))
        xi0 = length * (-xi0 if 1.0 + xi0[-1] < 0.2 else xi0)
        probe, scales = _CapProbe(FAMILY_BY_N[n], xi0, None, None), st.floats(0.05, 5.0)
    else:
        e = length * data.draw(directions(n))
        probe, scales = _CapProbe(FAMILY_BY_N[n], None, e, None), st.floats(-2.0, 2.0)
    for value in data.draw(st.lists(scales, min_size=1, max_size=3)):
        phi = probe.base.at_scale(value)
        fresh = (LiftedInversion(value, xi0) if inversion else LiftedReflection(value, e))
        assert all(same_bits(getattr(phi, f), getattr(fresh, f)) for f in vars(fresh))
        try:
            want = fresh_map_stats(probe, value)
        except ValueError:  # a pole at a template node, or a cap too large to form
            continue
        p, defect = probe.measure(value, defect=True)
        assert p.stats + (defect,) == want


@settings(max_examples=24)
@given(n=DIMS, inversion=st.booleans(), family=st.booleans(), L=st.integers(2, 8),
       raw=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       seed=st.integers(0, 2**32 - 1))
@example(n=1, inversion=True, family=True, L=2, raw=[1.0, 1.0, 0.0], seed=4)
def test_critical_search_scans_the_columns_of_a_profile(n, inversion, family, L, raw, seed):
    # the search scans with one map pass per value: its columns are those of
    # a profile at the same values, bit for bit, and its one defect pass is
    # that of `measure` at the critical value.  The one exception is a value
    # whose defect pass alone meets a pole: the profile retries it on a fresh
    # template, the search has no such pass.  (On S^1 a ball node at the
    # 1e-6 radius floor has an image within 1e-7 of the south pole at large
    # radii.)
    u = (FAMILY_BY_N[n] if family
         else as_evaluable(random_positive_init(n, L, np.random.default_rng(seed))))
    vec = np.array(raw[:n + 1 if inversion else n])
    assume(np.linalg.norm(vec) > 0.1)
    vec = sphere_point(vec)
    if inversion:
        center, direction = (-vec if 1.0 + vec[-1] < 0.2 else vec), None
        search, scan = critical_lambda, np.geomspace(0.02, 50.0, 32)
    else:
        center, direction = None, vec
        search, scan = critical_alpha, np.linspace(6.0, -6.0, 32)
    rep = search(u, center if inversion else direction, rng=np.random.default_rng(seed))
    profile = moving_sphere_profile(u, scan, xi0=center, e=direction,
                                    rng=np.random.default_rng(seed))
    assert rep.defect is None and profile.defect_at_critical is None
    assert same_bits(rep.values, profile.values)
    probe = _CapProbe(u, center, direction, np.random.default_rng(seed))
    same = same_bits_each(rep.min_w, profile.min_w) & same_bits_each(rep.sup_abs_w,
                                                                      profile.sup_abs_w)
    for value in map(float, profile.values[~same]):
        with pytest.raises(PoleError):
            probe._defect(probe._pass(value, probe.base.at_scale(value), probe.template))
    p, defect = probe.measure(rep.critical, defect=True)
    assert rep.sup_w_at_critical == p.stats[1]
    assert rep.defect_at_critical == defect
    if family:
        assert rep.defect_at_critical <= 1e-8


@settings(max_examples=40)
@given(n=DIMS, L=st.integers(0, 12), k=st.integers(1, 5), extra=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_synthesis_matches_one_state_at_a_time(n, L, k, extra, seed):
    grid = build_grid(n, max(L, 1) + extra)
    C = np.random.default_rng(seed).standard_normal((k, harmonic_count(n, L)))
    stacked = synthesize_values(L, C, grid)
    rows = np.array([synthesize(HarmonicCoeffs(n, L, c), grid).values for c in C])
    assert stacked.shape == (k, grid.node_count)
    assert np.abs(stacked - rows).max() <= 1e-13 * max(1.0, np.abs(rows).max())


@settings(max_examples=30)
@given(n=DIMS, k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_stacked_gibbs_gap_matches_each_row(n, k, seed):
    rng = np.random.default_rng(seed)
    grid = build_grid(n, 8)
    fv = np.abs(rng.standard_normal((k, grid.node_count))) + 0.05
    fv /= np.sum(grid.weights * fv, axis=1, keepdims=True)
    gv = rng.standard_normal((k, grid.node_count))
    stacked = gibbs_gap(grid, fv, gv)
    rows = [gibbs_gap(grid, f, g) for f, g in zip(fv, gv)]
    assert isinstance(rows[0], float) and stacked.shape == (k,)
    np.testing.assert_allclose(stacked, rows, rtol=1e-14, atol=1e-15)
    assert np.all(stacked >= -1e-12)
    # each row is checked: one row of mass 2 spoils the stack
    fv[-1] *= 2.0
    with pytest.raises(ValueError, match="integrate to 1"):
        gibbs_gap(grid, fv, gv)


@settings(max_examples=10)
@given(n=DIMS, degree=st.integers(4, 16), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_energy_many_matches_each_column(n, degree, k, seed):
    grid = build_grid(n, degree)
    V = np.random.default_rng(seed).standard_normal((grid.node_count, k))
    many = energy_direct_extrapolated_many(grid, V)
    for j in range(k):
        f = GridFunction(grid, V[:, j])
        one = energy_direct_extrapolated(f, f)
        assert abs(many[j] - one) <= 1e-12 * abs(one)


@given(n=DIMS, L=st.integers(0, 40), k=st.integers(1, 8), s=st.floats(0.0, 0.49),
       seed=st.integers(0, 2**32 - 1))
def test_multipliers_are_per_slot_arrays(n, L, k, s, seed):
    # h_l and the fractional family's ratios at each slot of band limit L,
    # bit for bit the per-degree multipliers at the slot's degree
    degree = harmonic_indices(n, L)[0]
    table = h_multiplier_table(n, L)
    assert same_bits(table, np.array([multiplier_H(n, int(l)) for l in degree]))
    assert same_bits(h_multiplier_table(n, L + k)[:table.size], table)
    assert not table.flags.writeable
    c = random_coeffs(n, L, np.random.default_rng(seed))
    ratios = np.array([multiplier_P2s(n, int(l), s) for l in degree])
    assert same_bits(apply_P2s(c, s).coeffs, c.coeffs * ratios)
    for shape in ((table.size + 1,), (table.size - 1,), (table.size, 1), ()):
        with pytest.raises(ValueError, match="does not match"):
            apply_multiplier(c, np.ones(shape))


@given(n=DIMS, L=st.integers(0, 16))
def test_memoized_h_table_is_read_only(n, L):
    table = h_multiplier_table(n, L)
    assert h_multiplier_table(n, L) is table
    with pytest.raises(ValueError):
        table[0] = 1.0


# odd, increasing shapes g(y) of the offset y = x - root, whose sign is
# exactly that of y, with a steepness k
ROOT_SHAPES = {
    "cubic": lambda y, k: y * (1.0 + k * y * y),
    "tanh": lambda y, k: math.tanh(k * y),
    "sinh": lambda y, k: math.sinh(k * y),
    "expm1": lambda y, k: math.expm1(k * y),
}


def zeroin_from(f, a, b):
    """_zeroin on [a, b] to 1e-15, the probe's resolution, for f with one
    value per node, and the points it evaluates f at."""
    seen = []

    def traced(x):
        seen.append(x)
        return f(x)

    return _zeroin(traced, a, b, f(a), f(b), 1e-15), seen


def one_node(g):
    """The scalar g as a function with one node."""
    return lambda x: np.array([g(x)])


def bracket(lo, width, frac, flip):
    """(a, b, root): the root a fraction of the way across [lo, lo + width],
    with a the upper end when flip is set."""
    hi = lo + width
    root = min(lo + frac * width, hi)
    return (hi, lo, root) if flip else (lo, hi, root)


# a scan step is 0.25 wide in ln lambda and 0.39 in alpha
BRACKETS = dict(lo=st.floats(-6.0, 6.0), width=st.floats(1e-3, 0.4),
                frac=st.floats(0.0, 1.0), flip=st.booleans())


@settings(max_examples=200)
@given(shape=st.sampled_from(sorted(ROOT_SHAPES)), k=st.floats(0.1, 1000.0),
       sign=st.sampled_from([-1.0, 1.0]), **BRACKETS)
def test_zeroin_finds_the_root_of_a_smooth_monotone_function(shape, k, sign, lo, width,
                                                             frac, flip):
    a, b, root = bracket(lo, width, frac, flip)
    x, seen = zeroin_from(one_node(lambda x: sign * ROOT_SHAPES[shape](x - root, k)), a, b)
    assert all(min(a, b) <= v <= max(a, b) for v in seen + [x])
    assert len(seen) <= 48  # the bisection it replaces took 48
    assert abs(x - root) <= 1e-15 + 4.0 * math.ulp(1.0) * abs(x)


@settings(max_examples=200)
@given(left=st.floats(1e-3, 1e3), right=st.floats(1e-3, 1e3), **BRACKETS)
def test_zeroin_converges_to_the_jump_of_a_step_function(left, right, lo, width, frac, flip):
    # a pole retry evaluates one value on other nodes, so min w can jump
    a, b, jump = bracket(lo, width, frac, flip)
    assume(jump > lo)  # f(lo) is left > 0
    x, seen = zeroin_from(one_node(lambda x: left if x < jump else -right), a, b)
    assert all(min(a, b) <= v <= max(a, b) for v in seen + [x])
    assert len(seen) <= 2 * 48  # interpolation gains nothing on a jump
    assert abs(x - jump) <= 1e-15 + 4.0 * math.ulp(1.0) * abs(x)


@settings(max_examples=200)
@given(nodes=st.lists(st.tuples(st.sampled_from(sorted(ROOT_SHAPES)), st.floats(0.1, 1000.0),
                                st.floats(0.0, 1.0)), min_size=1, max_size=6), **BRACKETS)
def test_zeroin_finds_the_crossing_nearest_the_safe_end(nodes, lo, width, frac, flip):
    # min w over the probe's nodes: each node falls from the safe end a
    # toward b and crosses zero a fraction of the way across, so min f
    # crosses where the node nearest a does, with a kink wherever another
    # node takes over the minimum
    a, b, _ = bracket(lo, width, frac, flip)
    toward = math.copysign(1.0, b - a)
    roots = [a + f * (b - a) for _, _, f in nodes]
    x, seen = zeroin_from(lambda x: np.array([ROOT_SHAPES[shape](toward * (r - x), k)
                                              for (shape, k, _), r in zip(nodes, roots)]), a, b)
    root = min(roots, key=lambda r: abs(r - a))
    assert all(min(a, b) <= v <= max(a, b) for v in seen + [x])
    assert len(seen) <= 48
    assert abs(x - root) <= 1e-15 + 4.0 * math.ulp(1.0) * abs(x)
