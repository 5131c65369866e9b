"""Property-based checks: the cap sampler, Moebius inverses, the conformal
distance identity, the JSON round trips of maps and coefficients, the
extremizer fit, the sign of the deficit and the Euler-Lagrange residual of
the family."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
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
    el_residual,
    extremizer,
    fit_extremizer,
    in_sigma,
    inverse,
    jacobian,
    map_from_json,
    map_to_json,
    random_positive_init,
    region_of,
    sample_region,
    sphere_point,
    synthesize,
)
from logsphere.conformal import _orthonormal_frame
from logsphere.harmonics import harmonic_count

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
    assert np.all(in_sigma(region, pts))


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


@given(n=DIMS, data=st.data())
def test_map_json_roundtrip(n, data):
    phi = data.draw(st.one_of(cap_maps(n), moebius_maps(n)))
    data_in = map_to_json(phi)
    back = map_from_json(json.loads(json.dumps(data_in)))
    assert type(back) is type(phi)
    assert map_to_json(back) == data_in


@given(n=DIMS, L=st.integers(0, 6), data=st.data())
def test_coefficient_json_roundtrip(n, L, data):
    count = harmonic_count(n, L)
    values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                min_size=count, max_size=count))
    c = HarmonicCoeffs(n, L, np.array(values))
    back = HarmonicCoeffs.loads(c.dumps())
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
    rep = beckner_deficit(random_positive_init(n, L, np.random.default_rng(seed), amp))
    assert rep.deficit >= -1e-9 * rep.energy_term


@settings(max_examples=20)
@given(n=DIMS, data=st.data(), size=st.floats(0.0, 0.4))
def test_el_residual_vanishes_on_family_members(n, data, size):
    # the equation fixes the amplitude: c = 2 leaves a residual of about 31
    zeta = size * data.draw(directions(n + 1))
    assert el_residual(family_coeffs(n, 16, zeta), 8).max_abs <= 1e-9
