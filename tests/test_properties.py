"""Property-based checks: the cap sampler, Moebius inverses and the JSON
round trips of maps and coefficients."""

import json
import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from logsphere import (
    HarmonicCoeffs,
    LiftedInversion,
    LiftedReflection,
    Moebius,
    analyze,
    apply_map,
    build_grid,
    cap_points,
    in_sigma,
    inverse,
    jacobian,
    map_from_json,
    map_to_json,
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
    """A lifted inversion (base point kept off the south pole) or reflection."""
    if draw(st.booleans()):
        xi0 = draw(directions(n + 1))
        if 1.0 + xi0[-1] < 0.2:
            xi0 = -xi0
        return LiftedInversion(draw(st.floats(0.05, 5.0)), xi0)
    return LiftedReflection(draw(st.floats(-2.0, 2.0)), draw(directions(n)))


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


@given(n=DIMS, data=st.data())
def test_map_json_roundtrip(n, data):
    phi = data.draw(st.one_of(cap_maps(n), moebius_maps(n)))
    data_in = map_to_json(phi)
    back = map_from_json(json.loads(json.dumps(data_in)))
    assert type(back) is type(phi)
    data_out = map_to_json(back)
    assert data_out.keys() == data_in.keys()
    for key, value in data_in.items():
        if isinstance(value, str):
            assert data_out[key] == value
        else:
            # the constructors renormalize xi0 and e, which may move an ulp
            np.testing.assert_allclose(data_out[key], value, rtol=0.0, atol=4e-16)


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
