"""Gamma-family functions against high-precision oracles, plus basis checks."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from logsphere import sphere_point
from logsphere.specfun import (
    assoc_legendre_norm,
    digamma,
    fourier_basis,
    legendre_row,
    ln_gamma,
)
from oracles import loop_assoc_legendre_norm, zonal_basis

mp.mp.dps = 40

# frozen with mpmath (40 digits): loggamma(0.5), digamma(1), digamma(0.5)
LN_SQRT_PI = 0.5723649429247000870717137
PSI_ONE = -0.5772156649015328606065121
PSI_HALF = -1.9635100260214234794409763
EULER_GAMMA = 0.57721566490153286061  # to 20 digits


def test_ln_gamma_classic_values():
    assert ln_gamma(1.0) == ln_gamma(2.0) == 0.0
    assert ln_gamma(0.5) == pytest.approx(LN_SQRT_PI, abs=1e-13)
    assert ln_gamma(5.0) == pytest.approx(math.log(24.0), abs=1e-13)


def test_ln_gamma_against_mpmath():
    for x in [1e-3, 0.02, 0.3, 0.77, 1.5, 4.2, 8.0, 11.3, 12.0, 25.0, 300.0]:
        assert abs(ln_gamma(x) - float(mp.loggamma(x))) < 1e-12
    for x in [1e4, 1e6]:
        ref = float(mp.loggamma(x))
        assert abs(ln_gamma(x) - ref) < 1e-13 * abs(ref)


def test_ln_gamma_recurrence(rng):
    for x in rng.uniform(1e-3, 100.0, 200):
        assert abs(ln_gamma(x + 1.0) - ln_gamma(x) - math.log(x)) < 1e-12


def test_digamma_classic_values():
    assert digamma(2.0) - digamma(1.0) == pytest.approx(1.0, abs=1e-13)
    assert digamma(1.0) == pytest.approx(PSI_ONE, abs=1e-13)
    assert digamma(0.5) == pytest.approx(PSI_HALF, abs=1e-13)
    assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-13)


def test_digamma_against_mpmath():
    for x in [1e-3, 0.05, 0.4, 1.0, 2.7, 7.99, 8.0, 42.0, 1e4]:
        assert abs(digamma(x) - float(mp.digamma(x))) < 1e-12


def test_digamma_recurrence(rng):
    for x in rng.uniform(1e-3, 100.0, 200):
        assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) < 1e-12


@pytest.mark.parametrize("fn", [ln_gamma, digamma])
@pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
def test_nonpositive_rejected(fn, x):
    with pytest.raises(ValueError):
        fn(x)


def test_zonal_basis_values():
    north = np.array([0.0, 0.0, 1.0])
    assert zonal_basis(2, 0, 0, north) == pytest.approx(1.0 / math.sqrt(4.0 * math.pi))
    assert zonal_basis(2, 1, 0, north) == pytest.approx(math.sqrt(3.0 / (4.0 * math.pi)))
    theta = 0.73
    pt = np.array([math.cos(theta), math.sin(theta)])
    assert zonal_basis(1, 1, 1, pt) == pytest.approx(math.cos(theta) / math.sqrt(math.pi))
    assert zonal_basis(1, 1, -1, pt) == pytest.approx(math.sin(theta) / math.sqrt(math.pi))
    assert zonal_basis(1, 0, 0, pt) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi))


def test_zonal_basis_index_errors():
    with pytest.raises(ValueError):
        zonal_basis(2, 1, 2, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        zonal_basis(1, 2, 0, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        zonal_basis(3, 0, 0, np.array([1.0, 0.0, 0.0, 0.0]))


def test_harmonic_addition_rotation_invariance(rng):
    # sum_m Y_{l,m}(xi) Y_{l,m}(eta) must depend on xi.eta only
    for n in (1, 2):
        xi = sphere_point(rng.standard_normal(n + 1))
        eta = sphere_point(rng.standard_normal(n + 1))
        q, _ = np.linalg.qr(rng.standard_normal((n + 1, n + 1)))
        xi_r, eta_r = q @ xi, q @ eta
        assert np.dot(xi_r, eta_r) == pytest.approx(np.dot(xi, eta), abs=1e-12)
        for l in (1, 3):
            ms = [0] if l == 0 else ([1, -1] if n == 1 else range(-l, l + 1))
            s1 = sum(zonal_basis(n, l, m, xi) * zonal_basis(n, l, m, eta) for m in ms)
            s2 = sum(zonal_basis(n, l, m, xi_r) * zonal_basis(n, l, m, eta_r) for m in ms)
            assert s1 == pytest.approx(s2, abs=1e-10)


def test_fourier_basis_shape_and_normalization():
    theta = np.linspace(0.0, 2.0 * math.pi, 201)[:-1]
    B = fourier_basis(3, theta)
    assert B.shape == (200, 7)
    w = 2.0 * math.pi / 200
    gram = B.T @ B * w
    np.testing.assert_allclose(gram, np.eye(7), atol=1e-12)


def test_legendre_rows_pack_pairs_of_orders():
    for L in range(41):
        P, width = L | 1, 2 * L + 2 - (L | 1)
        rows = {m: [legendre_row(L, l, m) for l in range(m, L + 1)] for m in range(P + 1)}
        # each (l, m) has exactly one row
        assert sorted(sum(rows.values(), [])) == list(range((L + 1) * (L + 2) // 2))
        # batch b holds orders b and P - b in one run of 2L + 2 - P rows, b
        # first and each by degree; for even L, order L + 1 has no rows
        for b in range(L // 2 + 1):
            assert rows[b] + rows[P - b] == list(range(b * width, (b + 1) * width))
        # order 0 comes first
        assert rows[0] == list(range(L + 1))


EDGE_T = [1.0, -1.0, 0.0, -0.0]


@given(L=st.integers(0, 40),
       t=st.lists(st.one_of(st.sampled_from(EDGE_T), st.floats(-1.0, 1.0)), max_size=24))
@example(L=0, t=EDGE_T)
@example(L=1, t=EDGE_T)
@example(L=40, t=EDGE_T)
def test_assoc_legendre_norm_matches_the_per_pair_loop(L, t):
    got = assoc_legendre_norm(L, np.array(t))
    want = loop_assoc_legendre_norm(L, np.array(t))
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # signed zeros too


def test_assoc_legendre_norm_matches_the_loop_on_the_degree_256_grid():
    # the polar nodes of the entropy grid at band limit 128
    t, _ = np.polynomial.legendre.leggauss(257)
    assert np.array_equal(assoc_legendre_norm(128, t), loop_assoc_legendre_norm(128, t))
