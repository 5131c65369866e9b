"""Energy form, deficit, Euler-Lagrange residuals, conformal identities and
their map passes, Gibbs."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from logsphere import (
    ExtremizerParams,
    GridFunction,
    HarmonicCoeffs,
    Moebius,
    analyze,
    apply_H,
    beckner_deficit,
    beckner_rhs,
    constant_Cn,
    el_residual,
    energy_direct,
    energy_direct_extrapolated,
    energy_spectral,
    extremizer,
    gibbs_gap,
    random_coeffs,
    sphere_area,
    synthesize,
    verify_conf_E,
    verify_conf_H,
)
from logsphere import conformal as cf
from logsphere import energy as en
from logsphere import verify as vf
from logsphere.energy import default_energy_eps
from logsphere.sphere import build_grid, min_internode_distance
from oracles import coeff, flat_index


def family_coeffs(grids, zeta, c=1.0, L=32):
    g = grids(2, L)
    return analyze(g.sample(extremizer(ExtremizerParams(np.asarray(zeta, float), c))), L)


def constant_coeffs(n, L, value=1.0):
    c = HarmonicCoeffs.zeros(n, L)
    c.coeffs[0] = value * math.sqrt(sphere_area(n))
    return c


def test_constant_Cn_values():
    assert constant_Cn(2) == pytest.approx(2.0 * math.pi, rel=1e-13)
    assert constant_Cn(1) == pytest.approx(4.0, rel=1e-13)
    assert constant_Cn(4) == pytest.approx(math.pi**2, rel=1e-13)
    with pytest.raises(ValueError):
        constant_Cn(0)


def test_energy_spectral_cases(rng):
    const = constant_coeffs(2, 8)
    v = random_coeffs(2, 8, rng)
    assert energy_spectral(const, const) == 0.0
    y10 = HarmonicCoeffs.zeros(2, 8)
    y10.coeffs[flat_index(2, 1, 0)] = 1.0
    assert energy_spectral(y10, y10) == pytest.approx(2.0 * math.pi, rel=1e-12)
    u = random_coeffs(2, 8, rng)
    a, b = 0.7, -1.3
    combo = u.copy_with(a * u.coeffs + b * v.coeffs)
    lhs = energy_spectral(combo, y10)
    rhs = a * energy_spectral(u, y10) + b * energy_spectral(v, y10)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    assert energy_spectral(u, v) == energy_spectral(v, u)
    with pytest.raises(ValueError):
        energy_spectral(u, random_coeffs(2, 6, rng))


def test_energy_direct_constant_and_symmetry(grids, rng):
    g = grids(2, 24)
    ones = GridFunction(g, np.ones(g.node_count))
    eps = 3.0 * math.pi / 25.0
    assert energy_direct(ones, ones, eps) == pytest.approx(0.0, abs=1e-9)
    u = synthesize(random_coeffs(2, 6, rng), g)
    v = synthesize(random_coeffs(2, 6, rng), g)
    assert energy_direct(u, v, eps) == pytest.approx(energy_direct(v, u, eps), rel=1e-13)


def test_energy_direct_matches_spectral_for_harmonic(grids):
    g = grids(2, 48)
    y10 = HarmonicCoeffs.zeros(2, 8)
    y10.coeffs[flat_index(2, 1, 0)] = 1.0
    f = synthesize(y10, g)
    direct = energy_direct_extrapolated(f, f)
    assert direct == pytest.approx(2.0 * math.pi, rel=2e-2)


def test_energy_direct_cross_check_at_degree_96(grids, rng):
    # N = 18721 nodes, beyond what a dense N x N pair sum could afford
    g = grids(2, 96)
    c = random_coeffs(2, 8, rng)
    direct = energy_direct_extrapolated(synthesize(c, g), synthesize(c, g))
    spectral = energy_spectral(c, c)
    assert abs(direct - spectral) < 1e-3 * abs(spectral)


def test_energy_direct_eps_guard(grids):
    g = grids(2, 16)
    f = GridFunction(g, np.ones(g.node_count))
    eps = 0.5 * min_internode_distance(g)
    with pytest.raises(ValueError):
        energy_direct(f, f, eps)


@pytest.mark.parametrize("n, least_ratio", [(2, 1.36), (1, 1.25)])
def test_default_energy_eps_clears_the_cutoff_guard(n, least_ratio):
    # the extrapolated energies always cut at default_energy_eps, so it must
    # pass the guard of energy_direct on any grid: the library's energy_direct*
    # take every degree, here up to where the pair kernel's tables reach
    # about 2 GiB (505 on S^2, 11574 on S^1)
    largest = 505 if n == 2 else 11574
    for degree in {*range(1, 41), 64, 128, 256, 505, largest}:
        g = build_grid(n, degree)
        assert default_energy_eps(g) >= least_ratio * 2.0 * min_internode_distance(g)


def test_beckner_rhs_cases(grids, rng):
    g = grids(2, 16)
    const = GridFunction(g, np.full(g.node_count, 2.5))
    assert beckner_rhs(const) == pytest.approx(0.0, abs=1e-9)
    sgn = GridFunction(g, np.where(g.nodes[:, 2] > 0.2, 1.0, -1.0))
    assert abs(beckner_rhs(sgn)) < 1e-9  # |u| constant
    u = synthesize(random_coeffs(2, 6, rng), g)
    scaled = GridFunction(g, 3.0 * u.values)
    assert beckner_rhs(scaled) == pytest.approx(9.0 * beckner_rhs(u), rel=1e-10)
    with pytest.raises(ValueError):
        beckner_rhs(GridFunction(g, np.zeros(g.node_count)))


def test_beckner_equality_on_family(grids):
    c = family_coeffs(grids, [0.2, -0.1, 0.25])
    g = grids(2, 64)
    rhs = beckner_rhs(synthesize(c, g))
    lhs = 2.0 * energy_spectral(c, c)
    assert abs(lhs - rhs) < 1e-3 * abs(lhs)


def test_beckner_deficit_cases(grids, rng):
    rep = beckner_deficit(constant_coeffs(2, 8))
    assert abs(rep.deficit) < 1e-10
    fam = beckner_deficit(family_coeffs(grids, [0.0, 0.0, 0.3]))
    assert abs(fam.deficit) <= 1e-3 * fam.energy_term
    for _ in range(10):
        c = random_coeffs(2, 8, rng)
        r = beckner_deficit(c)
        assert r.deficit > 0.0
        assert r.deficit == r.energy_term - r.entropy_term
    with pytest.raises(ValueError):
        beckner_deficit(HarmonicCoeffs.zeros(2, 8))


def test_el_residual_constant_and_family(grids):
    const = constant_coeffs(2, 8)
    r = el_residual(const, 4)
    assert r.max_abs < 1e-10 and not r.floored
    fam = family_coeffs(grids, [0.24, -0.32, 0.0])
    rf = el_residual(fam, 8)
    assert rf.max_abs <= 1e-3


def test_el_residual_amplitude_offset(grids):
    # scaling the family member by c shifts only through -C_n ln(c) u_{0,0}
    c_amp = 2.0
    fam = family_coeffs(grids, [0.24, -0.32, 0.0], c=c_amp)
    r = el_residual(fam, 2)
    predicted = -constant_Cn(2) * math.log(c_amp) * coeff(fam, 0, 0)
    assert coeff(r.residuals, 0, 0) == pytest.approx(predicted, rel=1e-6)


def test_el_residual_flooring_flag(grids, rng):
    signed = random_coeffs(2, 8, rng)  # sign-changing almost surely
    r = el_residual(signed, 4)
    assert r.floored
    with pytest.raises(ValueError):
        el_residual(signed, 10)  # L_test beyond band limit
    assert (r.residuals.n, r.residuals.L) == (2, 4)


def test_verify_conf_E(grids, rng):
    u = random_coeffs(2, 8, rng)
    v = random_coeffs(2, 8, rng)
    ident = Moebius(np.zeros(3))
    assert verify_conf_E(u, v, ident, grids(2, 16)) < 1e-10
    phi = Moebius(np.array([0.3, 0.0, 0.0]))
    res = verify_conf_E(u, v, phi, grids(2, 32))
    assert res <= 1e-3 * (1.0 + abs(energy_spectral(u, v)))
    # specialization u = v = 1: E[J^{1/2}, J^{1/2}] equals the correction term
    one = constant_coeffs(2, 8)
    assert verify_conf_E(one, one, phi, grids(2, 32)) <= 1e-3 * (
        1.0 + abs(energy_spectral(one, one))
    )
    from logsphere import LiftedInversion, sphere_point

    with pytest.raises(ValueError):
        verify_conf_E(u, v, LiftedInversion(1.0, sphere_point([0, 0, 1.0])), grids(2, 16))
    # the grid cannot project the pullbacks of states above its band limit
    with pytest.raises(ValueError, match="exceed the grid's band limit 6"):
        verify_conf_E(u, v, ident, grids(2, 6))


def test_verify_conf_E_rejects_extreme_zeta(grids, rng):
    u = random_coeffs(2, 8, rng)
    with pytest.raises(ValueError):
        verify_conf_E(u, u, Moebius(np.array([0.0, 0.0, 0.97])), grids(2, 16))


@pytest.mark.parametrize("n", [1, 2])
def test_verify_conf_E_checks_both_pullback_tails(grids, n):
    # the constant's pullback fits the degree-16 grid, the flat state's does
    # not (its residual there is 0.846 on S^2 and 0.0913 on S^1, against 2e-12
    # and 7e-15 on a degree-64 grid): neither order of the two may pass
    one = HarmonicCoeffs.constant(n, 16, 1.0)
    flat = random_coeffs(n, 16, np.random.default_rng(1), decay=0.0)
    phi = Moebius(np.eye(n + 1)[n] * 0.5)
    for u, v in ((one, flat), (flat, one)):
        with pytest.raises(ValueError, match="pullback projection overflow"):
            verify_conf_E(u, v, phi, grids(n, 16))


def test_verify_conf_H(grids, rng):
    u = random_coeffs(2, 8, rng)
    ident = Moebius(np.zeros(3))
    assert verify_conf_H(u, ident, grids(2, 16)) < 1e-9
    phi = Moebius(np.array([0.0, 0.25, 0.1]))
    hu = synthesize(apply_H(u), grids(2, 32)).values
    assert verify_conf_H(u, phi, grids(2, 32)) <= 1e-3 * max(1.0, np.abs(hu).max())
    # u = 1: the identity reduces to the equation satisfied by J^{1/2}
    one = constant_coeffs(2, 4)
    assert verify_conf_H(one, phi, grids(2, 32)) <= 1e-3


@pytest.mark.parametrize("L, decay", [(18, 3.0), (20, 3.0), (18, 2.0)])
def test_identity_checks_refuse_states_above_the_grid_band_limit(grids, L, decay):
    # the grid cannot project such a state's pullback: unguarded, H returns a
    # residual of a few 1e-2 at decay 3 and blames the map at decay 2
    u = random_coeffs(2, L, np.random.default_rng(0), decay=decay)
    phi = Moebius(np.array([0.0, 0.0, 0.01]))
    message = f"states of band limit {L} exceed the grid's band limit 16"
    with pytest.raises(ValueError, match=message):
        verify_conf_H(u, phi, grids(2, 16))
    with pytest.raises(ValueError, match=message):
        verify_conf_E(u, u, phi, grids(2, 16))


def test_identity_checks_refuse_a_map_or_state_off_the_grid_sphere(grids, rng):
    g = grids(2, 16)
    u2, u1 = random_coeffs(2, 4, rng), random_coeffs(1, 4, rng)
    phi2, phi1 = Moebius(np.array([0.0, 0.1, 0.2])), Moebius(np.array([0.1, 0.2]))
    message = r"the map and the states must act on the grid's S\^2"
    for u, phi in ((u1, phi2), (u2, phi1)):
        with pytest.raises(ValueError, match=message):
            verify_conf_H(u, phi, g)
        with pytest.raises(ValueError, match=message):
            verify_conf_E(u, u, phi, g)
    with pytest.raises(ValueError, match=message):
        verify_conf_E(u2, u1, phi2, g)


def test_each_node_set_is_mapped_once(grids, rng, monkeypatch):
    # map_with_jacobian as both the conformal and the energy module see it;
    # `jacobian` and `verify` reach it through the conformal module
    real, calls = cf.map_with_jacobian, []
    real_synthesize, synthesized = en.synthesize, []

    def counted(phi, xi):
        calls.append(len(xi))
        return real(phi, xi)

    def counted_synthesize(c, grid):
        synthesized.append(c.L)
        return real_synthesize(c, grid)

    monkeypatch.setattr(cf, "map_with_jacobian", counted)
    monkeypatch.setattr(en, "map_with_jacobian", counted, raising=False)
    monkeypatch.setattr(en, "synthesize", counted_synthesize)
    g = grids(2, 16)
    u, v = random_coeffs(2, 6, rng), random_coeffs(2, 6, rng)
    phi = Moebius(np.array([0.1, -0.2, 0.15]))
    verify_conf_H(u, phi, g)
    assert calls == [g.node_count]
    del calls[:], synthesized[:]
    verify_conf_E(u, v, phi, g)
    # the correction is read off the pullbacks: u and v are not synthesized
    assert calls == [g.node_count] and synthesized == []
    del calls[:]
    vf._suite_conformal_distance(SimpleNamespace(n=2), rng)
    assert calls == [200] * 15  # one sample of 200 rows for each of 15 maps


def test_gibbs_gap(grids, rng):
    g = grids(2, 12)
    fv = np.abs(synthesize(random_coeffs(2, 5, rng), g).values) + 0.05
    fv /= np.sum(g.weights * fv)
    # equality cases g = ln f + const
    uniform = np.full(g.node_count, 1.0 / sphere_area(2))
    assert gibbs_gap(g, uniform, np.log(uniform)) == pytest.approx(0.0, abs=1e-12)
    for shift in (-2.0, 0.0, 5.0):
        assert abs(gibbs_gap(g, fv, np.log(fv) + shift)) < 1e-9
    for _ in range(200):
        gv = synthesize(random_coeffs(2, 5, rng), g).values
        assert gibbs_gap(g, fv, gv) >= -1e-10
    with pytest.raises(ValueError):
        gibbs_gap(g, 2.0 * fv, fv)
    with pytest.raises(ValueError):
        gibbs_gap(g, -fv, fv)
