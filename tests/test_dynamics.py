"""Flow, fitting, and moving-spheres diagnostics."""

import math

import numpy as np
import pytest

from logsphere import conformal as cf
from logsphere import (
    ExtremizerParams,
    FlowConfig,
    HarmonicCoeffs,
    MovingSphereReport,
    analyze,
    critical_alpha,
    critical_lambda,
    deficit_gradient,
    deficit_value,
    extremizer,
    fit_extremizer,
    inverse_stereographic,
    minimize_deficit,
    moving_sphere_profile,
    north_pole,
    random_coeffs,
    sphere_area,
    sphere_point,
    zeta_to_bubble,
)
from logsphere import harmonics as hm
from logsphere.dynamics import _CapProbe, random_positive_init
from logsphere.harmonics import flat_index, harmonic_count, harmonic_indices


def family_coeffs(grids, zeta, L=32):
    g = grids(2, L)
    return analyze(g.sample(extremizer(ExtremizerParams(np.asarray(zeta, float)))), L)


ONE = lambda pts: np.ones(np.atleast_2d(pts).shape[0])


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(step_size=-1.0)
    with pytest.raises(ValueError):
        FlowConfig(max_iter=0)
    for bad in ({"step_size": math.nan}, {"step_size": math.inf}):
        with pytest.raises(ValueError):
            FlowConfig(**bad)


def test_flow_near_fixed_point(grids):
    init = family_coeffs(grids, [0.0, 0.0, 0.3], L=16)
    res = minimize_deficit(init, FlowConfig(band_limit=16))
    assert res.final_deficit <= 1e-3
    moved = math.sqrt(float(np.sum((res.coeffs.coeffs - init.coeffs) ** 2)))
    assert moved <= 1e-2
    assert res.converged


def test_flow_from_perturbed_constant(grids):
    # 1 + 0.5 Y_{1,0} is positive; classification predicts the limit family
    L = 16
    init = HarmonicCoeffs.zeros(2, L)
    init.coeffs[0] = math.sqrt(sphere_area(2))
    init.coeffs[flat_index(2, 1, 0)] = 0.5
    res = minimize_deficit(init, FlowConfig(band_limit=L))
    assert res.final_deficit <= 1e-4
    fit = fit_extremizer(res.coeffs)
    assert fit.residual <= 1e-2
    assert fit.in_family


def test_flow_monotone_and_norm_conserving(rng):
    init = random_positive_init(2, 12, rng)
    target = math.sqrt(init.norm_sq())
    res = minimize_deficit(init, FlowConfig(band_limit=12, max_iter=200))
    diffs = np.diff(res.deficits)
    assert np.all(diffs <= 1e-14)
    assert math.sqrt(res.coeffs.norm_sq()) == pytest.approx(target, abs=1e-10 * target)


@pytest.mark.parametrize("n, init_L, band_limit", [(2, 6, 8), (2, 10, 8), (1, 5, 9), (1, 12, 9)])
def test_flow_changes_the_band_of_its_init(n, init_L, band_limit):
    # oracle: the per-label copy the flow made before `with_band_limit`
    rng = np.random.default_rng(init_L)
    init = random_coeffs(n, init_L, rng, decay=1.5)
    init.coeffs[0] += math.sqrt(sphere_area(n))
    vec = np.zeros(harmonic_count(n, band_limit))
    for (l, m) in harmonic_indices(n, min(band_limit, init_L)):
        vec[flat_index(n, l, m)] = init.get(l, m)
    cfg = FlowConfig(band_limit=band_limit, max_iter=5)
    got = minimize_deficit(init, cfg)
    want = minimize_deficit(HarmonicCoeffs(n, band_limit, vec), cfg)
    assert got.coeffs.L == band_limit
    np.testing.assert_array_equal(got.coeffs.coeffs, want.coeffs.coeffs)
    assert got.deficits == want.deficits


def test_flow_rejects_zero_init():
    with pytest.raises(ValueError):
        minimize_deficit(HarmonicCoeffs.zeros(2, 8), FlowConfig(band_limit=8))


def test_gradient_matches_finite_differences(rng):
    for _ in range(4):
        c = random_coeffs(2, 8, rng, decay=1.5)
        c.coeffs[0] += math.sqrt(sphere_area(2))
        grad = deficit_gradient(c)
        h = 1e-6
        for idx in rng.choice(c.coeffs.size, 5, replace=False):
            e = np.zeros_like(c.coeffs)
            e[idx] = h
            fd = (
                deficit_value(c.copy_with(c.coeffs + e))
                - deficit_value(c.copy_with(c.coeffs - e))
            ) / (2.0 * h)
            assert abs(fd - grad[idx]) <= 1e-5 * max(1.0, abs(grad[idx]))


def test_fit_recovers_family_member(grids):
    zeta = np.array([0.4, 0.0, 0.0])
    fit = fit_extremizer(family_coeffs(grids, zeta))
    assert np.abs(fit.params.zeta - zeta).max() < 1e-6
    assert fit.params.c == pytest.approx(1.0, abs=1e-6)
    assert fit.residual < 1e-8
    assert fit.in_family


def test_fit_constant(grids):
    c = HarmonicCoeffs.zeros(2, 8)
    c.coeffs[0] = 3.0 * math.sqrt(sphere_area(2))
    fit = fit_extremizer(c)
    assert np.abs(fit.params.zeta).max() < 1e-10
    assert fit.params.c == pytest.approx(3.0, rel=1e-10)
    assert fit.residual < 1e-10


def test_fit_rejects_non_family(grids):
    c = HarmonicCoeffs.zeros(2, 8)
    c.coeffs[flat_index(2, 2, 0)] = 1.0
    fit = fit_extremizer(c)
    assert fit.residual > 0.1
    assert not fit.in_family
    assert "not positive" in fit.message  # Y_20 changes sign


def test_fit_refuses_an_affine_fit_that_changes_sign(grids):
    # two bumps on the polar axis: u^{-1} is smallest on the ring z = 0.5 and
    # next smallest at the pole, so its weighted affine fit is negative at
    # the south pole
    g = grids(2, 64)
    u = analyze(g.sample(lambda p: np.exp(-20.0 * (p[:, 2] - 0.5) ** 2)
                         + 0.5 * np.exp(-20.0 * (p[:, 2] - 1.0) ** 2) + 1e-3), 32)
    fit = fit_extremizer(u)
    assert fit.params.c == 0.0 and fit.residual == 1.0
    assert not fit.in_family
    assert "a0 > |a|" in fit.message


def test_fit_idempotent(grids):
    first = fit_extremizer(family_coeffs(grids, [0.1, 0.2, -0.15]))
    refit_input = analyze(grids(2, 32).sample(extremizer(first.params)), 32)
    second = fit_extremizer(refit_input)
    assert np.abs(second.params.zeta - first.params.zeta).max() < 1e-8
    assert second.params.c == pytest.approx(first.params.c, abs=1e-8)


def test_profile_constant_inversions(rng):
    rep = moving_sphere_profile(ONE, [0.5, 0.8, 1.0, 1.5], xi0=north_pole(2), rng=rng)
    assert np.all(rep.min_w[:2] >= 0.0)  # small radii keep w nonnegative
    assert rep.sup_abs_w[2] < 1e-10  # the lifted unit inversion is a symmetry
    assert rep.min_w[3] < 0.0
    assert np.all(rep.defect < 1e-8)


def test_profile_constant_reflection(rng):
    rep = moving_sphere_profile(ONE, [0.0], e=np.array([0.6, 0.8]), rng=rng)
    assert rep.sup_abs_w[0] < 1e-10
    assert rep.defect[0] < 1e-10


def test_profile_antisymmetry_of_w(grids, rng):
    u = extremizer(ExtremizerParams(np.array([0.2, -0.1, 0.25])))
    rep = moving_sphere_profile(u, [0.4, 0.9, 1.7], xi0=sphere_point([0.6, 0.3, 0.9]), rng=rng)
    assert np.all(rep.defect <= 1e-8)


def test_profile_argument_validation(rng):
    with pytest.raises(ValueError):
        moving_sphere_profile(ONE, [0.5], rng=rng)
    with pytest.raises(ValueError):
        moving_sphere_profile(ONE, [0.5], xi0=north_pole(2), e=np.array([1.0, 0.0]), rng=rng)
    with pytest.raises(ValueError):
        moving_sphere_profile(ONE, [-0.5], xi0=north_pole(2), rng=rng)


def test_critical_lambda_constant():
    rep = critical_lambda(ONE, north_pole(2), rng=np.random.default_rng(5))
    assert rep.critical == pytest.approx(1.0, abs=1e-2)
    assert rep.sup_w_at_critical <= 1e-6
    assert not rep.critical_is_bound


def test_critical_lambda_family_matches_planar_geometry():
    # the family member is invariant under inversion about spheres orthogonal
    # to its planar bubble: lambda0^2 = |x0 - a|^2 + b^2
    zeta = np.array([0.2, -0.1, 0.25])
    u = extremizer(ExtremizerParams(zeta))
    a, b = zeta_to_bubble(zeta)
    for raw in ([0.0, 0.0, 1.0], [1.0, 0.5, 0.3], [-0.2, 0.9, -0.6]):
        xi0 = sphere_point(raw)
        x0 = inverse_stereographic(xi0)
        oracle = math.sqrt(float(np.sum((x0 - a) ** 2)) + b * b)
        rep = critical_lambda(u, xi0, rng=np.random.default_rng(7))
        assert rep.critical == pytest.approx(oracle, rel=1e-4)
        assert rep.sup_w_at_critical <= 1e-3


def test_critical_alpha_family():
    zeta = np.array([0.2, -0.1, 0.25])
    u = extremizer(ExtremizerParams(zeta))
    a, _ = zeta_to_bubble(zeta)
    e = np.array([0.6, 0.8])
    rep = critical_alpha(u, e, rng=np.random.default_rng(8))
    assert rep.critical == pytest.approx(float(a @ e), abs=1e-4)
    assert rep.sup_w_at_critical <= 1e-3


def test_critical_lambda_non_solution_flagged(grids):
    c = HarmonicCoeffs.zeros(2, 8)
    c.coeffs[0] = math.sqrt(sphere_area(2))
    c.coeffs[flat_index(2, 2, 0)] = 0.5 * math.sqrt(sphere_area(2))
    from logsphere.harmonics import as_evaluable

    rep = critical_lambda(as_evaluable(c), north_pole(2), rng=np.random.default_rng(9))
    # a sign change exists, but w does not vanish there: not a solution
    assert rep.sup_w_at_critical > 1e-1


def test_critical_lambda_bad_interval_raises():
    # a bubble concentrated at the north pole: lambda_0 = b ~ 0.007 < 0.02
    u = extremizer(ExtremizerParams(np.array([0.0, 0.0, 0.9999])))
    with pytest.raises(ValueError, match="safe end 0.02 of the fixed scan: the critical lambda"):
        critical_lambda(u, north_pole(2), rng=np.random.default_rng(3))


def test_critical_lambda_reports_lower_bound():
    # a bubble concentrated at the south pole: lambda_0 = b ~ 141 > 50
    u = extremizer(ExtremizerParams(np.array([0.0, 0.0, -0.9999])))
    rep = critical_lambda(u, north_pole(2), rng=np.random.default_rng(4))
    assert rep.critical_is_bound
    assert rep.critical == 50.0


def test_report_serialization(rng):
    rep = moving_sphere_profile(ONE, [0.5, 1.0], xi0=north_pole(2), rng=rng)
    d = rep.to_json_dict()
    assert d["kind"] == "inversion" and d["parameter"] == "lambda"
    rows = rep.csv_rows()
    assert rows[0] == ("lambda", "min_w", "sup_abs_w", "defect")
    assert len(rows) == 3


def force_pole_errors(monkeypatch, first_call, count=1):
    """Make calls first_call .. first_call + count - 1 of the planar step that
    every lifted map and Jacobian takes raise; returns the list of the call
    numbers that raised."""
    real, calls, raised = cf._planar_step, [0], []

    def planar_step(phi, pts):
        calls[0] += 1
        if first_call <= calls[0] < first_call + count:
            raised.append(calls[0])
            raise cf.PoleError("forced collision with a sample node")
        return real(phi, pts)

    monkeypatch.setattr(cf, "_planar_step", planar_step)
    return raised


def assert_same_stats_except(rep, ref, index):
    others = np.arange(ref.values.size) != index
    np.testing.assert_array_equal(rep.values, ref.values)
    for col in ("min_w", "sup_abs_w", "defect"):
        np.testing.assert_array_equal(getattr(rep, col)[others], getattr(ref, col)[others])
        assert np.isfinite(getattr(rep, col)[index])


FAMILY = extremizer(ExtremizerParams(np.array([0.2, -0.1, 0.25])))


def test_profile_retries_a_pole_collision_on_that_value_only(monkeypatch):
    # each scale value takes two planar steps (its nodes, then their images);
    # call 3 is the first of value 1
    values = [0.4, 0.9, 1.3, 1.7]
    ref = moving_sphere_profile(FAMILY, values, xi0=north_pole(2),
                                rng=np.random.default_rng(2))
    raised = force_pole_errors(monkeypatch, 3)
    rep = moving_sphere_profile(FAMILY, values, xi0=north_pole(2),
                                rng=np.random.default_rng(2))
    assert raised == [3]
    assert_same_stats_except(rep, ref, 1)


def test_critical_search_retries_a_pole_collision(monkeypatch):
    ref = critical_lambda(FAMILY, north_pole(2), rng=np.random.default_rng(7))
    raised = force_pole_errors(monkeypatch, 11)  # scan value 5, far below the critical radius
    rep = critical_lambda(FAMILY, north_pole(2), rng=np.random.default_rng(7))
    assert raised == [11]
    assert_same_stats_except(rep, ref, 5)
    assert rep.critical == ref.critical
    assert rep.sup_w_at_critical == ref.sup_w_at_critical


def test_bisection_retries_a_pole_collision(monkeypatch):
    # 32 scan values take 64 planar steps; each bisection step takes one
    ref = critical_lambda(FAMILY, north_pole(2), rng=np.random.default_rng(7))
    raised = force_pole_errors(monkeypatch, 65)
    rep = critical_lambda(FAMILY, north_pole(2), rng=np.random.default_rng(7))
    assert raised == [65]
    for col in ("values", "min_w", "sup_abs_w", "defect"):  # the scan is untouched
        np.testing.assert_array_equal(getattr(rep, col), getattr(ref, col))
    assert rep.critical == pytest.approx(ref.critical, rel=1e-6)


def test_second_pole_collision_at_one_value_raises(monkeypatch):
    raised = force_pole_errors(monkeypatch, 3, count=2)
    with pytest.raises(cf.PoleError):
        moving_sphere_profile(FAMILY, [0.4, 0.9], xi0=north_pole(2),
                              rng=np.random.default_rng(2))
    assert raised == [3, 4]


@pytest.mark.parametrize("kind", ["inversion", "reflection"])
def test_min_w_is_the_first_of_w_stats(kind):
    center = sphere_point([0.6, 0.3, 0.9]) if kind == "inversion" else None
    direction = np.array([0.6, 0.8]) if kind == "reflection" else None
    probe = _CapProbe(FAMILY, center, direction, np.random.default_rng(3))
    for value in (0.3, 0.7, 1.1, 1.9):
        assert probe.min_w(value) == probe.w_stats(value)[0]


def test_probe_names_a_value_it_cannot_resolve():
    probe = _CapProbe(FAMILY, None, np.array([1.0, 0.0]), np.random.default_rng(3))
    with pytest.raises(cf.PoleError, match=r"at alpha = 1e\+08: .* south pole"):
        probe.min_w(1e8)
    with pytest.raises(ValueError, match=r"at alpha = 1e\+200: the comparison region"):
        probe.profile([0.5, 1e200])


def test_report_refuses_a_non_finite_defect():
    with pytest.raises(ValueError, match="non-finite comparison values at alpha = 0.5"):
        MovingSphereReport(kind="reflection", n=2, center=None, direction=np.array([1.0, 0.0]),
                           values=[0.5, 1.0], min_w=np.zeros(2), sup_abs_w=np.zeros(2),
                           defect=np.array([math.nan, 0.0]))


def count_evaluations(monkeypatch):
    """Record the point count of every harmonics.evaluate_at call."""
    real, calls = hm.evaluate_at, []

    def evaluate_at(c, points, *args, **kwargs):
        calls.append(np.atleast_2d(points).shape[0])
        return real(c, points, *args, **kwargs)

    monkeypatch.setattr(hm, "evaluate_at", evaluate_at)
    return calls


def test_bisection_evaluates_u_once_per_step(monkeypatch):
    u = random_positive_init(2, 8, np.random.default_rng(11), amplitude=0.5)
    xi0 = sphere_point([0.3, -0.2, 0.9])
    probe = _CapProbe(u, xi0, None, np.random.default_rng(2))
    calls = count_evaluations(monkeypatch)
    probe.min_w(0.7)
    assert calls == [4096]  # the 2048 images and 2048 nodes together
    probe.w_stats(0.7)
    assert calls == [4096, 4096, 2048]  # then the images mapped back
    del calls[:]
    rep = critical_lambda(u, xi0, rng=np.random.default_rng(2))
    assert not rep.critical_is_bound
    # sup |u|, two per scan value, one per bisection step, two at the critical value
    assert len(calls) == 1 + 2 * 32 + 48 + 2
