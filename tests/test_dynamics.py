"""Flow, fitting, and moving-spheres diagnostics."""

import math

import numpy as np
import pytest

from logsphere import conformal as cf
from logsphere import (
    ExtremizerParams,
    FlowConfig,
    HarmonicCoeffs,
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
from logsphere.energy import default_entropy_grid
from logsphere.harmonics import flat_index


def family_coeffs(grids, zeta, L=32):
    g = grids(2, L)
    return analyze(g.sample(extremizer(ExtremizerParams(np.asarray(zeta, float)))), L)


ONE = lambda pts: np.ones(np.atleast_2d(pts).shape[0])


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(step_size=-1.0)
    with pytest.raises(ValueError):
        FlowConfig(max_iter=0)
    with pytest.raises(ValueError):
        FlowConfig(norm_value=0.0)
    for bad in ({"step_size": math.nan}, {"step_size": math.inf},
                {"stop_tol": math.nan}, {"norm_value": math.inf}):
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


def test_flow_rejects_zero_init():
    with pytest.raises(ValueError):
        minimize_deficit(HarmonicCoeffs.zeros(2, 8), FlowConfig(band_limit=8))


def test_gradient_matches_finite_differences(rng):
    grid = default_entropy_grid(2, 8)
    for _ in range(4):
        c = random_coeffs(2, 8, rng, decay=1.5)
        c.coeffs[0] += math.sqrt(sphere_area(2))
        grad = deficit_gradient(c, grid)
        h = 1e-6
        for idx in rng.choice(c.coeffs.size, 5, replace=False):
            e = np.zeros_like(c.coeffs)
            e[idx] = h
            fd = (
                deficit_value(c.copy_with(c.coeffs + e), grid)
                - deficit_value(c.copy_with(c.coeffs - e), grid)
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
    rep = critical_lambda(ONE, north_pole(2), 0.3, 3.0, rng=np.random.default_rng(5))
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

    rep = critical_lambda(as_evaluable(c), north_pole(2), 0.05, 20.0,
                          rng=np.random.default_rng(9))
    # a sign change exists, but w does not vanish there: not a solution
    assert rep.sup_w_at_critical > 1e-1


def test_critical_lambda_bad_interval_raises():
    zeta = np.array([0.0, 0.0, 0.3])
    u = extremizer(ExtremizerParams(zeta))
    with pytest.raises(ValueError):
        critical_lambda(u, north_pole(2), 10.0, 20.0, rng=np.random.default_rng(3))


def test_critical_lambda_reports_lower_bound():
    rep = critical_lambda(ONE, north_pole(2), 0.05, 0.5, rng=np.random.default_rng(4))
    assert rep.critical_is_bound
    assert rep.critical == pytest.approx(0.5)


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
    probe = _CapProbe(FAMILY, kind, center, direction, 512, np.random.default_rng(3))
    for value in (0.3, 0.7, 1.1, 1.9):
        assert probe.min_w(value) == probe.w_stats(value)[0]


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
    probe = _CapProbe(u, "inversion", xi0, None, 256, np.random.default_rng(2))
    calls = count_evaluations(monkeypatch)
    probe.min_w(0.7)
    assert calls == [512]  # the 256 images and 256 nodes together
    probe.w_stats(0.7)
    assert calls == [512, 512, 256]  # then the images mapped back
    del calls[:]
    rep = critical_lambda(u, xi0, samples=256, rng=np.random.default_rng(2))
    assert not rep.critical_is_bound
    # sup |u|, two per scan value, one per bisection step, two at the critical value
    assert len(calls) == 1 + 2 * 32 + 48 + 2
