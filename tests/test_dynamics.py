"""Flow, fitting, and moving-spheres diagnostics."""

import math
import re

import numpy as np
import pytest

from logsphere import conformal as cf
from logsphere import dynamics as dy
from logsphere import (
    ExtremizerParams,
    HarmonicCoeffs,
    analyze,
    build_grid,
    critical_alpha,
    critical_lambda,
    deficit_gradient,
    deficit_value,
    el_residual,
    extremizer,
    fit_extremizer,
    inverse_stereographic,
    minimize_deficit,
    moving_sphere_profile,
    north_pole,
    random_coeffs,
    sphere_area,
    sphere_point,
)
from logsphere import harmonics as hm
from logsphere.cli import main
from logsphere.dynamics import _CapProbe, random_positive_init
from logsphere.energy import default_entropy_grid
from logsphere.harmonics import as_evaluable, harmonic_count, harmonic_indices
from oracles import (bisection_critical, brent_critical, coeff, first_failing_step, flat_index,
                     zeta_to_bubble)


def family_coeffs(grids, zeta, L=32):
    g = grids(2, L)
    return analyze(g.sample(extremizer(ExtremizerParams(np.asarray(zeta, float)))), L)


ONE = lambda pts: np.ones(len(pts))


def test_flow_parameter_validation():
    init = HarmonicCoeffs.constant(2, 4, 1.0)
    for step, max_iter in [(-1.0, 10), (0.0, 10), (math.nan, 10), (math.inf, 10),
                           (0.05, 0), (0.05, -1)]:
        with pytest.raises(ValueError, match="flow parameters must be positive and finite"):
            minimize_deficit(init, step, max_iter)


def test_flow_near_fixed_point(grids):
    init = family_coeffs(grids, [0.0, 0.0, 0.3], L=16)
    res = minimize_deficit(init, 0.05, 2000)
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
    res = minimize_deficit(init, 0.05, 2000)
    assert res.final_deficit <= 1e-4
    fit = fit_extremizer(res.coeffs)
    assert fit.residual <= 1e-2
    assert fit.in_family


def test_flow_monotone_and_norm_conserving(rng):
    init = random_positive_init(2, 12, rng)
    target = math.sqrt(init.norm_sq())
    res = minimize_deficit(init, 0.05, 200)
    diffs = np.diff(res.deficits)
    assert np.all(diffs <= 1e-14)
    assert math.sqrt(res.coeffs.norm_sq()) == pytest.approx(target, abs=1e-10 * target)


@pytest.mark.parametrize("n, init_L, band_limit", [(2, 6, 8), (2, 10, 8), (1, 5, 9), (1, 12, 9)])
def test_flow_changes_the_band_of_its_init(n, init_L, band_limit):
    # the flow runs at its init's band, so a caller moves the init there, as
    # `minimize` does; oracle: the per-label copy of the init at that band
    rng = np.random.default_rng(init_L)
    init = random_coeffs(n, init_L, rng, decay=1.5)
    init.coeffs[0] += math.sqrt(sphere_area(n))
    vec = np.zeros(harmonic_count(n, band_limit))
    for l, m in zip(*harmonic_indices(n, min(band_limit, init_L))):
        vec[flat_index(n, l, m)] = coeff(init, l, m)
    moved = init.with_band_limit(band_limit)
    got = minimize_deficit(moved, 0.05, 5)
    want = minimize_deficit(HarmonicCoeffs(n, band_limit, vec), 0.05, 5)
    assert got.coeffs.L == band_limit
    np.testing.assert_array_equal(got.coeffs.coeffs, want.coeffs.coeffs)
    assert got.deficits == want.deficits
    assert got.coeffs.coeffs is not moved.coeffs  # the flow does not write into its init


def test_flow_rejects_zero_init():
    with pytest.raises(ValueError):
        minimize_deficit(HarmonicCoeffs.zeros(2, 8), 0.05, 2000)


@pytest.mark.parametrize("value, shown", [(1e300, "inf"), (1e-300, "0.0"), (0.0, "0.0"),
                                          (1e-155, "1.256637061435917e-309"),
                                          (1e-160, "1.25666e-319")])
def test_flow_refuses_an_init_whose_squared_norm_is_no_positive_float(value, shown):
    # at 1e300 and 1e-300 the coefficients are finite and nonzero, but their
    # squares overflow or underflow; at 1e-155 and 1e-160 (times sqrt(4 pi))
    # the squares are subnormal
    with pytest.raises(ValueError, match=f"is a normal positive finite float, got {shown}$"):
        minimize_deficit(HarmonicCoeffs.constant(2, 8, value), 0.05, 10)


@pytest.mark.parametrize("n", [1, 2])
def test_flow_rejects_a_step_whose_candidate_overflows(n):
    # at 1e300 every trial's candidate norm overflows; each is rejected as
    # a too-long trial at 1e150 is, so both stall at the initial state
    init = random_positive_init(n, 8, np.random.default_rng(2), 0.5)
    finite, overflowing = (minimize_deficit(init, step, 20) for step in (1e150, 1e300))
    assert finite.message == overflowing.message == (
        "line search stalled: deficit no longer decreases")
    assert finite.deficits == overflowing.deficits
    np.testing.assert_array_equal(overflowing.coeffs.coeffs, init.coeffs)


@pytest.mark.parametrize("n", [1, 2])
def test_passing_the_entropy_grid_changes_no_result(n):
    # with the grid the init's perturbation is synthesized on it, without
    # one its node values come from `evaluate_on_grid`: the two routes agree
    # to rounding, and the flow and the fit from one init are bit-identical
    grid = default_entropy_grid(n, 8)
    init = random_positive_init(n, 8, np.random.default_rng(4), 0.5, grid=grid)
    own_init = random_positive_init(n, 8, np.random.default_rng(4), 0.5)
    np.testing.assert_allclose(own_init.coeffs, init.coeffs, rtol=1e-13, atol=0.0)
    own, shared = minimize_deficit(init, 0.05, 30), minimize_deficit(init, 0.05, 30, grid)
    assert shared.to_json_dict() == own.to_json_dict()
    np.testing.assert_array_equal(shared.coeffs.coeffs, own.coeffs.coeffs)
    assert fit_extremizer(own.coeffs, grid).to_json_dict() == fit_extremizer(own.coeffs).to_json_dict()


@pytest.mark.parametrize("n", [1, 2])
def test_random_init_never_forms_the_grid_nodes(n):
    # the init is scaled on synthesized values alone, so a fresh grid keeps
    # only its ring and azimuth factors (the degree-256 entropy grid of
    # L = 128 has 131 841 nodes)
    grid = default_entropy_grid(n, 8)
    random_positive_init(n, 8, np.random.default_rng(4), 0.5, grid=grid)
    assert "nodes" not in vars(grid) and "weights" not in vars(grid)


@pytest.mark.parametrize("n", [1, 2])
def test_passing_the_member_and_entropy_grids_changes_no_result(n):
    # the verify family suites share one degree-L grid among the members and
    # one entropy grid among the residuals
    member_grid, grid = build_grid(n, 12), default_entropy_grid(n, 12)
    for mag in (0.0, 0.3):
        params = ExtremizerParams(mag * sphere_point(np.arange(1.0, n + 2.0)))
        member = dy.family_coeffs(params, 12)
        np.testing.assert_array_equal(dy.family_coeffs(params, 12, member_grid).coeffs,
                                      member.coeffs)
        own, shared = el_residual(member, 6), el_residual(member, 6, grid)
        np.testing.assert_array_equal(shared.residuals.coeffs, own.residuals.coeffs)
        assert (shared.floored, shared.max_abs) == (own.floored, own.max_abs)


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


@pytest.mark.parametrize("n", [1, 2])
def test_fit_far_from_the_family_is_no_worse_than_the_zero_model(grids, n):
    # positive, but a sharp bump at each pole: the solved member misfits u
    # by 1.6 (S^1) and 2.7 (S^2), more than c = 0 does
    u = analyze(grids(n, 32).sample(lambda x: 0.01 + x[:, -1] ** 8), 16)
    fit = fit_extremizer(u)
    assert fit.params.c == 0.0 and fit.residual == 1.0
    assert not fit.in_family
    assert "zero model" in fit.message


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
        x0 = inverse_stereographic(xi0[None])[0]
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
    assert d["defect"] == rep.defect.tolist() and d["defect_at_critical"] is None
    rows = rep.csv_rows()
    assert rows[0] == ("lambda", "min_w", "sup_abs_w", "defect")
    assert len(rows) == 3


def test_search_report_has_no_defect_column():
    rep = critical_alpha(FAMILY, np.array([0.6, 0.8]), rng=np.random.default_rng(8))
    d = rep.to_json_dict()
    assert d["defect"] is None and d["defect_at_critical"] == rep.defect_at_critical
    rows = rep.csv_rows()
    assert rows[0] == ("alpha", "min_w", "sup_abs_w")
    assert [row[1:] for row in rows[1:]] == list(zip(rep.min_w.tolist(),
                                                     rep.sup_abs_w.tolist()))


def force_pole_errors(monkeypatch, *poles):
    """Make the calls numbered `poles` (from 1) of the planar step that every
    lifted map and Jacobian takes raise; returns the list of the call
    numbers that raised."""
    real, calls, raised = cf._planar_step, [0], []

    def planar_step(phi, pts):
        calls[0] += 1
        if calls[0] in poles:
            raised.append(calls[0])
            raise cf.PoleError("forced collision with a sample node")
        return real(phi, pts)

    monkeypatch.setattr(cf, "_planar_step", planar_step)
    return raised


def assert_same_stats_except(rep, ref, index):
    """The same columns at every value but `index`, finite there; a critical
    search has no defect column in either report."""
    others = np.arange(ref.values.size) != index
    np.testing.assert_array_equal(rep.values, ref.values)
    for col in ("min_w", "sup_abs_w", "defect"):
        if getattr(ref, col) is None:
            assert getattr(rep, col) is None
            continue
        np.testing.assert_array_equal(getattr(rep, col)[others], getattr(ref, col)[others])
        assert np.isfinite(getattr(rep, col)[index])


FAMILY = extremizer(ExtremizerParams(np.array([0.2, -0.1, 0.25])))
RANDOM_STATE = as_evaluable(random_positive_init(2, 8, np.random.default_rng(11), amplitude=0.5))


@pytest.mark.parametrize("xi0, e", [(north_pole(2), None), (None, np.array([0.6, 0.8]))],
                         ids=["inversion", "reflection"])
def test_probe_evaluates_u_at_its_nodes_on_c_order_rows(xi0, e):
    # the cap points come as column blocks, and the probe hands u its images
    # and nodes in whatever layout they have: the family sums zeta . xi over
    # the coordinates in order, so u has the same bits at them as at their
    # C-order copies, and so does the profile (a matrix product with these
    # rows and this zeta rounds some of them by their layout)
    family = extremizer(ExtremizerParams(np.array([0.123, 0.456, -0.2])))
    layouts = []

    def c_order_u(pts):
        layouts.append(pts.flags.c_contiguous)
        got = family(np.ascontiguousarray(pts))
        np.testing.assert_array_equal(family(pts), got)
        return got

    ref = moving_sphere_profile(family, [0.5, 1.0], xi0=xi0, e=e,
                                rng=np.random.default_rng(3))
    rep = moving_sphere_profile(c_order_u, [0.5, 1.0], xi0=xi0, e=e,
                                rng=np.random.default_rng(3))
    assert len(layouts) == 4 and not all(layouts)  # u saw other layouts
    for col in ("values", "min_w", "sup_abs_w", "defect"):
        np.testing.assert_array_equal(getattr(rep, col), getattr(ref, col))


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
    assert rep.retried == [0.9] and ref.retried == []


def test_critical_search_retries_a_pole_collision(monkeypatch):
    # each scan value takes one planar step (its nodes); call 6 is value 5
    ref = critical_lambda(FAMILY, north_pole(2), rng=np.random.default_rng(7))
    raised = force_pole_errors(monkeypatch, 6)  # scan value 5, far below the critical radius
    rep = critical_lambda(FAMILY, north_pole(2), rng=np.random.default_rng(7))
    assert raised == [6]
    assert ref.defect is None
    assert_same_stats_except(rep, ref, 5)
    assert rep.critical == ref.critical
    assert rep.sup_w_at_critical == ref.sup_w_at_critical
    assert rep.defect_at_critical == ref.defect_at_critical


def test_root_finder_retries_a_pole_collision(monkeypatch):
    # 32 scan values take 32 planar steps; each root-finder step takes one
    ref = critical_lambda(FAMILY, north_pole(2), rng=np.random.default_rng(7))
    raised = force_pole_errors(monkeypatch, 33)
    rep = critical_lambda(FAMILY, north_pole(2), rng=np.random.default_rng(7))
    assert raised == [33]
    for col in ("values", "min_w", "sup_abs_w"):  # the scan is untouched
        np.testing.assert_array_equal(getattr(rep, col), getattr(ref, col))
    assert rep.defect is None and ref.defect is None
    assert rep.critical == pytest.approx(ref.critical, rel=1e-6)


def test_critical_value_retries_a_pole_in_its_defect_pass(monkeypatch):
    # the defect at the critical value maps back the images of the pass the
    # search made there; a pole in that map re-draws the value once on a
    # fresh template, and the critical value stays
    xi0 = sphere_point([0.3, -0.2, 0.9])
    ref = critical_lambda(RANDOM_STATE, xi0, rng=np.random.default_rng(2))
    steps = ref.refine_evaluations
    calls = count_evaluations(monkeypatch)
    raised = force_pole_errors(monkeypatch, 32 + steps + 1)  # one per scan value and step
    rep = critical_lambda(RANDOM_STATE, xi0, rng=np.random.default_rng(2))
    assert raised == [32 + steps + 1]
    assert rep.critical == ref.critical and rep.refine_evaluations == steps
    assert rep.retried == [rep.critical] and ref.retried == []
    # sup |u|, the scan and the steps, then the fresh template's forward
    # and defect passes: no second forward pass on the probe's template
    assert len(calls) == 1 + 32 + steps + 2 and calls[-2:] == [4096, 2048]
    assert math.isfinite(rep.sup_w_at_critical) and 0.0 <= rep.defect_at_critical < 1e-8


def test_root_finder_step_on_a_fresh_template_is_scalar(monkeypatch):
    # the first root-finder step meets a pole: its value is re-drawn on one
    # fresh template, whose nodes match none of the others, and the search
    # still lands on the scalar Brent root of the first template's min w
    real, draws = _CapProbe._draw_template, []

    def draw_template(self):
        draws.append(1)
        return real(self)

    real_step, sizes = dy._secant_step, set()

    def secant_step(a, b, fa, fb, *args):
        sizes.update((fa.size, fb.size))
        return real_step(a, b, fa, fb, *args)

    monkeypatch.setattr(_CapProbe, "_draw_template", draw_template)
    monkeypatch.setattr(dy, "_secant_step", secant_step)
    raised = force_pole_errors(monkeypatch, 33)
    rep = critical_lambda(FAMILY, north_pole(2), rng=np.random.default_rng(7))
    assert raised == [33] and len(draws) == 2  # the probe's template, then one fresh
    assert sizes == {1, dy.DEFAULT_SAMPLES}  # the fresh value's steps were scalar
    assert len(rep.retried) == 1 and rep.to_json_dict()["retried"] == rep.retried
    want = brent_critical(FAMILY, north_pole(2), None, 1e-9, np.random.default_rng(7))
    assert abs(rep.critical - want) <= 1e-13 * want


def test_second_pole_collision_at_one_value_raises(monkeypatch):
    raised = force_pole_errors(monkeypatch, 3, 4)
    with pytest.raises(cf.PoleError):
        moving_sphere_profile(FAMILY, [0.4, 0.9], xi0=north_pole(2),
                              rng=np.random.default_rng(2))
    assert raised == [3, 4]


def test_pole_in_a_fresh_templates_defect_pass_raises(monkeypatch):
    # value 0.9 meets a pole in its forward pass (call 3) and is re-drawn;
    # the defect pass on its fresh template (call 5) meets a second one
    raised = force_pole_errors(monkeypatch, 3, 5)
    with pytest.raises(cf.PoleError, match=r"^at lambda = 0\.9: forced collision"):
        moving_sphere_profile(FAMILY, [0.4, 0.9], xi0=north_pole(2),
                              rng=np.random.default_rng(2))
    assert raised == [3, 5]
    raised = force_pole_errors(monkeypatch, 3, 5)
    with pytest.raises(SystemExit) as exc:
        main(["movespheres", "--xi0", "north", "--values", "0.4,0.9"])
    assert exc.value.code == "movespheres: at lambda = 0.9: forced collision with a sample node"
    assert raised == [3, 5]


def test_a_fresh_pass_handed_back_raises_at_a_defect_pole(monkeypatch):
    # a pass re-drawn after a pole keeps its fresh template: a pole in its
    # defect pass raises rather than drawing a third template
    probe = _CapProbe(FAMILY, north_pole(2), None, np.random.default_rng(2))
    raised = force_pole_errors(monkeypatch, 1, 3)
    p, _ = probe.measure(0.9)
    assert p.fresh and probe.retried == [0.9]
    with pytest.raises(cf.PoleError, match=r"^at lambda = 0\.9: forced collision"):
        probe.measure(0.9, p, defect=True)
    assert raised == [1, 3] and probe.retried == [0.9]


@pytest.mark.parametrize("kind", ["inversion", "reflection"])
def test_a_defect_measurement_keeps_the_pass_stats(kind):
    center = sphere_point([0.6, 0.3, 0.9]) if kind == "inversion" else None
    direction = np.array([0.6, 0.8]) if kind == "reflection" else None
    probe = _CapProbe(FAMILY, center, direction, np.random.default_rng(3))
    for value in (0.3, 0.7, 1.1, 1.9):
        p, none = probe.measure(value)
        q, defect = probe.measure(value, defect=True)
        assert none is None and math.isfinite(defect)
        assert p.stats == q.stats


def test_probe_names_a_value_it_cannot_resolve():
    probe = _CapProbe(FAMILY, None, np.array([1.0, 0.0]), np.random.default_rng(3))
    with pytest.raises(cf.PoleError, match=r"at alpha = 1e\+08: .* south pole"):
        probe.measure(1e8)
    with pytest.raises(ValueError, match=r"at alpha = 1e\+200: the comparison region"):
        probe.profile([0.5, 1e200])


def test_measure_refuses_a_non_finite_defect(monkeypatch):
    # the pass itself is finite; its defect alone is refused, and by value
    probe = _CapProbe(FAMILY, None, np.array([1.0, 0.0]), np.random.default_rng(3))
    monkeypatch.setattr(_CapProbe, "_defect", lambda self, p: math.nan)
    p, _ = probe.measure(0.5)
    assert np.isfinite(p.stats).all()
    with pytest.raises(ValueError, match=r"^non-finite comparison values at alpha = 0\.5$"):
        probe.measure(0.5, defect=True)
    with pytest.raises(ValueError, match=r"^non-finite comparison values at alpha = 0\.5$"):
        probe.profile([0.5, 1.0])


def count_evaluations(monkeypatch):
    """Record the point count of every harmonics.evaluate_at call."""
    real, calls = hm.evaluate_at, []

    def evaluate_at(c, points, *args, **kwargs):
        calls.append(len(points))
        return real(c, points, *args, **kwargs)

    monkeypatch.setattr(hm, "evaluate_at", evaluate_at)
    return calls


def count_root_finder_steps(monkeypatch):
    """Count the root-finder's evaluations of its vector function of the
    nodes, one per step."""
    real, steps = dy._zeroin, [0]

    def zeroin(f, *args):
        def counted(x):
            steps[0] += 1
            return f(x)
        return real(counted, *args)

    monkeypatch.setattr(dy, "_zeroin", zeroin)
    return steps


def test_critical_search_evaluates_u_once_per_step(monkeypatch):
    xi0 = sphere_point([0.3, -0.2, 0.9])
    probe = _CapProbe(RANDOM_STATE, xi0, None, np.random.default_rng(2))
    calls = count_evaluations(monkeypatch)
    p, _ = probe.measure(0.7)
    assert calls == [4096]  # the 2048 images and 2048 nodes together
    q, defect = probe.measure(0.7, defect=True)
    assert calls == [4096, 4096, 2048]  # then the images mapped back
    assert p.stats == q.stats
    reused, again = probe.measure(0.7, p, defect=True)  # p's images mapped back alone
    assert reused is p and again == defect
    assert calls == [4096, 4096, 2048, 2048]
    del calls[:]
    steps = count_root_finder_steps(monkeypatch)
    rep = critical_lambda(RANDOM_STATE, xi0, rng=np.random.default_rng(2))
    assert not rep.critical_is_bound
    # sup |u|, one per scan value, one per root-finder step, and at the
    # critical value only the images mapped back: its images and nodes are
    # those of the root-finder's step there
    assert 0 < steps[0] == rep.refine_evaluations < 48
    assert len(calls) == 1 + 32 + steps[0] + 1
    assert calls[1:-1] == [4096] * (32 + steps[0]) and calls[-1] == 2048
    assert rep.defect is None and 0.0 <= rep.defect_at_critical < 1e-8
    p, defect = _CapProbe(RANDOM_STATE, xi0, None, np.random.default_rng(2)).measure(
        rep.critical, defect=True)
    assert (rep.sup_w_at_critical, rep.defect_at_critical) == (p.stats[1], defect)


@pytest.mark.parametrize("u", [RANDOM_STATE, FAMILY], ids=["random", "family"])
@pytest.mark.parametrize("xi0, e", [
    (sphere_point([0.3, -0.2, 0.9]), None),
    (sphere_point([-0.7, 0.4, 0.2]), None),
    (None, np.array([0.6, 0.8])),
    (None, np.array([-1.0, 0.3])),
], ids=["inversion-1", "inversion-2", "reflection-1", "reflection-2"])
def test_critical_matches_the_bisection_oracle(u, xi0, e):
    if e is None:
        rep = critical_lambda(u, xi0, rng=np.random.default_rng(5))
    else:
        rep = critical_alpha(u, e, rng=np.random.default_rng(5))
    assert not rep.critical_is_bound
    want = bisection_critical(u, xi0, e, 1e-9, np.random.default_rng(5))
    assert abs(rep.critical - want) <= 1e-12 * abs(want)


def random_search_case(seed):
    """A random state at band limit 16 and a base point on S^2, drawn from
    `seed` the way the benchmark draws its probe jobs."""
    rng = np.random.default_rng(seed)
    u = as_evaluable(random_positive_init(2, 16, rng))
    xi0 = rng.standard_normal(3)
    xi0 /= np.linalg.norm(xi0)
    return u, (-xi0 if 1.0 + xi0[-1] < 0.2 else xi0)


def assert_same_crossing(u, xi0, e, seed: int, got: float, want: float):
    """`got` and `want`, two critical values of the search with rng seed
    `seed`, agree within 1e-13, or else both are crossings of min w (each
    within 1e-12 of the threshold) with a sign change between them: where
    min w crosses the threshold again, or is rounding noise about it, each
    finder may land on another crossing."""
    if abs(got - want) <= 1e-13 * abs(want):
        return
    probe, threshold, _, _ = first_failing_step(u, xi0, e, 1e-9, np.random.default_rng(seed))
    between = (np.geomspace if xi0 is not None else np.linspace)(got, want, 64)
    excess = [probe.measure(float(v))[0].stats[0] - threshold for v in between]
    assert max(abs(excess[0]), abs(excess[-1])) <= 1e-12, (got, want)  # both are crossings
    assert min(excess[1:-1]) < 0 < max(excess[1:-1]), (got, want)  # with another between


def test_critical_search_cost_and_accuracy():
    # the root-finder follows the node active at the root, so it takes few
    # steps, and it lands on a crossing of min w: the scalar Brent root of
    # the same scan step, or another crossing (seed 3118: three crossings,
    # 2% apart)
    steps = []
    for seed in range(3100, 3120):
        u, xi0 = random_search_case(seed)
        rep = critical_lambda(u, xi0, rng=np.random.default_rng(seed))
        assert not rep.critical_is_bound and rep.retried == []
        steps.append(rep.refine_evaluations)
        want = brent_critical(u, xi0, None, 1e-9, np.random.default_rng(seed))
        assert_same_crossing(u, xi0, None, seed, rep.critical, want)
    assert np.mean(steps) <= 14


@pytest.mark.parametrize("n, xi0, e", [
    (1, sphere_point([0.6, 0.8]), None),
    (2, None, np.array([0.3, -0.9])),
], ids=["circle-inversion", "reflection"])
def test_critical_search_matches_the_brent_oracle(n, xi0, e):
    # on the circle min w is rounding noise about the threshold over about
    # 7e-13 of lambda at the root, so the two finders may stop on two
    # crossings there; a value 1e-6 off the root is no crossing
    u = as_evaluable(random_positive_init(n, 16, np.random.default_rng(3120), 0.5))
    search = critical_lambda if e is None else critical_alpha
    rep = search(u, xi0 if e is None else e, rng=np.random.default_rng(3121))
    assert not rep.critical_is_bound and 0 < rep.refine_evaluations < 48
    want = brent_critical(u, xi0, e, 1e-9, np.random.default_rng(3121))
    assert_same_crossing(u, xi0, e, 3121, rep.critical, want)
    with pytest.raises(AssertionError):
        assert_same_crossing(u, xi0, e, 3121, want * (1.0 + 1e-6), want)


SEARCHES = [(critical_lambda, north_pole(2)), (critical_alpha, np.array([1.0, 0.0]))]


@pytest.mark.parametrize("scale", [2.0 ** -600, 2.0 ** 600], ids=["tiny", "huge"])
@pytest.mark.parametrize("search, where", SEARCHES, ids=["inversion", "reflection"])
def test_critical_search_of_a_scaled_constant_keeps_its_bits(search, where, scale):
    # a power of two scales w exactly, so the search takes the same steps;
    # the bracket test compares signs, since the product of two minima of
    # 2^-600 underflows to zero
    base = search(ONE, where, rng=np.random.default_rng(0))
    rep = search(lambda pts: np.full(len(pts), scale), where, rng=np.random.default_rng(0))
    assert rep.critical == base.critical and not rep.critical_is_bound
    assert rep.refine_evaluations == base.refine_evaluations > 0
    np.testing.assert_array_equal(rep.min_w, scale * base.min_w)


@pytest.mark.parametrize("search, where", SEARCHES, ids=["inversion", "reflection"])
def test_critical_search_refuses_a_subnormal_state(search, where):
    # its threshold -tol sup |u| would underflow; the zero state keeps its bound
    with pytest.raises(ValueError, match=re.escape("sup |u| is zero or a normal float, "
                                                   "got 1e-318")):
        search(lambda pts: np.full(len(pts), 1e-318), where)
    rep = search(lambda pts: np.zeros(len(pts)), where)
    assert rep.critical_is_bound and rep.critical in (50.0, -6.0)


@pytest.mark.parametrize("u", [lambda pts: np.full(len(pts), 1e307),
                               extremizer(ExtremizerParams(np.zeros(3), 1e308))],
                         ids=["constant", "extremizer"])
@pytest.mark.parametrize("search, where, first", [(*SEARCHES[0], "lambda = 0.02"),
                                                  (*SEARCHES[1], "alpha = 6")],
                         ids=["inversion", "reflection"])
def test_critical_search_refuses_its_first_non_finite_scan_value(monkeypatch, u, search,
                                                                 where, first):
    # at once: no further scan value, refinement step or defect pass, and no
    # overflow warning (an error here)
    real, calls = _CapProbe.measure, []

    def measure(self, value, *args, **kwargs):
        calls.append(value)
        return real(self, value, *args, **kwargs)

    monkeypatch.setattr(_CapProbe, "measure", measure)
    with pytest.raises(ValueError, match=f"non-finite comparison values at {first}$"):
        search(u, where)
    assert len(calls) == 1
