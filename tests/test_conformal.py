"""Stereographic machinery, map identities, pullbacks, regions, kernels."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from logsphere import (
    ExtremizerParams,
    GridFunction,
    LiftedInversion,
    LiftedReflection,
    Moebius,
    PoleError,
    antisymmetry_defect,
    apply_map,
    extremizer,
    integrate,
    inverse_stereographic,
    jacobian,
    kernel_l,
    map_with_jacobian,
    random_coeffs,
    region_of,
    sample_region,
    sphere_area,
    sphere_point,
    stereographic,
)
from logsphere.harmonics import HarmonicCoeffs, analyze, as_evaluable, evaluate_at
from oracles import (bubble_to_zeta, in_sigma, inverse, pullback, pullback_to_plane,
                     zeta_to_bubble)


def random_points(rng, n, k):
    return sphere_point(rng.standard_normal((k, n + 1)))


def example_maps(n):
    # base points sit near the north pole so the lifted inversions stay mild
    xi0 = sphere_point([0.35, 0.9] if n == 1 else [0.5, -0.2, 0.9])
    zeta = np.array([0.25, -0.15, 0.3][: n + 1])
    return [
        LiftedInversion(0.8, xi0),
        LiftedReflection(0.4, np.array([0.6, 0.8][:n] if n == 2 else [1.0])),
        Moebius(zeta),
    ]


def test_stereographic_special_points():
    np.testing.assert_allclose(stereographic(np.zeros((1, 2))), [[0.0, 0.0, 1.0]], atol=1e-15)
    np.testing.assert_allclose(stereographic(np.array([[1.0]])), [[1.0, 0.0]], atol=1e-15)
    np.testing.assert_allclose(
        inverse_stereographic(np.array([[0.0, 0.0, 1.0]])), [[0.0, 0.0]], atol=1e-15
    )
    np.testing.assert_allclose(
        inverse_stereographic(np.array([[1.0, 0.0, 0.0]])), [[1.0, 0.0]], atol=1e-15
    )


def test_stereographic_roundtrip(rng):
    for n in (1, 2):
        x = 3.0 * rng.standard_normal((40, n))
        np.testing.assert_allclose(inverse_stereographic(stereographic(x)), x, atol=1e-12)


def test_south_pole_rejected():
    south = np.array([[0.0, 0.0, -1.0]])
    with pytest.raises(PoleError):
        inverse_stereographic(south)
    with pytest.raises(PoleError):
        inverse_stereographic(np.array([[1e-8, 0.0, -1.0 + 1e-15]]))


def test_reflection_fixes_its_plane():
    psi = LiftedReflection(0.0, np.array([0.0, 1.0]))
    fixed = stereographic(np.array([[0.7, 0.0]]))  # x.e = 0
    np.testing.assert_allclose(apply_map(psi, fixed), fixed, atol=1e-12)


def test_inversion_fixes_its_sphere():
    xi0 = sphere_point([0.3, 0.1, 0.95])
    lam = 0.85
    phi = LiftedInversion(lam, xi0)
    x0 = inverse_stereographic(xi0[None])
    on_sphere = stereographic(x0 + lam * np.array([1.0, 0.0]))
    np.testing.assert_allclose(apply_map(phi, on_sphere), on_sphere, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2])
def test_involution(rng, n):
    pts = random_points(rng, n, 100)
    for phi in example_maps(n)[:2]:  # inversion and reflection variants
        assert np.abs(apply_map(phi, apply_map(phi, pts)) - pts).max() < 1e-10
    moeb = example_maps(n)[2]
    back = apply_map(inverse(moeb), apply_map(moeb, pts))
    assert np.abs(back - pts).max() < 1e-10


def test_pole_inputs_rejected():
    phi = LiftedInversion(0.8, sphere_point([0.5, -0.2, 0.9]))
    with pytest.raises(PoleError):
        apply_map(phi, np.array([[0.0, 0.0, -1.0]]))
    with pytest.raises(PoleError):
        apply_map(phi, phi.xi0[None])
    with pytest.raises(PoleError):
        jacobian(phi, np.array([[0.0, 0.0, -1.0]]))


@pytest.mark.parametrize("make", [
    lambda: LiftedInversion(math.inf, sphere_point([0.0, 0.0, 1.0])),
    lambda: LiftedInversion(math.nan, sphere_point([0.0, 0.0, 1.0])),
    lambda: LiftedInversion(1.0, np.array([0.0, math.nan, 1.0])),
    lambda: LiftedReflection(math.inf, np.array([1.0, 0.0])),
    lambda: LiftedReflection(0.5, np.array([math.inf, 0.0])),
    lambda: Moebius(np.array([0.0, math.nan, 0.1])),
    lambda: region_of(LiftedInversion(1e200, sphere_point([0.0, 0.0, 1.0]))),
    lambda: region_of(LiftedReflection(1e200, np.array([1.0, 0.0]))),
], ids=["lam-inf", "lam-nan", "xi0-nan", "alpha-inf", "e-inf", "zeta-nan",
        "region-radius-overflow", "region-offset-overflow"])
def test_non_finite_geometry_rejected(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("n", [1, 2])
def test_conformal_distance_identity(rng, n):
    pts = random_points(rng, n, 200)
    a, b = pts[:100], pts[100:]
    for phi in example_maps(n):
        ja, jb = jacobian(phi, a), jacobian(phi, b)
        lhs = ja ** (1.0 / n) * np.sum((a - b) ** 2, axis=1) * jb ** (1.0 / n)
        rhs = np.sum((apply_map(phi, a) - apply_map(phi, b)) ** 2, axis=1)
        assert np.abs(lhs / rhs - 1.0).max() < 1e-9


def test_moebius_jacobian_closed_form(rng):
    zeta = np.array([0.3, -0.2, 0.4])
    phi = Moebius(zeta)
    pts = random_points(rng, 2, 50)
    expected = (math.sqrt(1.0 - np.dot(zeta, zeta)) / (1.0 - pts @ zeta)) ** 2
    np.testing.assert_allclose(jacobian(phi, pts), expected, rtol=1e-12)
    ident = Moebius(np.zeros(3))
    np.testing.assert_allclose(jacobian(ident, pts), 1.0, atol=1e-14)
    np.testing.assert_allclose(apply_map(ident, pts), pts, atol=1e-14)


def test_jacobian_chain_inverse(rng):
    pts = random_points(rng, 2, 30)
    for phi in example_maps(2):
        mapped = apply_map(phi, pts)
        assert np.abs(jacobian(phi, pts) * jacobian(inverse(phi), mapped) - 1.0).max() < 1e-10


def test_pullback_identity_and_jacobian_root(grids, rng):
    u = as_evaluable(random_coeffs(2, 6, rng))
    pts = random_points(rng, 2, 40)
    np.testing.assert_allclose(
        pullback(u, Moebius(np.zeros(3)))(pts), u(pts), atol=1e-12
    )
    phi = Moebius(np.array([0.2, 0.1, -0.3]))
    one = lambda q: np.ones(len(q))
    np.testing.assert_allclose(
        pullback(one, phi)(pts), np.sqrt(jacobian(phi, pts)), atol=1e-13
    )


@pytest.mark.parametrize("n", [1, 2])
def test_pullback_preserves_l2_norm(grids, rng, n):
    # u_phi is analytic but concentrated, so the quadrature needs headroom
    g = grids(n, 64 if n == 1 else 32)
    c = random_coeffs(n, 8, rng)
    u = as_evaluable(c)
    for phi in example_maps(n):
        vals = pullback(u, phi)(g.nodes)
        norm_sq = integrate(g, GridFunction(g, vals * vals))
        assert abs(norm_sq - c.norm_sq()) < 1e-6 * c.norm_sq()


def test_pullback_composes(rng):
    u = as_evaluable(random_coeffs(2, 5, rng))
    m1 = Moebius(np.array([0.2, 0.0, 0.1]))
    m2 = Moebius(np.array([-0.1, 0.3, 0.0]))
    pts = random_points(rng, 2, 60)
    lhs = pullback(pullback(u, m1), m2)(pts)
    comp_jac = jacobian(m2, pts) * jacobian(m1, apply_map(m2, pts))
    rhs = np.sqrt(comp_jac) * u(apply_map(m1, apply_map(m2, pts)))
    assert np.abs(lhs - rhs).max() < 1e-9


def test_extremizer_values_and_errors(grids):
    n = 2
    zeta = np.array([0.0, 0.0, 0.6])
    u = extremizer(ExtremizerParams(zeta, 2.0))
    np.testing.assert_allclose(u(np.array([[0.0, 0.0, 1.0]])),
                               [2.0 * ((1.0 + 0.6) / (1.0 - 0.6)) ** (n / 4.0)], rtol=1e-12)
    const = extremizer(ExtremizerParams(np.zeros(3), 3.0))
    np.testing.assert_allclose(const(np.array([[1.0, 0.0, 0.0]])), [3.0], rtol=1e-12)
    g = grids(2, 32)
    vals = extremizer(ExtremizerParams(zeta, 1.0))(g.nodes)
    assert integrate(g, GridFunction(g, vals * vals)) == pytest.approx(
        sphere_area(2), rel=1e-6
    )
    with pytest.raises(ValueError):
        ExtremizerParams(np.array([1.0, 0.0, 0.0]), 1.0)
    with pytest.raises(ValueError):
        ExtremizerParams(np.zeros(3), -1.0)


def test_extremizer_is_conformal_orbit_of_constant(rng):
    zeta = np.array([0.25, 0.1, -0.35])
    u = extremizer(ExtremizerParams(zeta, 1.0))
    one = lambda q: np.ones(len(q))
    pts = random_points(rng, 2, 80)
    assert np.abs(u(pts) - pullback(one, Moebius(zeta))(pts)).max() < 1e-10


def test_pullback_to_plane_standard_bubble(rng):
    one = lambda q: np.ones(len(q))
    v = pullback_to_plane(one, 2)
    x = rng.standard_normal((30, 2))
    expected = (2.0 / (1.0 + np.sum(x * x, axis=1))) ** 1.0
    np.testing.assert_allclose(v(x), expected, rtol=1e-12)


def test_pullback_to_plane_of_family_is_bubble(rng):
    # planar form must match c (2b/(b^2+|x-a|^2))^{n/2}; fit (a, b, c) by
    # Gauss-Newton from a perturbed start and check residual and parameters
    n = 2
    zeta = np.array([0.3, -0.1, 0.2])
    v = pullback_to_plane(extremizer(ExtremizerParams(zeta, 1.0)), n)
    a_true, b_true = zeta_to_bubble(zeta)
    x = 2.0 * rng.standard_normal((200, n))
    target = v(x)

    def model(p):
        a, b, c = p[:n], p[n], p[n + 1]
        return c * (2.0 * b / (b * b + np.sum((x - a) ** 2, axis=1))) ** (n / 2.0)

    p = np.concatenate([a_true + 0.1, [b_true * 1.3], [0.7]])
    for _ in range(80):
        r = model(p) - target
        J = np.empty((x.shape[0], p.size))
        for k in range(p.size):
            e = np.zeros_like(p)
            e[k] = 1e-7
            J[:, k] = (model(p + e) - model(p - e)) / 2e-7
        step = np.linalg.lstsq(J, -r, rcond=None)[0]
        p = p + step
        if np.linalg.norm(step) < 1e-14:
            break
    residual = np.linalg.norm(model(p) - target) / np.linalg.norm(target)
    assert residual < 1e-8
    np.testing.assert_allclose(p[:n], a_true, atol=1e-8)
    assert p[n] == pytest.approx(b_true, abs=1e-8)
    assert p[n + 1] == pytest.approx(1.0, abs=1e-8)
    # and the zeta <-> (a, b) bijection inverts
    np.testing.assert_allclose(bubble_to_zeta(a_true, b_true), zeta, atol=1e-13)


def test_planar_norm_equals_spherical_norm(grids, rng):
    # independent planar quadrature: polar coordinates, r = s/(1-s) on GL nodes
    n = 2
    c = random_coeffs(n, 6, rng)
    u = as_evaluable(c)
    v = pullback_to_plane(u, n)
    s_nodes, s_weights = np.polynomial.legendre.leggauss(220)
    s_nodes = 0.5 * (s_nodes + 1.0)
    s_weights = 0.5 * s_weights
    r = s_nodes / (1.0 - s_nodes)
    dr = 1.0 / (1.0 - s_nodes) ** 2
    m = 160
    angles = 2.0 * math.pi * np.arange(m) / m
    total = 0.0
    for ang in angles:
        pts = np.column_stack([r * math.cos(ang), r * math.sin(ang)])
        total += np.sum(s_weights * dr * r * v(pts) ** 2) * (2.0 * math.pi / m)
    assert abs(total - c.norm_sq()) < 1e-6 * c.norm_sq()


@pytest.mark.parametrize("n", [1, 2])
def test_kernel_positive_in_region(rng, n):
    for phi in example_maps(n)[:2]:
        region = region_of(phi)
        a = sample_region(region, 4000, rng)
        b = sample_region(region, 4000, rng)
        keep = np.sum((a - b) ** 2, axis=1) > 1e-10
        vals = kernel_l(phi, a[keep], b[keep])
        assert np.all(vals > 0.0)


def test_kernel_symmetry_and_errors(rng):
    phi = example_maps(2)[0]
    region = region_of(phi)
    a = sample_region(region, 300, rng)
    b = sample_region(region, 300, rng)
    keep = np.sum((a - b) ** 2, axis=1) > 1e-4
    sym = kernel_l(phi, a[keep], b[keep]) - kernel_l(phi, b[keep], a[keep])
    assert np.abs(sym).max() < 1e-10
    with pytest.raises(ValueError):
        kernel_l(phi, a[0], a[0])


def test_in_sigma_geometry(rng):
    xi0 = sphere_point([0.4, 0.2, 0.8])
    phi = LiftedInversion(0.7, xi0)
    region = region_of(phi)
    assert in_sigma(phi, xi0[None]).all()
    x0 = inverse_stereographic(xi0[None])
    boundary = stereographic(x0 + 0.7 * np.array([0.0, 1.0]))
    assert not in_sigma(phi, boundary).any()  # strict inequality
    inside = sample_region(region, 400, rng)
    assert np.all(in_sigma(phi, inside))
    mapped = apply_map(phi, inside)
    assert not np.any(in_sigma(phi, mapped))
    with pytest.raises(PoleError):
        in_sigma(phi, np.array([[0.0, 0.0, -1.0]]))


def test_reflection_region_is_halfspace_image(rng):
    psi = LiftedReflection(0.3, np.array([0.0, 1.0]))
    region = region_of(psi)
    pts = sample_region(region, 300, rng)
    x = inverse_stereographic(pts)
    assert np.all(x @ psi.e > psi.alpha)


def test_antisymmetry_defect_cases(grids, rng):
    g = grids(2, 16)
    phi = LiftedInversion(0.9, sphere_point([0.3, 0.0, 0.9]))
    region = region_of(phi)
    pts = sample_region(region, 500, rng)
    u = as_evaluable(random_coeffs(2, 6, rng))
    w = lambda q: pullback(u, phi)(q) - u(q)
    assert antisymmetry_defect(w, phi, pts) < 1e-8
    one = lambda q: np.ones(len(q))
    expected = float((1.0 + np.sqrt(jacobian(phi, pts))).max())
    assert antisymmetry_defect(one, phi, pts) == pytest.approx(expected, rel=1e-12)
    zero = lambda q: np.zeros(len(q))
    assert antisymmetry_defect(zero, phi, pts) == 0.0
    # a grid function is evaluated off the grid through its expansion
    f = GridFunction(g, np.ones(g.node_count))
    assert antisymmetry_defect(as_evaluable(analyze(f, g.degree)), phi, pts) > 1.0


def test_map_constructor_validation():
    with pytest.raises(ValueError):
        LiftedInversion(-1.0, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        LiftedInversion(1.0, np.array([0.0, 0.0, -1.0]))  # south pole base
    with pytest.raises(ValueError):
        LiftedReflection(0.0, np.zeros(2))
    with pytest.raises(ValueError):
        Moebius(np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("make", [
    lambda: LiftedInversion(1.0, sphere_point([0.3, 0.0, 0.9])).at_scale(-1.0),
    lambda: LiftedInversion(1.0, sphere_point([0.3, 0.0, 0.9])).at_scale(0.0),
    lambda: LiftedInversion(1.0, sphere_point([0.3, 0.0, 0.9])).at_scale(math.inf),
    lambda: LiftedInversion(1.0, sphere_point([0.3, 0.0, 0.9])).at_scale(math.nan),
    lambda: LiftedReflection(0.0, np.array([0.6, 0.8])).at_scale(math.inf),
    lambda: LiftedReflection(0.0, np.array([0.6, 0.8])).at_scale(math.nan),
], ids=["lam-negative", "lam-zero", "lam-inf", "lam-nan", "alpha-inf", "alpha-nan"])
def test_at_scale_validates_the_scale(make):
    with pytest.raises(ValueError):
        make()


def test_at_scale_shares_the_centre_and_keeps_the_original():
    phi = LiftedInversion(0.8, np.array([0.6, -0.4, 1.8]))
    other = phi.at_scale(1.7)
    assert (phi.lam, other.lam) == (0.8, 1.7)
    assert other.xi0 is phi.xi0 and other.x0 is phi.x0
    psi = LiftedReflection(0.5, np.array([3.0, 4.0]))
    assert psi.at_scale(-1.0).e is psi.e and psi.alpha == 0.5


# ---------------------------------------------------------------------------
# oracle: the row-wise lifted map the column-wise planar step replaced

def _row_sq(a):
    return np.einsum("ij,ij->i", a, a)


def _rowwise_lift(pts):
    last, head = pts[:, -1], pts[:, :-1]
    far = 1.0 + np.abs(last)
    denom = np.where(last < 0.0, _row_sq(head) / far, far)
    return head / denom[:, None], denom


def rowwise_map_with_jacobian(phi, pts):
    """Planar step on rows, then the inverse stereographic projection and
    sphere_point(), and the chain-rule Jacobian
    (2/(1+|y|^2))^n * J_plane * (1 + xi_{n+1})^(-n)."""
    n = phi.n
    x, denom = _rowwise_lift(pts)
    if isinstance(phi, LiftedInversion):
        x0 = _rowwise_lift(phi.xi0[None, :])[0][0]
        d2 = _row_sq(x - x0)
        y = phi.lam**2 * (x - x0) / d2[:, None] + x0
        jac_plane = (phi.lam**2 / d2) ** n
    else:
        y = x + 2.0 * (phi.alpha - x @ phi.e)[:, None] * phi.e
        jac_plane = 1.0
    s2 = _row_sq(y)[:, None]
    image = sphere_point(np.hstack([2.0 * y / (1.0 + s2), (1.0 - s2) / (1.0 + s2)]))
    jac = (2.0 / (1.0 + s2[:, 0])) ** n * jac_plane * denom ** (-float(n))
    return image, jac


def _unit_vectors(dim):
    return (st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)
            .filter(lambda v: np.linalg.norm(v) > 0.1).map(sphere_point))


@st.composite
def lifted_maps(draw, n):
    if draw(st.booleans()):
        xi0 = draw(_unit_vectors(n + 1))
        if 1.0 + xi0[-1] < 0.2:
            xi0 = -xi0
        return LiftedInversion(draw(st.floats(0.05, 5.0)), xi0)
    return LiftedReflection(draw(st.floats(-2.0, 2.0)), draw(_unit_vectors(n)))


def _near(center, seed, count, distance):
    """Unit points at about `distance` (between 1 and 2 times it) from a unit
    vector."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, center.size))
    v -= np.outer(v @ center, center)
    v *= distance * rng.uniform(1.0, 2.0, (count, 1)) / np.linalg.norm(v, axis=1, keepdims=True)
    return sphere_point(center + v)


@given(n=st.sampled_from([1, 2]), data=st.data(), seed=st.integers(0, 2**32 - 1),
       log_scale=st.floats(-6.0, -1.0))
def test_lifted_maps_match_the_rowwise_oracle(n, data, seed, log_scale):
    phi = data.draw(lifted_maps(n))
    south = np.zeros(n + 1)
    south[-1] = -1.0
    groups = [sphere_point(np.random.default_rng(seed).standard_normal((32, n + 1))),
              _near(south, seed, 16, 10.0**log_scale)]
    if isinstance(phi, LiftedInversion):
        groups.append(_near(phi.xi0, seed, 16, 10.0 ** (2.0 * log_scale)))
    pts = np.vstack(groups)
    want_image, want_jac = rowwise_map_with_jacobian(phi, pts)
    image, jac = map_with_jacobian(phi, pts)
    eps = np.finfo(float).eps
    assert np.abs(image - want_image).max() <= 2.0 * eps
    assert np.abs(jac / want_jac - 1.0).max() <= 8.0 * eps


@pytest.mark.parametrize("n", [1, 2])
def test_map_entry_points_agree_bit_for_bit(rng, n):
    pts = random_points(rng, n, 64)
    for phi in example_maps(n):
        image, jac = map_with_jacobian(phi, pts)
        np.testing.assert_array_equal(apply_map(phi, pts), image)
        np.testing.assert_array_equal(jacobian(phi, pts), jac)


ROW_MAP = LiftedInversion(0.8, sphere_point([0.5, -0.2, 0.9]))


# Each entry point takes points as the rows of a 2-d array; planar points
# are the first two coordinates of the same point.
@pytest.mark.parametrize("call", [
    lambda p: stereographic(p[..., :2]),
    lambda p: inverse_stereographic(p),
    lambda p: map_with_jacobian(ROW_MAP, p),
    lambda p: apply_map(ROW_MAP, p),
    lambda p: jacobian(ROW_MAP, p),
    lambda p: extremizer(ExtremizerParams(np.array([0.1, 0.0, 0.2])))(p),
    lambda p: kernel_l(ROW_MAP, p, -p),
    lambda p: antisymmetry_defect(lambda q: np.zeros(len(q)), ROW_MAP, p),
    lambda p: evaluate_at(HarmonicCoeffs.constant(2, 4, 1.0), p),
], ids=["stereographic", "inverse_stereographic", "map_with_jacobian", "apply_map",
        "jacobian", "extremizer", "kernel_l", "antisymmetry_defect", "evaluate_at"])
def test_a_single_point_is_refused(call):
    point = sphere_point([0.0, 0.6, 0.8])
    call(point[None])  # one row is fine
    with pytest.raises(ValueError, match=r"got shape \(\d,\)") as info:
        call(point)
    assert not isinstance(info.value, PoleError)
    assert "\n" not in str(info.value)
