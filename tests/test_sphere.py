import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from logsphere import (
    GridFunction,
    build_grid,
    chordal_distance,
    integrate,
    sphere_area,
    sphere_point,
    zonal_basis,
)
from logsphere.energy import min_internode_distance
from logsphere.sphere import apply_radial_kernel


def test_sphere_area_values():
    assert sphere_area(1) == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert sphere_area(2) == pytest.approx(4.0 * math.pi, rel=1e-14)
    assert sphere_area(3) == pytest.approx(2.0 * math.pi**2, rel=1e-14)


def test_sphere_area_rejects_zero_dimension():
    with pytest.raises(ValueError):
        sphere_area(0)


def test_build_grid_circle_rule():
    g = build_grid(1, 3)
    assert g.node_count == 8
    np.testing.assert_allclose(g.weights, 2.0 * math.pi / 8.0)
    np.testing.assert_allclose(np.linalg.norm(g.nodes, axis=1), 1.0, atol=1e-14)


@pytest.mark.parametrize("n,degree", [(1, 3), (1, 16), (2, 8), (2, 24)])
def test_weights_partition_area(n, degree):
    g = build_grid(n, degree)
    assert np.all(g.weights > 0.0)
    assert np.sum(g.weights) == pytest.approx(sphere_area(n), rel=1e-10)


@pytest.mark.parametrize("n,L", [(1, 8), (2, 8)])
def test_gram_matrix_identity(grids, n, L):
    g = grids(n, L)
    if n == 1:
        idx = [(0, 0)] + [(l, m) for l in range(1, L + 1) for m in (1, -1)]
    else:
        idx = [(l, m) for l in range(L + 1) for m in range(-l, l + 1)]
    Y = np.column_stack([zonal_basis(n, l, m, g.nodes) for (l, m) in idx])
    gram = Y.T @ (g.weights[:, None] * Y)
    assert np.abs(gram - np.eye(len(idx))).max() < 1e-10


def test_integrate_examples(grids):
    g = grids(2, 8)
    assert integrate(g, GridFunction(g, np.ones(g.node_count))) == pytest.approx(
        4.0 * math.pi, rel=1e-10
    )
    y10 = zonal_basis(2, 1, 0, g.nodes)
    assert integrate(g, GridFunction(g, y10 * y10)) == pytest.approx(1.0, abs=1e-10)
    assert integrate(g, GridFunction(g, y10)) == pytest.approx(0.0, abs=1e-12)


def test_integrate_grid_mismatch(grids):
    g1, g2 = grids(2, 8), grids(2, 4)
    f = GridFunction(g2, np.ones(g2.node_count))
    with pytest.raises(ValueError):
        integrate(g1, f)


def test_grid_function_length_check(grids):
    with pytest.raises(ValueError):
        GridFunction(grids(2, 8), np.ones(3))


def test_unsupported_grids():
    with pytest.raises(ValueError):
        build_grid(3, 4)
    with pytest.raises(ValueError):
        build_grid(2, 0)


def test_sphere_point_normalizes():
    p = sphere_point([3.0, 4.0])
    assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        sphere_point([0.0, 0.0])


def test_chordal_distance_cases():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    assert chordal_distance(e1, e1) == 0.0
    assert chordal_distance(e1, -e1) == pytest.approx(2.0)
    assert chordal_distance(e1, e2) == pytest.approx(math.sqrt(2.0))
    with pytest.raises(ValueError):
        chordal_distance(e1, np.array([1.0, 0.0]))


def test_chordal_distance_metric_properties(rng):
    pts = sphere_point(rng.standard_normal((60, 3)))
    a, b, c = pts[:20], pts[20:40], pts[40:]
    dab = chordal_distance(a, b)
    assert np.allclose(dab, chordal_distance(b, a))
    assert np.all(dab <= chordal_distance(a, c) + chordal_distance(c, b) + 1e-14)
    assert np.all(dab >= 0.0)
    assert np.all(dab <= 2.0 + 1e-14)


def dense_radial_kernel(grid, kernel, eps, X):
    """Reference K @ X with the N x N kernel matrix written out."""
    d2 = np.sum((grid.nodes[:, None, :] - grid.nodes[None, :, :]) ** 2, axis=2)
    keep = d2 >= eps * eps
    np.fill_diagonal(keep, False)
    K = np.zeros_like(d2)
    K[keep] = kernel(d2[keep])
    return K @ X, np.sqrt(d2[~np.eye(grid.node_count, dtype=bool)])


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 2]), degree=st.integers(1, 12),
       eps_spacings=st.floats(0.0, 6.0), s_frac=st.floats(0.0, 0.95))
@example(n=2, degree=12, eps_spacings=0.5, s_frac=0.0)  # below every ring spacing
@example(n=1, degree=12, eps_spacings=0.5, s_frac=0.5)
@example(n=2, degree=8, eps_spacings=2.0, s_frac=0.0)
def test_apply_radial_kernel_matches_dense(n, degree, eps_spacings, s_frac):
    # exponent n/2 (the log operator) when s = 0, else (n - 2s)/2
    grid = build_grid(n, degree)
    eps = eps_spacings * min_internode_distance(grid)
    exponent = 0.5 * n * (1.0 - s_frac)
    kernel = lambda d2: d2 ** -exponent
    X = np.random.default_rng(degree).standard_normal((grid.node_count, 2))
    want, dists = dense_radial_kernel(grid, kernel, eps, X)
    # a cutoff on a node distance is decided by rounding; skip those ties
    assume(np.abs(dists - eps).min() > 1e-9)
    scale = np.abs(want).max()
    got = apply_radial_kernel(grid, kernel, eps, X)
    assert np.abs(got - want).max() <= 1e-12 * scale
    column = apply_radial_kernel(grid, kernel, eps, X[:, 0])
    assert column.shape == (grid.node_count,)
    assert np.abs(column - want[:, 0]).max() <= 1e-12 * scale


def test_apply_radial_kernel_rejects_bad_shapes():
    g = build_grid(2, 4)
    with pytest.raises(ValueError):
        apply_radial_kernel(g, lambda d2: 1.0 / d2, 0.1, np.ones(g.node_count + 1))
