import math
import tracemalloc

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
from logsphere.energy import default_energy_eps, energy_direct_extrapolated
from logsphere.sphere import (
    apply_radial_kernel,
    min_internode_distance,
    radial_kernel_bytes,
)


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


@pytest.mark.parametrize("n, degree", [(1, 1), (1, 7), (1, 64), (1, 2000),
                                       (2, 1), (2, 8), (2, 24), (2, 48)])
def test_grid_is_rings_times_azimuths(n, degree):
    g = build_grid(n, degree)
    nphi = g.az_phi.size
    s = np.sqrt(1.0 - g.polar_t ** 2)
    rings = [np.column_stack([si * np.cos(g.az_phi), si * np.sin(g.az_phi),
                              np.full(nphi, ti)])[:, :n + 1]
             for ti, si in zip(g.polar_t, s)]
    assert np.array_equal(g.nodes, np.concatenate(rings))
    azimuth_w = np.full(nphi, 2.0 * math.pi / nphi)
    assert np.array_equal(g.weights, np.outer(g.polar_w, azimuth_w).ravel())
    if n == 1:
        assert g.polar_t.tolist() == [0.0] and g.polar_w.tolist() == [1.0]
        N = g.node_count
        assert min_internode_distance(g) == 2.0 * math.sin(math.pi / N)
        assert default_energy_eps(g) == 1.25 * 2.0 * min_internode_distance(g)


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


@settings(max_examples=60)
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
    X = np.random.default_rng(degree).standard_normal((grid.node_count, 2))
    want, dists = dense_radial_kernel(grid, lambda d2: d2 ** -exponent, eps, X)
    # a cutoff on a node distance is decided by rounding; skip those ties
    assume(np.abs(dists - eps).min() > 1e-9)
    scale = np.abs(want).max()
    got = apply_radial_kernel(grid, exponent, eps, X)
    assert np.abs(got - want).max() <= 1e-12 * scale
    column = apply_radial_kernel(grid, exponent, eps, X[:, 0])
    assert column.shape == (grid.node_count,)
    assert np.abs(column - want[:, 0]).max() <= 1e-12 * scale


def test_apply_radial_kernel_rejects_bad_shapes():
    g = build_grid(2, 4)
    with pytest.raises(ValueError):
        apply_radial_kernel(g, 1.0, 0.1, np.ones(g.node_count + 1))


def traced_peak(run) -> int:
    """Peak bytes that tracemalloc sees while `run()` executes, above what
    was live before it.  A first, untraced run keeps numpy's first-use
    imports out of the count."""
    run()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("degree", [48, 100])
def test_apply_radial_kernel_peaks_at_two_tables(degree):
    # the squared chords turn into kernel values in their own buffer, so
    # only the table and its cosine transform are ever alive together
    grid = build_grid(2, degree)
    X = np.column_stack([grid.weights, grid.weights])
    eps = 2.0 * min_internode_distance(grid)
    table_bytes = 8 * (degree + 1) ** 2 * (degree + 1)  # nt^2 (nphi/2 + 1)
    peak = traced_peak(lambda: apply_radial_kernel(grid, 1.0, eps, X))
    assert peak <= 2.25 * table_bytes


@pytest.mark.parametrize("n, degree", [(2, 48), (2, 100), (1, 2000)])
def test_radial_kernel_bytes_bounds_the_cross_check_peak(n, degree):
    # S^2 at verify's default degree and above it, and a circle grid where the
    # cosine matrix, not the kernel table, dominates
    def run():
        grid = build_grid(n, degree)
        f = grid.sample(lambda x: 1.0 + x[:, 0] + x[:, -1] ** 2)
        energy_direct_extrapolated(f, f)

    peak = traced_peak(run)
    # a bound, and not so loose that the budget refuses degrees that fit
    assert peak <= radial_kernel_bytes(n, degree) <= 1.5 * peak
