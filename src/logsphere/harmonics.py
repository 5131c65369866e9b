"""Band-limited analysis/synthesis on S^n and the spectral multipliers.

A band-limited expansion sum_{l<=L} u_{l,m} Y_{l,m} stands in for the finite
energy space.  This module alone decides where (l, m) lives in the flat
coefficient vector: in degree-major order, as `harmonic_indices` lists it,
so a lower band is a prefix.  Other modules go through `HarmonicCoeffs`
(`constant`, `with_band_limit`, the JSON form, which is the dense vector in
slot order) and the per-slot multiplier arrays of `h_multiplier_table`
and `apply_multiplier`; no code here looks up one label's slot.

The circle is the equator t = cos(theta) = 0 of S^2, with a one-ring
product grid, so both spheres run one transform and one off-grid evaluation,
which tell them apart in one place, the polar rule `_polar_rows` with its
`_batch_width`: the Legendre table on S^2 and one row 1/sqrt(2 pi) per order
on the circle.  Its rows are in rectangular packed order: with P = L | 1,
the least odd number >= L, orders m and P - m share one batch of rows
(2L + 2 - P on S^2, 2 on the circle), so for even L order 0 pairs with the
empty order L + 1, and every batch has the same width.  `_slot_maps(n, L)`,
built once per band limit, holds the rows' labels and where each
coefficient's polar product lies.  On a product grid a transform is one
azimuth product, one batched polar product and one gather or scatter.  Off
the grid, the polar table is re-expanded once per band limit in Chebyshev
polynomials of t, row by row, so the coefficients' Chebyshev sums are the
scatter and batched product of a synthesis, with the Chebyshev index where
the rings were.  A chunk of points then takes whole-array steps: the powers
of e^{i theta} feed one matrix product per parity of the order, and those of
e^{i phi} the azimuth sum.  The same polar step serves a product grid's
rings, whose values then need one matrix product with the powers of
e^{i phi} at its azimuths: node values with no transform table.

Multipliers: the fractional integral family acts on degree-l harmonics as
Gamma(l+n/2-s)/Gamma(l+n/2+s), its inverse as the reciprocal, and the
logarithmic operator as

    h_l = (2 pi^{n/2} / Gamma(n/2)) * (psi(l+n/2) - psi(n/2)),

the s-derivative of the fractional family at s = 0.  The principal-value
integral definition of the logarithmic operator is also available as a
quadrature oracle with symmetric chordal exclusion and Richardson
extrapolation, built on the azimuthal-FFT kernel product
`sphere.apply_radial_kernel`; the spectral route is the primary path.
"""

from __future__ import annotations

import functools
import math
import sys
import weakref
from dataclasses import dataclass

import numpy as np

from .specfun import assoc_legendre_norm, digamma, ln_gamma
from .sphere import GridFunction, QuadratureGrid, grid_shape, sphere_area, weighted_kernel_products

def harmonic_count(n: int, L: int) -> int:
    if n == 1:
        return 2 * L + 1
    if n == 2:
        return (L + 1) * (L + 1)
    raise ValueError(f"harmonic transforms support n in {{1, 2}}, got n={n}")


def harmonic_indices(n: int, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Degree l and label m of each flat slot, in slot order: two int arrays."""
    if n == 1:
        slot = np.arange(2 * L + 1)
        return (slot + 1) // 2, np.sign(slot) * (-1) ** (slot + 1)
    l = np.repeat(np.arange(L + 1), 2 * np.arange(L + 1) + 1)
    return l, np.arange(l.size) - l * (l + 1)


@functools.lru_cache(maxsize=16)
def degree_of_index(n: int, L: int) -> np.ndarray:
    """Degree l of each flat coefficient slot, built once, read-only."""
    degree = harmonic_indices(n, L)[0]
    degree.flags.writeable = False
    return degree


@dataclass(eq=False)
class HarmonicCoeffs:
    n: int
    L: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        expected = harmonic_count(self.n, self.L)
        if self.coeffs.shape != (expected,):
            raise ValueError(
                f"coefficient vector has shape {self.coeffs.shape}, "
                f"expected ({expected},) for n={self.n}, L={self.L}"
            )

    def norm_sq(self) -> float:
        """Parseval L2 norm squared."""
        return float(np.dot(self.coeffs, self.coeffs))

    def copy_with(self, coeffs: np.ndarray) -> "HarmonicCoeffs":
        return HarmonicCoeffs(self.n, self.L, coeffs)

    def with_band_limit(self, L: int) -> "HarmonicCoeffs":
        """The same expansion at band limit L: degrees above L dropped, new
        degrees zero.  The lower band is a prefix of the slot order."""
        vec = np.zeros(harmonic_count(self.n, L))
        vec[:self.coeffs.size] = self.coeffs[:vec.size]
        return HarmonicCoeffs(self.n, L, vec)

    def to_json_dict(self) -> dict:
        """{"n", "L", "coeffs"}: the dense vector, in slot order."""
        return {"n": self.n, "L": self.L, "coeffs": self.coeffs.tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "HarmonicCoeffs":
        """Inverse of to_json_dict.  An n or L that is not an integer, a
        negative L, a vector of another length than the band's slot count,
        and an entry that is not a finite number are rejected; a bool is not
        a number."""
        n, L = data["n"], data["L"]
        if any(isinstance(v, bool) or not isinstance(v, int) for v in (n, L)):
            raise ValueError(f"n and L must be integers, got n={n!r}, L={L!r}")
        if L < 0:
            raise ValueError(f"band limit must be >= 0, got L={L}")
        values, count = data["coeffs"], harmonic_count(n, L)
        if not isinstance(values, list) or len(values) != count:
            raise ValueError(f"coeffs must be a list of {count} numbers for n={n}, L={L}")
        for k, value in enumerate(values):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"coefficient {k} is not a number: {value!r}")
            # false for NaN and +-inf, and for an integer beyond the float range
            if not abs(value) <= sys.float_info.max:
                raise ValueError(f"non-finite coefficient {value} in slot {k}")
        return cls(n, L, np.array(values, dtype=float))

    @classmethod
    def zeros(cls, n: int, L: int) -> "HarmonicCoeffs":
        return cls(n, L, np.zeros(harmonic_count(n, L)))

    @classmethod
    def constant(cls, n: int, L: int, value: float) -> "HarmonicCoeffs":
        """The constant function `value`: u_{0,0} = value sqrt(|S^n|)."""
        c = cls.zeros(n, L)
        c.coeffs[0] = value * math.sqrt(sphere_area(n))
        return c


# ---------------------------------------------------------------------------
# transform tables, cached per (grid, L)

@dataclass(frozen=True)
class _SlotMaps:
    """Where the rows of the polar table at band limit L meet the flat
    coefficient vector.  The rows are in rectangular packed order: with P =
    L | 1, `packed` lists the orders 0, P, 1, P - 1, ..., L // 2, L // 2 + 1,
    batch b holding orders b and P - b in `width` rows, order b first; for
    even L, order 0 pairs with the empty order L + 1.  Within an order the
    rows run by degree (m..L on S^2, only m on the circle).  Row r is of
    order[r].

    The polar product is one (L // 2 + 1, 4, width) array, whose columns in
    batch b are cos b, sin b, cos (P - b) and sin (P - b); index[s] is the
    place of slot s in it, in C order."""
    packed: np.ndarray
    order: np.ndarray
    index: np.ndarray
    width: int


def _batch_width(n: int, L: int) -> int:
    """Rows of one batch of the polar table: orders m and P - m, P = L | 1,
    have L + 1 - m and m + L + 1 - P rows on S^2, and one row each on the
    circle, where the empty order L + 1 of an even L keeps an unused row."""
    return 2 * L + 2 - (L | 1) if n == 2 else 2


@functools.lru_cache(maxsize=16)
def _slot_maps(n: int, L: int) -> _SlotMaps:
    """The row maps of band limit L on S^n, built once, as read-only arrays."""
    slot_l, slot_m = harmonic_indices(n, L)
    # the circle labels its degree-l pair m = +1 (cosine) and -1 (sine)
    slot_order = np.abs(slot_m) if n == 2 else slot_l
    sine = slot_m < 0
    del slot_m  # each slot array is freed, or updated in place, once it is used
    P, width = L | 1, _batch_width(n, L)
    # the rows of the first order of each batch, and the orders in packed order
    sizes = np.bincount(slot_order[~sine], minlength=L + 1)[:L // 2 + 1]
    packed = np.empty(P + 1, np.intp)
    packed[0::2] = np.arange(L // 2 + 1)
    packed[1::2] = P - packed[0::2]
    order = np.repeat(packed, np.column_stack([sizes, width - sizes]).ravel())
    # in column c of batch b, the product of the row of degree l of order m
    # is at (4 b + c) width + l - m, plus the first order's rows if m > L/2,
    # the second order of its batch, whose columns are c = 2 and 3
    high = 2 * slot_order > L
    batch = np.where(high, P - slot_order, slot_order)
    index = sizes[batch]
    index *= high
    index += slot_l
    index -= slot_order
    del slot_l, slot_order, sizes
    batch *= 4
    batch += 2 * high
    batch += sine
    batch *= width
    index += batch
    maps = _SlotMaps(packed, order, index, width)
    for array in (packed, order, index):
        array.flags.writeable = False
    return maps


# per slot, building `_slot_maps`: about 42 on S^2 and 46 on the circle, whose
# per-order arrays are half as long as its slot arrays
_SLOT_MAP_BYTES = 52


def _polar_rows(n: int, L: int, t: np.ndarray) -> np.ndarray:
    """The polar functions of band limit L at heights t, one row per
    `_slot_maps` row: with `_batch_width`, the one place the transforms and
    the off-grid evaluation branch on n.  The circle, t = 0, has one row
    1/sqrt(2 pi) per order 0..L | 1."""
    if n == 2:
        return assoc_legendre_norm(L, t)
    return np.full(((L | 1) + 1, t.size), 1.0 / math.sqrt(2.0 * math.pi))


_TABLE_CACHE: "weakref.WeakKeyDictionary[QuadratureGrid, dict]" = weakref.WeakKeyDictionary()


def _transform_tables(grid: QuadratureGrid, L: int) -> tuple[np.ndarray, np.ndarray, _SlotMaps]:
    """The transform tables of (grid, L), built once, and `_slot_maps`: the
    azimuth table, (azimuths, 2P + 2), P = L | 1, whose columns are cos and
    sin of m phi for the orders m in packed order, with the sqrt(2) of m > 0
    folded in; and the polar table as one (L // 2 + 1, width, rings) array
    of batches."""
    maps = _slot_maps(grid.n, L)
    per_grid = _TABLE_CACHE.setdefault(grid, {})
    tables = per_grid.get(L)
    if tables is not None:
        return *tables, maps
    # built in place, so the peak is the table: each column first holds its
    # angle, a matmul because a broadcasting multiply would allocate a copy,
    # and a cosine from a sine column would copy the overlapping input
    azimuth = grid.az_phi[:, None] @ np.repeat(maps.packed, 2).astype(float)[None, :]
    np.cos(azimuth[:, 0::2], out=azimuth[:, 0::2])
    np.sin(azimuth[:, 1::2], out=azimuth[:, 1::2])
    azimuth *= math.sqrt(2.0)
    azimuth[:, 0] = 1.0  # order 0 comes first; its sine column is zero
    polar = _polar_rows(grid.n, L, grid.polar_t).reshape(-1, maps.width, grid.polar_t.size)
    tables = per_grid[L] = (azimuth, polar)
    return *tables, maps


def _polar_table_bytes(n: int, L: int, rings: int) -> int:
    """Upper bound on the peak bytes of `_polar_rows` at `rings` heights: the
    polar table, the Legendre recurrence's three working blocks and its
    coefficients (16 floats per row it fills; the circle's one row per order
    needs none) and two ufunc buffers."""
    rows = (L // 2 + 1) * _batch_width(n, L)
    return 8 * ((rows + 3 * (L + 1)) * rings + 16 * (rows - L - 1)
                + 2 * min((L + 1) * rings, np.getbufsize()))


def transform_table_bytes(n: int, L: int, grid_degree: int) -> int:
    """Upper bound on the peak bytes of building `_transform_tables(grid, L)`:
    the polar table at the grid's rings, the azimuth table and the slot maps."""
    rings, azimuths = grid_shape(n, grid_degree)
    return (_polar_table_bytes(n, L, rings) + 16 * ((L | 1) + 1) * azimuths
            + _SLOT_MAP_BYTES * harmonic_count(n, L) + 4096)


def analyze(f: GridFunction, L: int) -> HarmonicCoeffs:
    """Project a grid function onto harmonics up to degree L by quadrature:
    one azimuth product, one batched polar product and one gather."""
    grid = f.grid
    if grid.exact_to < 2 * L:
        raise ValueError(f"grid exact to degree {grid.exact_to} is too coarse for band limit {L}")
    azimuth, polar, maps = _transform_tables(grid, L)
    F = f.values.reshape(grid.polar_t.size, grid.az_phi.size)
    # G[column, ring]: the weighted azimuth projections, one per order and kind
    G = azimuth.T @ F.T
    G *= (2.0 * math.pi / grid.az_phi.size) * grid.polar_w
    batches, _, rings = polar.shape
    products = np.matmul(G.reshape(batches, 4, rings), polar.transpose(0, 2, 1))
    return HarmonicCoeffs(grid.n, L, products.ravel()[maps.index])


def _polar_sums(polar: np.ndarray, maps: _SlotMaps, states: np.ndarray) -> np.ndarray:
    """H[state, ring, column]: the sums over the rows of the polar table
    `polar`, (batches, width, rings), of the coefficient vectors `states`,
    (k, count), one per ring (or Chebyshev index) and azimuth column: one
    scatter and one batched polar product."""
    batches, width, rings = polar.shape
    k = states.shape[0]
    # X[state, product]: in each batch, zero off the rows of its column's order
    X = np.zeros((k, batches * 4 * width))
    X[:, maps.index] = states
    H = np.empty((k, rings, batches, 4))
    np.matmul(polar.transpose(0, 2, 1), X.reshape(k, batches, 4, width).transpose(0, 1, 3, 2),
              out=H.transpose(0, 2, 1, 3))
    return H.reshape(k, rings, -1)


def synthesize_values(L: int, coeffs: np.ndarray, grid: QuadratureGrid) -> np.ndarray:
    """Pointwise sums at the grid nodes of the expansions whose coefficients
    are the last axis of `coeffs`: shape (..., count) gives (..., N), so a
    stack of k states costs one scatter, one batched polar product and one
    azimuth product."""
    C = np.asarray(coeffs, dtype=float)
    count = harmonic_count(grid.n, L)
    if C.shape[-1:] != (count,):
        raise ValueError(f"coefficients have shape {C.shape}, expected (..., "
                         f"{count}) for n={grid.n}, L={L}")
    azimuth, polar, maps = _transform_tables(grid, L)
    H = _polar_sums(polar, maps, C.reshape(-1, count))
    F = H.reshape(-1, azimuth.shape[1]) @ azimuth.T
    return F.reshape(C.shape[:-1] + (-1,))


def synthesize(c: HarmonicCoeffs, grid: QuadratureGrid) -> GridFunction:
    """Pointwise sum of the expansion at the grid nodes."""
    if grid.n != c.n:
        raise ValueError(f"grid dimension {grid.n} does not match coefficients n={c.n}")
    return GridFunction(grid, synthesize_values(c.L, c.coeffs, grid))


@functools.lru_cache(maxsize=8)
def _evaluation_plan(n: int, L: int) -> tuple[np.ndarray, np.ndarray]:
    """The polar table re-expanded in Chebyshev polynomials of t = cos(theta).

    With K the row count of order 0, a row of even order is a polynomial of
    degree below K in t, one of odd order sin(theta) times one of degree
    below K - 1: a sum of sin(j theta) = sin(theta) U_{j-1}(t), j < K.  So K
    Gauss-Chebyshev nodes interpolate every row exactly: K = L + 1 on S^2, and
    1 on the circle, whose rows are needed at the equator only.  Odd rows take
    a DST of their values, not a DCT of the values over sin(theta), which
    would amplify the rounding near the poles.

    Returns the table as one (L // 2 + 1, width, K) array of batches, whose
    column j in a row of even order is its coefficient of T_j(t), in one of
    odd order that of U_j(t) sin(theta), with the sqrt(2) azimuth factor
    folded in for m > 0; and `parity`, the azimuth columns of the orders
    0..L in parity order: the even orders and then the odd ones, each by
    order, cos before sin."""
    maps = _slot_maps(n, L)
    K = np.count_nonzero(maps.order == 0)
    angle = (2 * np.arange(K) + 1) * math.pi / (2 * K)
    j = np.arange(K)[:, None]
    # node values -> coefficients: a DCT-II for T_j, a DST-II for sin((j+1) theta),
    # whose first and last term, respectively, take half the weight
    dct = np.cos(j * angle) * (2.0 / K)
    dct[0] *= 0.5
    dst = np.sin((j + 1) * angle) * (2.0 / K)
    dst[-1] *= 0.5
    # transformed within the table, one parity's rows at a time, so the build
    # holds about two tables
    table = _polar_rows(n, L, np.cos(angle))
    odd = maps.order % 2 == 1
    table[~odd] = table[~odd] @ dct.T
    table[odd] = table[odd] @ dst.T
    table[K:] *= math.sqrt(2.0)  # order 0 comes first
    table.flags.writeable = False
    # order m's columns are 2 p and 2 p + 1, p its place in packed order
    place = np.argsort(maps.packed)
    parity = 2 * np.concatenate([place[0:L + 1:2], place[1:L + 1:2]])[:, None] + np.arange(2)
    return table.reshape(-1, maps.width, K), parity.ravel()


def _powers(base: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[j] = base**j for the rows of a complex (count, k) array: one
    multiply per row, in doubling blocks (rows k + i are rows i times
    base**k), so a table takes O(log count) calls."""
    out[0] = 1.0
    k = 1
    while k < out.shape[0]:
        np.multiply(out[k - 1], base, out=out[k])
        n = min(k, out.shape[0] - k)
        np.multiply(out[1:n], out[k], out=out[k + 1:k + n])
        k += n
    return out


EVALUATION_CELLS = 130 * 1024  # (row, point) cells per workspace half: 1024 points at L = 128


def _chebyshev_rows(c: HarmonicCoeffs) -> np.ndarray:
    """C[column, j]: the Chebyshev coefficients of the (m, cos) and (m, sin)
    rows of the expansion, the even orders first: its sums over the rows of
    the cached Chebyshev plan, as a synthesis sums it over the rings of a
    grid."""
    plan, parity = _evaluation_plan(c.n, c.L)
    return _polar_sums(plan, _slot_maps(c.n, c.L), c.coeffs[None])[0][:, parity].T


def _polar_step(C: np.ndarray, t: np.ndarray, rho: np.ndarray, work: np.ndarray) -> np.ndarray:
    """V[column, point]: the (m, cos) and (m, sin) rows of the expansion whose
    Chebyshev rows are C, in C's order, at heights t = cos(theta) with rho =
    sin(theta) >= 0.  The powers of e^{i theta} = t + i rho, with real parts
    T_j(t) and imaginary parts sin((j+1) theta) = sin(theta) U_j(t), feed one
    matrix product per parity of m.  `work` is a (2, M + 1, points) complex
    workspace, M = C.shape[0] // 2: its second half holds the powers and then
    V, its first the real table."""
    M, K = C.shape[0] // 2, C.shape[1]
    first, second = work
    npts = t.size
    # the powers, copied to real rows table[j] = (cos, sin)(j theta)
    polar = _powers(t + 1j * rho, second[:K + 1])
    table = first[:K + 1].view(float).reshape(K + 1, 2, npts)
    table[...] = polar.view(float).reshape(K + 1, npts, 2).transpose(0, 2, 1)
    V = second.view(float).reshape(-1, npts)[:2 * M]
    evens = M + M % 2
    np.matmul(C[:evens], table[:K, 0], out=V[:evens])
    np.matmul(C[evens:], table[1:, 1], out=V[evens:])
    return V


def evaluate_at(c: HarmonicCoeffs, points: np.ndarray,
                rows: np.ndarray | None = None) -> np.ndarray:
    """Values of the expansion at the rows of `points` on S^n (for pullbacks).

    `rows` are the state's Chebyshev rows (`_chebyshev_rows(c)`), derived
    here when none are passed; `as_evaluable` derives them once per state.
    Per chunk of points `_polar_step` takes the rows to the points' heights,
    and the azimuth sum is one contraction with the powers of e^{i phi}.
    Points of the circle are the equator t = 0.  One workspace of 2
    EVALUATION_CELLS complex numbers, whatever L, holds a chunk."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != c.n + 1:
        raise ValueError(f"points of S^{c.n} need {c.n + 1} coordinates in each row "
                         f"of a 2-d array, got shape {pts.shape}")
    C = _chebyshev_rows(c) if rows is None else rows
    M = c.L + 1
    evens = M + M % 2
    out = np.empty(pts.shape[0])
    # One workspace for every chunk, so no megabyte-size temporary is freed
    # and faulted in again on every chunk; its first half ends as the powers
    # of e^{i phi}.
    chunk = max(1, EVALUATION_CELLS // (M + 1))
    work = np.empty((2, (M + 1) * min(chunk, pts.shape[0])), dtype=complex)
    for start in range(0, pts.shape[0], chunk):
        sl = slice(start, start + chunk)
        x, y = pts[sl, 0], pts[sl, 1]
        # the height t = cos(theta), z on S^2 and 0 on the circle, needs no clip:
        t = pts[sl, 2:].sum(axis=1)
        npts = t.size
        chunk_work = work[:, :(M + 1) * npts].reshape(2, M + 1, npts)
        # sin(theta) is |(x, y)|, which unlike sqrt(1 - t^2) keeps its relative
        # precision near the poles
        rho = np.hypot(x, y)
        V = _polar_step(C, t, rho, chunk_work)
        V_even, V_odd = V[:evens], V[evens:]
        # e^{i phi} = (x + i y) / rho, taken as 1 on the z-axis
        axis = rho == 0.0
        rho[axis] = 1.0
        azimuth = _powers(np.where(axis, 1.0, x / rho) + 1j * (y / rho), chunk_work[0, :M])
        out[sl] = (np.einsum("mn,mn->n", V_even[0::2], azimuth[0::2].real)
                   + np.einsum("mn,mn->n", V_even[1::2], azimuth[0::2].imag)
                   + np.einsum("mn,mn->n", V_odd[0::2], azimuth[1::2].real)
                   + np.einsum("mn,mn->n", V_odd[1::2], azimuth[1::2].imag))
    return out


def evaluate_on_grid(c: HarmonicCoeffs, grid: QuadratureGrid) -> np.ndarray:
    """Values of the expansion at the nodes of `grid`, in node order, from
    its Chebyshev rows on the cached plan: `_polar_step` at the rings and
    one matrix product with the powers of e^{i phi} at the azimuths.  It
    builds no transform table and forms no nodes, and holds one (azimuths,
    L + 1) complex array; its values agree with `synthesize` to rounding."""
    if c.coeffs.size != harmonic_count(grid.n, c.L):
        raise ValueError(f"grid dimension {grid.n} does not match coefficients n={c.n}")
    M, t = c.L + 1, grid.polar_t
    V = _polar_step(_chebyshev_rows(c), t, np.sqrt((1.0 - t) * (1.0 + t)),
                    np.empty((2, M + 1, t.size), dtype=complex))
    # V's rows from parity order to order, cos before sin: order m's rows
    place = np.argsort(np.concatenate([np.arange(0, M, 2), np.arange(1, M, 2)]))
    V = V[(2 * place[:, None] + np.arange(2)).ravel()]
    # azimuth[k, m] = e^{i m phi_k}: its real view holds cos and sin of m phi
    # side by side, in the order of V's rows.  The base e^{i phi} is built in
    # place of its first power (of the zeroth at L = 0, which overwrites it).
    azimuth = np.empty((grid.az_phi.size, M), dtype=complex)
    base = np.multiply(grid.az_phi, 1j, out=azimuth[:, min(1, c.L)])
    _powers(np.exp(base, out=base), azimuth.T)
    return (V.T @ azimuth.view(float).T).ravel()


def _off_grid_bytes(n: int, L: int, work: int) -> int:
    """Upper bound on the peak bytes of an off-grid evaluation at band limit
    L, building the slot maps and the plan included, whose own arrays take
    `work` bytes: with K = L + 1 on S^2 and 1 on the circle and P = L | 1,
    8 KiB of Python objects, the kept maps (a word per coefficient slot, per
    polar row and per order) and the largest of three phases: building the
    polar table at K heights; transforming it, with one parity's rows (at
    most half the rows and K) twice more, the two K x K transforms and the
    parity masks; and a call with the plan kept, first deriving the state's
    rows, with the scattered coefficients (four per row) and the (K, 2P + 2)
    polar sums twice, and then the rows, as large as one set of sums, and
    `work`."""
    K, slots = grid_shape(n, L)[0], harmonic_count(n, L)
    rows, orders = (L // 2 + 1) * _batch_width(n, L), (L | 1) + 1
    transform = 8 * (rows + 2 * ((rows + K) // 2) + 2 * K) * K + 10 * rows
    call = 8 * rows * K + max(8 * (4 * orders * K + 4 * rows), 16 * orders * K + work)
    phases = max(_polar_table_bytes(n, L, K), transform, call)
    return max(_SLOT_MAP_BYTES * slots, 8 * (slots + rows + orders) + phases) + 8192


def evaluate_at_bytes(n: int, L: int, count: int) -> int:
    """Upper bound on the peak bytes of `evaluate_at` at band limit L on
    `count` points (`_off_grid_bytes`): one chunk's workspace, 32
    chunk-length temporaries, two ufunc buffers and the output."""
    M = L + 1
    chunk = min(count, max(1, EVALUATION_CELLS // (M + 1)))
    return _off_grid_bytes(n, L, 8 * (4 * (M + 1) * chunk + 32 * chunk
                                      + 2 * min((M + 1) * chunk, np.getbufsize()) + count))


def evaluate_on_grid_bytes(n: int, L: int, grid_degree: int) -> int:
    """Upper bound on the peak bytes of `evaluate_on_grid` at band limit L
    on the grid of `grid_degree` (`_off_grid_bytes`): at the rings the
    workspace and the reordered rows, at the azimuths the (azimuths, L + 1)
    powers and the three ufunc buffers of filling their strided columns, and
    the node values."""
    M, (rings, azimuths) = L + 1, grid_shape(n, grid_degree)
    return _off_grid_bytes(n, L, 16 * ((3 * M + 2) * rings + M * azimuths
                                       + 3 * min(M * azimuths // 2, np.getbufsize()))
                           + 8 * rings * azimuths)


def as_evaluable(c: HarmonicCoeffs):
    """Wrap coefficients as a callable points -> values: `evaluate_at` on
    the state's Chebyshev rows, derived once, here, from the coefficients
    as they are now."""
    rows = _chebyshev_rows(c)
    return lambda points: evaluate_at(c, points, rows)


def random_coeffs(n: int, L: int, rng: np.random.Generator,
                  decay: float = 1.0) -> HarmonicCoeffs:
    """Gaussian coefficients damped as (1+l)^{-decay}."""
    ls = degree_of_index(n, L)
    vec = rng.standard_normal(harmonic_count(n, L)) / (1.0 + ls) ** decay
    return HarmonicCoeffs(n, L, vec)


# ---------------------------------------------------------------------------
# spectral multipliers

def multiplier_P2s(n: int, l: int, s: float) -> float:
    """Funk-Hecke eigenvalue Gamma(l+n/2-s)/Gamma(l+n/2+s) of the fractional
    integral operator; requires 0 <= s < n/2."""
    if not 0.0 <= s < 0.5 * n:
        raise ValueError(f"s must lie in [0, n/2), got s={s} for n={n}")
    if l < 0:
        raise ValueError(f"degree must be nonnegative, got l={l}")
    a = l + 0.5 * n
    return math.exp(ln_gamma(a - s) - ln_gamma(a + s))


def log_operator_scale(n: int) -> float:
    """The constant 2 pi^{n/2} / Gamma(n/2) in front of the digamma difference."""
    return 2.0 * math.exp(0.5 * n * math.log(math.pi) - ln_gamma(0.5 * n))


def multiplier_H(n: int, l: int) -> float:
    if l < 0:
        raise ValueError(f"degree must be nonnegative, got l={l}")
    return log_operator_scale(n) * (digamma(l + 0.5 * n) - digamma(0.5 * n))


@functools.lru_cache(maxsize=64)
def h_multiplier_table(n: int, L: int) -> np.ndarray:
    """h_l at each flat coefficient slot of band limit L, built once per
    (n, L), read-only."""
    values = np.array([multiplier_H(n, l) for l in range(L + 1)])[degree_of_index(n, L)]
    values.flags.writeable = False
    return values


def apply_multiplier(c: HarmonicCoeffs, table: np.ndarray) -> HarmonicCoeffs:
    """(m u)_{l,m} = m_l u_{l,m}, the multiplier given at each slot of c."""
    if table.shape != c.coeffs.shape:
        raise ValueError(f"multiplier of shape {table.shape} does not match "
                         f"coefficients of shape {c.coeffs.shape}")
    return c.copy_with(c.coeffs * table)


def apply_H(c: HarmonicCoeffs) -> HarmonicCoeffs:
    """Spectral action of the logarithmic operator: (Hu)_{l,m} = h_l u_{l,m}."""
    return apply_multiplier(c, h_multiplier_table(c.n, c.L))


def apply_P2s(c: HarmonicCoeffs, s: float) -> HarmonicCoeffs:
    ratios = np.array([multiplier_P2s(c.n, l, s) for l in range(c.L + 1)])
    return apply_multiplier(c, ratios[degree_of_index(c.n, c.L)])


# ---------------------------------------------------------------------------
# quadrature oracles for the integral definitions

def pv_apply_H(f: GridFunction, eps: float) -> np.ndarray:
    """Quadrature of the principal-value integral at every node: each cutoff
    excludes chordal distances below it symmetrically, with error O(cutoff^2)
    plus quadrature error, and (eps, 2*eps) are Richardson-extrapolated."""
    cut = []
    for e in (eps, 2.0 * eps):
        kw, kwf = weighted_kernel_products(f.grid, 0.5 * f.grid.n, e, f.values[:, None])
        cut.append(f.values * kw - kwf[:, 0])
    return (4.0 * cut[0] - cut[1]) / 3.0


def apply_P2s_direct(f: GridFunction, s: float, eps: float) -> np.ndarray:
    """Direct kernel quadrature of the fractional integral operator, s > 0.

    Uses singularity subtraction: the integral of the bare kernel over the
    whole sphere is known in closed form (it is the degree-0 eigenvalue), so
    only the difference f(eta) - f(xi) is integrated numerically, with the
    ball |xi-eta| < eps excluded; the excluded difference mass is
    O(eps^{2+2s}) by symmetry.
    """
    if s <= 0.0:
        raise ValueError("direct kernel quadrature requires s > 0")
    n = f.grid.n
    pref = math.exp(
        ln_gamma(0.5 * (n - 2.0 * s))
        - 2.0 * s * math.log(2.0)
        - 0.5 * n * math.log(math.pi)
        - ln_gamma(s)
    )
    kw, kwf = weighted_kernel_products(f.grid, 0.5 * (n - 2.0 * s), eps, f.values[:, None])
    return pref * (kwf[:, 0] - f.values * kw) + f.values * multiplier_P2s(n, 0, s)
