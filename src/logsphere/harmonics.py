"""Band-limited analysis/synthesis on S^n and the spectral multipliers.

A band-limited expansion sum_{l<=L} u_{l,m} Y_{l,m} stands in for the finite
energy space.  This module alone decides where (l, m) lives in the flat
coefficient vector: in degree-major order, as `harmonic_indices` lists it,
so a lower band is a prefix.  Other modules go through `HarmonicCoeffs`
(`get`, `constant`, `with_band_limit`, the JSON form, which is the dense
vector in slot order) and `MultiplierTable.per_slot`.

On product grids the forward/backward transforms factor into
an azimuth contraction followed by per-order polar contractions, so no large
design matrix is ever materialized.  The S^2 Legendre table runs by order m
and then by degree l, so each order's polar functions are one contiguous
slice of it; `_slot_maps(L)`, built once per band limit, holds where each
order's slice starts and the flat slots of each row's cosine and sine
coefficients, so a transform is one matrix product per order plus one
gather or scatter of the whole vector.  Off-grid synthesis re-expands each
order's polar functions once per band limit in Chebyshev polynomials of
cos(theta), exactly, so evaluating at a chunk of points takes whole-array
steps: the powers of e^{i theta} (real parts T_j(cos theta), imaginary parts
sin((j+1) theta)) feed one matrix product per parity of the order, and the
azimuth sum is one contraction with the powers of e^{i phi}.  No Legendre
table of the points is built and no Python loop runs per order.

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
import json
import math
import sys
import weakref
from dataclasses import dataclass

import numpy as np

from .specfun import assoc_legendre_norm, digamma, fourier_basis, ln_gamma
from .sphere import GridFunction, QuadratureGrid, grid_shape, sphere_area, weighted_kernel_products

def harmonic_count(n: int, L: int) -> int:
    if n == 1:
        return 2 * L + 1
    if n == 2:
        return (L + 1) * (L + 1)
    raise ValueError(f"harmonic transforms support n in {{1, 2}}, got n={n}")


def flat_index(n: int, l: int, m: int) -> int:
    """Position of (l, m) in the flat coefficient vector."""
    if n == 1:
        if l == 0:
            if m != 0:
                raise ValueError("l=0 has only m=0 on the circle")
            return 0
        if m == 1:
            return 2 * l - 1
        if m == -1:
            return 2 * l
        raise ValueError(f"invalid circle label m={m} (use +1 cos, -1 sin)")
    if n == 2:
        if abs(m) > l:
            raise ValueError(f"|m| <= l required, got (l={l}, m={m})")
        return l * l + (m + l)
    raise ValueError(f"unsupported dimension n={n}")


def harmonic_indices(n: int, L: int) -> list[tuple[int, int]]:
    """(l, m) of each flat slot, in slot order."""
    if n == 1:
        return [(0, 0)] + [(l, m) for l in range(1, L + 1) for m in (1, -1)]
    return [(l, m) for l in range(L + 1) for m in range(-l, l + 1)]


def degree_of_index(n: int, L: int) -> np.ndarray:
    """Degree l of each flat coefficient slot k: (k + 1) // 2 on the circle,
    isqrt(k) on the 2-sphere."""
    count = harmonic_count(n, L)
    if n == 1:
        return (np.arange(count) + 1) // 2
    ls = np.arange(L + 1)
    return np.repeat(ls, 2 * ls + 1)


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

    def get(self, l: int, m: int) -> float:
        return float(self.coeffs[flat_index(self.n, l, m)])

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

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

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
    def loads(cls, text: str) -> "HarmonicCoeffs":
        return cls.from_json_dict(json.loads(text))

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

_TABLE_CACHE: "weakref.WeakKeyDictionary[QuadratureGrid, dict]" = weakref.WeakKeyDictionary()


def _grid_tables(grid: QuadratureGrid, L: int) -> dict:
    per_grid = _TABLE_CACHE.setdefault(grid, {})
    tables = per_grid.get(L)
    if tables is not None:
        return tables
    if grid.n == 1:
        B = fourier_basis(L, grid.az_phi)
        tables = {"fourier": B}
    else:
        phi = grid.az_phi
        mm = np.arange(L + 1)
        ccos = np.cos(np.outer(phi, mm)) * math.sqrt(2.0)
        ccos[:, 0] = 1.0
        csin = np.sin(np.outer(phi, mm)) * math.sqrt(2.0)
        tables = {
            "legendre": assoc_legendre_norm(L, grid.polar_t),
            "cos": ccos,
            "sin": csin,
        }
    per_grid[L] = tables
    return tables


def transform_table_bytes(n: int, L: int, grid_degree: int) -> int:
    """Upper bound on the peak bytes of building `_grid_tables(grid, L)`: the
    tables (on S^2, (L + 1)(L + 2)/2 Legendre rows per ring) and the
    temporaries of building them."""
    rings, azimuths = grid_shape(n, grid_degree)
    if n == 1:
        return 8 * (harmonic_count(1, L) + 4) * azimuths + 4096
    rows = (L + 1) * (L + 2) // 2
    return 8 * ((rows + 3 * (L + 1)) * rings + 4 * (L + 1) * azimuths
                + 8 * (L + 1) ** 2) + 4096


def analyze(f: GridFunction, L: int) -> HarmonicCoeffs:
    """Project a grid function onto harmonics up to degree L by quadrature."""
    grid = f.grid
    if grid.exact_to < 2 * L:
        raise ValueError(
            f"grid exact to degree {grid.exact_to} is too coarse for band limit {L}"
        )
    tables = _grid_tables(grid, L)
    if grid.n == 1:
        vec = tables["fourier"].T @ (grid.weights * f.values)
        return HarmonicCoeffs(1, L, vec)
    nt, nphi = grid.polar_t.size, grid.az_phi.size
    F = f.values.reshape(nt, nphi)
    wphi = 2.0 * math.pi / nphi
    Gc = F @ tables["cos"] * wphi  # (nt, L+1)
    Gs = F @ tables["sin"] * wphi
    leg, maps = tables["legendre"], _slot_maps(L)
    # weighted polar columns, one contiguous row per order
    Wc = np.ascontiguousarray((Gc * grid.polar_w[:, None]).T)
    Ws = np.ascontiguousarray((Gs * grid.polar_w[:, None]).T)
    pc = np.empty(maps.cos_slot.size)
    ps = np.empty(maps.sin_slot.size)
    starts, sin_starts = maps.starts, maps.starts - (L + 1)
    for m in range(L + 1):
        a, b = starts[m], starts[m + 1]
        pc[a:b] = leg[a:b] @ Wc[m]
        if m > 0:
            ps[sin_starts[m]:sin_starts[m + 1]] = leg[a:b] @ Ws[m]
    vec = np.empty(harmonic_count(2, L))
    vec[maps.cos_slot] = pc
    vec[maps.sin_slot] = ps
    return HarmonicCoeffs(2, L, vec)


def synthesize_values(n: int, L: int, coeffs: np.ndarray, grid: QuadratureGrid) -> np.ndarray:
    """Pointwise sums at the grid nodes of the expansions whose coefficients
    are the last axis of `coeffs`: shape (..., count) gives (..., N), so a
    stack of k states costs one pass over the orders."""
    C = np.asarray(coeffs, dtype=float)
    if grid.n != n:
        raise ValueError(f"grid dimension {grid.n} does not match coefficients n={n}")
    if C.shape[-1:] != (harmonic_count(n, L),):
        raise ValueError(f"coefficients have shape {C.shape}, expected (..., "
                         f"{harmonic_count(n, L)}) for n={n}, L={L}")
    tables = _grid_tables(grid, L)
    if n == 1:
        return C @ tables["fourier"].T
    nt = grid.polar_t.size
    leg, maps = tables["legendre"], _slot_maps(L)
    Cc, Cs = C[..., maps.cos_slot], C[..., maps.sin_slot]
    Hc = np.zeros(C.shape[:-1] + (nt, L + 1))
    Hs = np.zeros(C.shape[:-1] + (nt, L + 1))
    starts, sin_starts = maps.starts, maps.starts - (L + 1)
    for m in range(L + 1):
        a, b = starts[m], starts[m + 1]
        Hc[..., m] = Cc[..., a:b] @ leg[a:b]
        if m > 0:
            Hs[..., m] = Cs[..., sin_starts[m]:sin_starts[m + 1]] @ leg[a:b]
    F = Hc @ tables["cos"].T + Hs @ tables["sin"].T
    return F.reshape(C.shape[:-1] + (-1,))


def synthesize(c: HarmonicCoeffs, grid: QuadratureGrid) -> GridFunction:
    """Pointwise sum of the expansion at the grid nodes."""
    return GridFunction(grid, synthesize_values(c.n, c.L, c.coeffs, grid))


@dataclass(frozen=True)
class _SlotMaps:
    """Where the rows of the S^2 Legendre table at band limit L meet the flat
    coefficient vector.  The table's rows run by order m, then degree l;
    order m's rows are starts[m]:starts[m + 1] (starts has L + 2 entries),
    and row r holds (degree[r], order[r]).  cos_slot[r] is the flat slot of
    (l, m), and sin_slot[r - (L + 1)] that of (l, -m) for the rows of
    m >= 1, which are the rows from L + 1 on."""
    starts: np.ndarray
    degree: np.ndarray
    order: np.ndarray
    cos_slot: np.ndarray
    sin_slot: np.ndarray


@functools.lru_cache(maxsize=16)
def _slot_maps(L: int) -> _SlotMaps:
    """The row maps of band limit L, built once; the arrays are read-only."""
    sizes = np.arange(L + 1, 0, -1)  # order m has degrees m..L
    starts = np.concatenate(([0], np.cumsum(sizes)))
    order = np.repeat(np.arange(L + 1), sizes)
    degree = order + np.arange(starts[-1]) - starts[order]
    # invert the slot order: slot k holds harmonic_indices(2, L)[k]
    slot_l, slot_m = np.array(harmonic_indices(2, L)).T
    row = starts[np.abs(slot_m)] + slot_l - np.abs(slot_m)
    cos_slot = np.empty(starts[-1], dtype=np.intp)
    cos_slot[row[slot_m >= 0]] = np.flatnonzero(slot_m >= 0)
    sin_slot = np.empty(starts[-1] - (L + 1), dtype=np.intp)
    sin_slot[row[slot_m < 0] - (L + 1)] = np.flatnonzero(slot_m < 0)
    maps = _SlotMaps(starts, degree, order, cos_slot, sin_slot)
    for array in vars(maps).values():
        array.flags.writeable = False
    return maps


@functools.lru_cache(maxsize=8)
def _evaluation_plan(L: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-order polar basis re-expanded in Chebyshev polynomials of t = cos(theta).

    For even m, Pbar_lm is a polynomial of degree l in t; for odd m it is
    sin(theta) times one of degree l - 1, i.e. a sum of sin(j theta) =
    sin(theta) U_{j-1}(t), j <= l.  So the K = L + 1 Gauss-Chebyshev nodes
    interpolate every row exactly.  The odd rows are expanded by a DST of
    their values rather than a DCT of the values over sin(theta), which
    would amplify the rounding near the poles.

    Returns `cheb[m, l, j]`, the coefficient of T_j(t) (even m) or of
    U_j(t) sin(theta) (odd m) in row (l, m), with the sqrt(2) azimuth factor
    folded in for m > 0 and zero for l < m; and `gather[m, k, l]`, the flat
    slot of the (l, m) cosine (k = 0) and (l, -m) sine (k = 1) coefficient,
    or harmonic_count(2, L), a zero pad, where there is none.
    """
    maps = _slot_maps(L)
    K = L + 1
    angle = (2 * np.arange(K) + 1) * math.pi / (2 * K)
    j = np.arange(K)[:, None]
    # node values -> coefficients: a DCT-II for T_j, a DST-II for sin((j+1) theta)
    dct = np.cos(j * angle) * (2.0 / K)
    dct[0] *= 0.5
    dst = np.sin((j + 1) * angle) * (2.0 / K)
    leg = assoc_legendre_norm(L, np.cos(angle))
    ls, ms = maps.degree, maps.order
    odd = ms % 2 == 1
    cheb = np.zeros((L + 1, L + 1, K))
    cheb[ms[~odd], ls[~odd]] = leg[~odd] @ dct.T
    cheb[ms[odd], ls[odd]] = leg[odd] @ dst.T
    cheb[1:] *= math.sqrt(2.0)
    gather = np.full((L + 1, 2, L + 1), harmonic_count(2, L))
    gather[ms, 0, ls] = maps.cos_slot
    gather[ms[L + 1:], 1, ls[L + 1:]] = maps.sin_slot
    cheb.flags.writeable = False
    gather.flags.writeable = False
    return cheb, gather


def evaluation_plan_bytes(L: int) -> int:
    """Upper bound on the peak bytes of building `_evaluation_plan(L)`: the
    (L + 1)^3 Chebyshev array and as much again while it is filled, and
    building the slot maps from the label list if they are not cached."""
    return 8 * (2 * (L + 1) ** 3 + 16 * (L + 1) ** 2) + 4096


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


EVALUATION_CHUNK = 4096  # points per evaluate_at workspace pass


def evaluate_at(c: HarmonicCoeffs, points: np.ndarray) -> np.ndarray:
    """Values of the expansion at the rows of `points` on S^n (for pullbacks).

    On S^2 a call contracts the coefficients with the cached per-L Chebyshev
    plan (`_evaluation_plan`, O(L^3) and independent of the point count).
    Per chunk of points it takes the powers of e^{i theta} = t + i sin(theta):
    their real parts T_j(t) = cos(j theta) and imaginary parts
    sin((j+1) theta) = sin(theta) U_j(t) feed one matrix product per parity
    of m.  The azimuth sum is one contraction of the products with the powers
    of e^{i phi}.  One workspace of O(L * EVALUATION_CHUNK) floats holds it.
    On the circle each chunk of points takes one Fourier table.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != c.n + 1:
        raise ValueError(f"points of S^{c.n} need {c.n + 1} coordinates in each row "
                         f"of a 2-d array, got shape {pts.shape}")
    if c.n == 1:
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        out = np.empty(theta.size)
        for start in range(0, theta.size, EVALUATION_CHUNK):
            sl = slice(start, start + EVALUATION_CHUNK)
            out[sl] = fourier_basis(c.L, theta[sl]) @ c.coeffs
        return out
    M = c.L + 1
    cheb, gather = _evaluation_plan(c.L)
    # Chebyshev coefficients of the (m, cos) and (m, sin) rows of u, by parity of m
    C = np.append(c.coeffs, 0.0)[gather] @ cheb
    even, odd = C[0::2].reshape(-1, M), C[1::2].reshape(-1, M)
    out = np.empty(pts.shape[0])
    # One workspace for every chunk, two halves of M + 1 complex rows each:
    # `second` holds the powers of e^{i theta} and then the products, `first`
    # the real table and then the powers of e^{i phi}.  At most two tables of
    # the chunk are alive at once, and no megabyte-size temporary is freed
    # and faulted in again on every call.
    work = np.empty((2, (M + 1) * min(EVALUATION_CHUNK, pts.shape[0])), dtype=complex)
    for start in range(0, pts.shape[0], EVALUATION_CHUNK):
        sl = slice(start, min(start + EVALUATION_CHUNK, pts.shape[0]))
        x, y = pts[sl, 0], pts[sl, 1]
        t = np.clip(pts[sl, 2], -1.0, 1.0)
        npts = t.size
        first = work[0, :(M + 1) * npts].reshape(M + 1, npts)
        second = work[1, :(M + 1) * npts].reshape(M + 1, npts)
        # the powers of e^{i theta}, copied to real rows table[j] = (cos, sin)(j theta);
        # sin(theta) is |(x, y)|, which unlike sqrt(1 - t^2) keeps its relative
        # precision near the poles
        rho = np.hypot(x, y)
        polar = _powers(t + 1j * rho, second)
        table = first.view(float).reshape(M + 1, 2, npts)
        table[...] = polar.view(float).reshape(M + 1, npts, 2).transpose(0, 2, 1)
        # rows (m, cos) and (m, sin), by parity of m, over the points
        V = second.view(float).reshape(-1, npts)
        V_even, V_odd = V[:even.shape[0]], V[even.shape[0]:2 * M]
        np.matmul(even, table[:M, 0], out=V_even)
        np.matmul(odd, table[1:, 1], out=V_odd)
        # e^{i phi} = (x + i y) / rho, taken as 1 on the z-axis
        axis = rho == 0.0
        rho[axis] = 1.0
        azimuth = _powers(np.where(axis, 1.0, x / rho) + 1j * (y / rho), first[:M])
        out[sl] = (np.einsum("mn,mn->n", V_even[0::2], azimuth[0::2].real)
                   + np.einsum("mn,mn->n", V_even[1::2], azimuth[0::2].imag)
                   + np.einsum("mn,mn->n", V_odd[0::2], azimuth[1::2].real)
                   + np.einsum("mn,mn->n", V_odd[1::2], azimuth[1::2].imag))
    return out


def evaluate_at_bytes(n: int, L: int, count: int) -> int:
    """Upper bound on the peak bytes of `evaluate_at` at band limit L on
    `count` points: on the circle one chunk's (chunk, 2L + 1) Fourier table
    with three chunk-length temporaries, and the angles and the output; on
    S^2 the larger of building the plan and the plan with one chunk's
    workspace, 16 chunk-length temporaries and the output."""
    chunk = min(count, EVALUATION_CHUNK)
    if n == 1:
        return 8 * ((2 * L + 4) * chunk + 2 * count) + 4096
    call = 8 * ((L + 1) ** 3 + 8 * (L + 1) ** 2 + 4 * (L + 2) * chunk + 16 * chunk + count)
    return max(evaluation_plan_bytes(L), call) + 4096


def as_evaluable(c: HarmonicCoeffs):
    """Wrap coefficients as a callable points -> values."""
    return lambda pts: evaluate_at(c, pts)


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


@dataclass(eq=False)
class MultiplierTable:
    """Cached per-degree eigenvalues m_l for l = 0..L."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("multiplier table contains non-finite entries")

    @property
    def L(self) -> int:
        return self.values.size - 1

    def per_slot(self, L: int) -> np.ndarray:
        """m_l at each flat coefficient slot of band limit L."""
        return self.values[degree_of_index(self.n, L)]


@functools.lru_cache(maxsize=64)
def h_multiplier_table(n: int, L: int) -> MultiplierTable:
    """h_l for l = 0..L, built once per (n, L); its values are read-only."""
    values = np.array([multiplier_H(n, l) for l in range(L + 1)])
    values.flags.writeable = False
    return MultiplierTable(n, values)


def apply_multiplier(c: HarmonicCoeffs, table: MultiplierTable) -> HarmonicCoeffs:
    if table.L < c.L:
        raise ValueError(f"multiplier table up to degree {table.L} too short for L={c.L}")
    return c.copy_with(c.coeffs * table.per_slot(c.L))


def apply_H(c: HarmonicCoeffs) -> HarmonicCoeffs:
    """Spectral action of the logarithmic operator: (Hu)_{l,m} = h_l u_{l,m}."""
    return apply_multiplier(c, h_multiplier_table(c.n, c.L))


def apply_P2s(c: HarmonicCoeffs, s: float) -> HarmonicCoeffs:
    table = MultiplierTable(
        c.n, np.array([multiplier_P2s(c.n, l, s) for l in range(c.L + 1)])
    )
    return apply_multiplier(c, table)


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
