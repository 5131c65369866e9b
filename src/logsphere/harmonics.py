"""Band-limited analysis/synthesis on S^n and the spectral multipliers.

A band-limited expansion sum_{l<=L} u_{l,m} Y_{l,m} stands in for the finite
energy space.  On product grids the forward/backward transforms factor into
an azimuth contraction followed by per-order polar contractions, so no large
design matrix is ever materialized.  Off-grid synthesis re-expands each
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
import weakref
from dataclasses import dataclass

import numpy as np

from .specfun import assoc_legendre_norm, digamma, fourier_basis, ln_gamma, tri_index
from .sphere import GridFunction, QuadratureGrid, apply_radial_kernel, sphere_area

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
    out: list[tuple[int, int]] = []
    if n == 1:
        out.append((0, 0))
        for l in range(1, L + 1):
            out.extend([(l, 1), (l, -1)])
    else:
        for l in range(L + 1):
            out.extend((l, m) for m in range(-l, l + 1))
    return out


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

    def to_json_dict(self) -> dict:
        triplets = [
            [l, m, float(self.coeffs[flat_index(self.n, l, m)])]
            for (l, m) in harmonic_indices(self.n, self.L)
        ]
        return {"n": self.n, "L": self.L, "coeffs": triplets}

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "HarmonicCoeffs":
        """Inverse of to_json_dict; missing triplets are zero.  Non-integer
        labels, non-finite values, repeated (l, m) and degrees outside 0..L
        are rejected."""
        n, L = int(data["n"]), int(data["L"])
        vec = np.zeros(harmonic_count(n, L))
        seen = set()
        for l, m, value in data["coeffs"]:
            if (int(l), int(m)) != (l, m):
                raise ValueError(f"labels must be integers, got (l={l!r}, m={m!r})")
            l, m, value = int(l), int(m), float(value)
            if not 0 <= l <= L:
                raise ValueError(f"degree l={l} is outside the band 0..{L}")
            if (l, m) in seen:
                raise ValueError(f"duplicate coefficient (l={l}, m={m})")
            if not math.isfinite(value):
                raise ValueError(f"non-finite coefficient {value} at (l={l}, m={m})")
            seen.add((l, m))
            vec[flat_index(n, l, m)] = value
        return cls(n, L, vec)

    @classmethod
    def loads(cls, text: str) -> "HarmonicCoeffs":
        return cls.from_json_dict(json.loads(text))

    @classmethod
    def zeros(cls, n: int, L: int) -> "HarmonicCoeffs":
        return cls(n, L, np.zeros(harmonic_count(n, L)))


# ---------------------------------------------------------------------------
# transform tables, cached per (grid, L)

_TABLE_CACHE: "weakref.WeakKeyDictionary[QuadratureGrid, dict]" = weakref.WeakKeyDictionary()


def _grid_tables(grid: QuadratureGrid, L: int) -> dict:
    per_grid = _TABLE_CACHE.setdefault(grid, {})
    tables = per_grid.get(L)
    if tables is not None:
        return tables
    if grid.n == 1:
        B = fourier_basis(L, grid.thetas)
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
    leg = tables["legendre"]
    wt = grid.polar_w
    vec = np.zeros(harmonic_count(2, L))
    for m in range(L + 1):
        rows = np.array([tri_index(l, m) for l in range(m, L + 1)])
        pc = leg[rows] @ (wt * Gc[:, m])
        for j, l in enumerate(range(m, L + 1)):
            vec[flat_index(2, l, m)] = pc[j]
        if m > 0:
            ps = leg[rows] @ (wt * Gs[:, m])
            for j, l in enumerate(range(m, L + 1)):
                vec[flat_index(2, l, -m)] = ps[j]
    return HarmonicCoeffs(2, L, vec)


def synthesize(c: HarmonicCoeffs, grid: QuadratureGrid) -> GridFunction:
    """Pointwise sum of the expansion at the grid nodes."""
    if grid.n != c.n:
        raise ValueError(f"grid dimension {grid.n} does not match coefficients n={c.n}")
    tables = _grid_tables(grid, c.L)
    if grid.n == 1:
        return GridFunction(grid, tables["fourier"] @ c.coeffs)
    nt, nphi = grid.polar_t.size, grid.az_phi.size
    leg = tables["legendre"]
    L = c.L
    Hc = np.zeros((nt, L + 1))
    Hs = np.zeros((nt, L + 1))
    for m in range(L + 1):
        rows = np.array([tri_index(l, m) for l in range(m, L + 1)])
        ac = np.array([c.coeffs[flat_index(2, l, m)] for l in range(m, L + 1)])
        Hc[:, m] = ac @ leg[rows]
        if m > 0:
            as_ = np.array([c.coeffs[flat_index(2, l, -m)] for l in range(m, L + 1)])
            Hs[:, m] = as_ @ leg[rows]
    F = Hc @ tables["cos"].T + Hs @ tables["sin"].T
    return GridFunction(grid, F.ravel())


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
    K = L + 1
    angle = (2 * np.arange(K) + 1) * math.pi / (2 * K)
    j = np.arange(K)[:, None]
    # node values -> coefficients: a DCT-II for T_j, a DST-II for sin((j+1) theta)
    dct = np.cos(j * angle) * (2.0 / K)
    dct[0] *= 0.5
    dst = np.sin((j + 1) * angle) * (2.0 / K)
    leg = assoc_legendre_norm(L, np.cos(angle))
    ls, ms = np.tril_indices(L + 1)  # (l, m) of each row, in tri_index order
    odd = ms % 2 == 1
    cheb = np.zeros((L + 1, L + 1, K))
    cheb[ms[~odd], ls[~odd]] = leg[~odd] @ dct.T
    cheb[ms[odd], ls[odd]] = leg[odd] @ dst.T
    cheb[1:] *= math.sqrt(2.0)
    gather = np.full((L + 1, 2, L + 1), harmonic_count(2, L))
    gather[ms, 0, ls] = ls * ls + ls + ms
    sine = ms > 0
    gather[ms[sine], 1, ls[sine]] = ls[sine] ** 2 + ls[sine] - ms[sine]
    cheb.flags.writeable = False
    gather.flags.writeable = False
    return cheb, gather


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


def evaluate_at(c: HarmonicCoeffs, points: np.ndarray, chunk: int = 4096) -> np.ndarray:
    """Evaluate the expansion at arbitrary points (needed by pullbacks).

    On S^2 a call contracts the coefficients with the cached per-L Chebyshev
    plan (`_evaluation_plan`, O(L^3) and independent of the point count).
    Per chunk of points it takes the powers of e^{i theta} = t + i sin(theta):
    their real parts T_j(t) = cos(j theta) and imaginary parts
    sin((j+1) theta) = sin(theta) U_j(t) feed one matrix product per parity
    of m.  The azimuth sum is one contraction of the products with the powers
    of e^{i phi}.  One workspace of O(L * chunk) floats holds all of it.
    """
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if c.n == 1:
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        vals = fourier_basis(c.L, theta) @ c.coeffs
        return float(vals[0]) if single else vals
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
    work = np.empty((2, (M + 1) * min(chunk, pts.shape[0])), dtype=complex)
    for start in range(0, pts.shape[0], chunk):
        sl = slice(start, min(start + chunk, pts.shape[0]))
        x, y = pts[sl, 0], pts[sl, 1]
        t = np.clip(pts[sl, 2], -1.0, 1.0)
        npts = t.size
        first = work[0, :(M + 1) * npts].reshape(M + 1, npts)
        second = work[1, :(M + 1) * npts].reshape(M + 1, npts)
        # the powers of e^{i theta}, copied to real rows table[j] = (cos, sin)(j theta)
        polar = _powers(t + 1j * np.sqrt(np.maximum(0.0, 1.0 - t * t)), second)
        table = first.view(float).reshape(M + 1, 2, npts)
        table[...] = polar.view(float).reshape(M + 1, npts, 2).transpose(0, 2, 1)
        # rows (m, cos) and (m, sin), by parity of m, over the points
        V = second.view(float).reshape(-1, npts)
        V_even, V_odd = V[:even.shape[0]], V[even.shape[0]:2 * M]
        np.matmul(even, table[:M, 0], out=V_even)
        np.matmul(odd, table[1:, 1], out=V_odd)
        # e^{i phi} = (x + i y) / rho, taken as 1 on the z-axis
        rho = np.hypot(x, y)
        axis = rho == 0.0
        rho[axis] = 1.0
        azimuth = _powers(np.where(axis, 1.0, x / rho) + 1j * (y / rho), first[:M])
        out[sl] = (np.einsum("mn,mn->n", V_even[0::2], azimuth[0::2].real)
                   + np.einsum("mn,mn->n", V_even[1::2], azimuth[0::2].imag)
                   + np.einsum("mn,mn->n", V_odd[0::2], azimuth[1::2].real)
                   + np.einsum("mn,mn->n", V_odd[1::2], azimuth[1::2].imag))
    return float(out[0]) if single else out


def as_evaluable(c: HarmonicCoeffs):
    """Wrap coefficients as a callable points -> values."""
    return lambda pts: evaluate_at(c, pts)


def random_coeffs(n: int, L: int, rng: np.random.Generator, decay: float = 1.0,
                  offset: float = 0.0) -> HarmonicCoeffs:
    """Gaussian coefficients damped as (1+l)^{-decay}, optional constant part."""
    ls = degree_of_index(n, L)
    vec = rng.standard_normal(harmonic_count(n, L)) / (1.0 + ls) ** decay
    if offset != 0.0:
        vec[0] += offset * math.sqrt(sphere_area(n))
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


def multiplier_A2s(n: int, l: int, s: float) -> float:
    """Eigenvalue of the inverse family, Gamma(l+n/2+s)/Gamma(l+n/2-s);
    defined for 0 <= s < l+n/2."""
    a = l + 0.5 * n
    if not 0.0 <= s < a:
        raise ValueError(f"s must lie in [0, l+n/2), got s={s} for (n={n}, l={l})")
    if l < 0:
        raise ValueError(f"degree must be nonnegative, got l={l}")
    return math.exp(ln_gamma(a + s) - ln_gamma(a - s))


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


def h_multiplier_table(n: int, L: int) -> MultiplierTable:
    return MultiplierTable(n, np.array([multiplier_H(n, l) for l in range(L + 1)]))


def apply_multiplier(c: HarmonicCoeffs, table: MultiplierTable) -> HarmonicCoeffs:
    if table.L < c.L:
        raise ValueError(f"multiplier table up to degree {table.L} too short for L={c.L}")
    ls = degree_of_index(c.n, c.L)
    return c.copy_with(c.coeffs * table.values[ls])


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

def _kernel_products(f: GridFunction, exponent: float, eps: float):
    """(K w, K (w f)) for K_ij = |xi_i - xi_j|^{-2 exponent}, cut off below eps."""
    grid = f.grid
    w = grid.weights
    KX = apply_radial_kernel(grid, lambda d2: d2 ** -exponent, eps,
                             np.column_stack([w, w * f.values]))
    return KX[:, 0], KX[:, 1]


def pv_apply_H_direct(f: GridFunction, eps: float) -> np.ndarray:
    """One-cutoff quadrature of the principal-value integral at every node.

    Excludes chordal distances below eps symmetrically; error is O(eps^2)
    plus quadrature error, so callers should Richardson-extrapolate.
    """
    kw, kwf = _kernel_products(f, 0.5 * f.grid.n, eps)
    return f.values * kw - kwf


def pv_apply_H(f: GridFunction, eps: float) -> np.ndarray:
    """Richardson extrapolation over (eps, 2*eps) of the cutoff quadrature."""
    return (4.0 * pv_apply_H_direct(f, eps) - pv_apply_H_direct(f, 2.0 * eps)) / 3.0


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
    kw, kwf = _kernel_products(f, 0.5 * (n - 2.0 * s), eps)
    return pref * (kwf - f.values * kw) + f.values * multiplier_P2s(n, 0, s)
