"""Band-limited analysis/synthesis on S^n and the spectral multipliers.

A band-limited expansion sum_{l<=L} u_{l,m} Y_{l,m} stands in for the finite
energy space.  On product grids the forward/backward transforms factor into
an azimuth contraction followed by per-order polar contractions, so no large
design matrix is ever materialized; off-grid synthesis evaluates the basis
directly in chunks.

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
    """Degree l of each flat coefficient slot."""
    out = np.empty(harmonic_count(n, L), dtype=int)
    for k, (l, _m) in enumerate(harmonic_indices(n, L)):
        out[k] = l
    return out


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


def evaluate_at(c: HarmonicCoeffs, points: np.ndarray, chunk: int = 4096) -> np.ndarray:
    """Evaluate the expansion at arbitrary points (needed by pullbacks)."""
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if c.n == 1:
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        vals = fourier_basis(c.L, theta) @ c.coeffs
        return float(vals[0]) if single else vals
    L = c.L
    # per-order coefficient rows, padded to length L+1
    ac = np.zeros((L + 1, L + 1))
    as_ = np.zeros((L + 1, L + 1))
    for m in range(L + 1):
        for l in range(m, L + 1):
            ac[m, l] = c.coeffs[flat_index(2, l, m)]
            if m > 0:
                as_[m, l] = c.coeffs[flat_index(2, l, -m)]
    out = np.empty(pts.shape[0])
    for start in range(0, pts.shape[0], chunk):
        sl = slice(start, min(start + chunk, pts.shape[0]))
        t = np.clip(pts[sl, 2], -1.0, 1.0)
        phi = np.arctan2(pts[sl, 1], pts[sl, 0])
        leg = assoc_legendre_norm(L, t)
        acc = np.zeros(t.size)
        for m in range(L + 1):
            rows = np.array([tri_index(l, m) for l in range(m, L + 1)])
            pol_c = ac[m, m:] @ leg[rows]
            if m == 0:
                acc += pol_c
            else:
                pol_s = as_[m, m:] @ leg[rows]
                acc += math.sqrt(2.0) * (
                    pol_c * np.cos(m * phi) + pol_s * np.sin(m * phi)
                )
        out[sl] = acc
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
