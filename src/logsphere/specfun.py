"""Gamma-family special functions and orthonormal basis evaluation.

Log-gamma is the standard library's `math.lgamma` for x > 0.  Digamma, which
the standard library lacks, is computed by argument shifting followed by the
asymptotic (Bernoulli) series, which keeps the absolute error near machine
precision over the whole range this package uses.  The basis routines
tabulate the factors of the real orthonormal harmonics: Fourier modes on the
circle and normalized associated-Legendre functions on the 2-sphere.
"""

from __future__ import annotations

import math

import numpy as np

# B_{2k} / (2k) for k = 1..7, the asymptotic tail of psi.
_DIGAMMA_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


def ln_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def digamma(x: float) -> float:
    """psi(x) = Gamma'(x)/Gamma(x) for x > 0, by recurrence then series."""
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    acc = 0.0
    while x < 8.0:
        acc -= 1.0 / x
        x += 1.0
    z = 1.0 / (x * x)
    tail = 0.0
    for c in reversed(_DIGAMMA_TAIL):
        tail = (tail + c) * z
    return acc + math.log(x) - 0.5 / x - tail


def fourier_basis(L: int, theta: np.ndarray) -> np.ndarray:
    """Orthonormal real Fourier modes on the circle of circumference 2 pi.

    Returns an array of shape (len(theta), 2L+1) with columns ordered
    [const, cos 1t, sin 1t, cos 2t, sin 2t, ...]; the constant column is
    1/sqrt(2 pi) and the others carry 1/sqrt(pi).
    """
    theta = np.asarray(theta, dtype=float)
    out = np.empty((theta.size, 2 * L + 1))
    out[:, 0] = 1.0 / math.sqrt(2.0 * math.pi)
    inv_sqrt_pi = 1.0 / math.sqrt(math.pi)
    for l in range(1, L + 1):
        out[:, 2 * l - 1] = np.cos(l * theta) * inv_sqrt_pi
        out[:, 2 * l] = np.sin(l * theta) * inv_sqrt_pi
    return out


def legendre_row(L: int, l, m):
    """Row of (l, m), 0 <= m <= l <= L, in `assoc_legendre_norm(L, t)`, in
    rectangular packed order: with P = L | 1, the least odd number >= L,
    batch b = 0..L // 2 holds orders b and P - b, with L + 1 - b and
    b + L + 1 - P rows, in 2L + 2 - P rows from row b (2L + 2 - P), order b
    first; for even L, order 0 pairs with the empty order L + 1.  Within an
    order the rows run by degree l = m..L.  Integers or integer arrays."""
    P = L | 1
    high = 2 * m > L  # order m is the second of its batch
    batch = m + high * (P - 2 * m)
    return batch * (2 * L + 2 - P) + l - m + high * (L + 1 - batch)


def assoc_legendre_norm(L: int, t: np.ndarray) -> np.ndarray:
    """Fully normalized associated Legendre values for all 0 <= m <= l <= L.

    Output shape is ((L+1)(L+2)/2, len(t)), row legendre_row(L, l, m)
    holding Nbar_{l,m}(t) with the normalization
    int_{S^2} (Nbar_{l,m} trig_m)^2 = 1 once combined with the sqrt(2)
    cos/sin azimuth factors; no Condon-Shortley phase.  The rows are packed
    by pairs of orders (m, P - m), P = L | 1, so the table reshapes to one
    (L // 2 + 1, 2L + 2 - P, len(t)) block.

    Upward three-term recurrence in l at fixed m,

        Nbar_{l,m} = a_{l,m} t Nbar_{l-1,m} - b_{l,m} Nbar_{l-2,m},

    run along the diagonals k = l - m: after the seeds Nbar_{m,m} (k = 0)
    and Nbar_{m+1,m} = sqrt(2m+3) t Nbar_{m,m} (k = 1), step k updates
    every order m = 0..L-k at once and scatters the rows into place.  The
    coefficients are exact integer ratios under one division and one square
    root, so the table is the same, bit for bit, as one step per (l, m);
    working memory is three (L+1) x len(t) blocks.
    """
    t = np.asarray(t, dtype=float)
    s = np.sqrt(np.maximum(0.0, (1.0 - t) * (1.0 + t)))  # sin(theta)
    rows = (L + 1) * (L + 2) // 2
    tab = np.empty((rows, t.size))
    # entry (k, m) of these (L+1) x (L+1) arrays belongs to degree l = k + m;
    # only the entries with l <= L are used
    order = np.arange(L + 1)
    deg = order[:, None] + order
    target = legendre_row(L, deg, order)
    # recurrence coefficients for k >= 2, in exact integers up to the division
    l, msq = deg[2:], order**2
    a = np.sqrt((4 * l * l - 1) / (l * l - msq))
    b = np.sqrt((2 * l + 1) * ((l - 1) ** 2 - msq) / ((2 * l - 3) * (l * l - msq)))
    prev, cur, nxt = (np.empty((L + 1, t.size)) for _ in range(3))
    # Diagonal seeds Nbar_{m,m}.
    diag = 1.0 / math.sqrt(4.0 * math.pi)
    smp = np.ones_like(t)
    for m in range(L + 1):
        prev[m] = diag * smp
        if m < L:
            smp = smp * s
            diag *= math.sqrt((2.0 * m + 3.0) / (2.0 * m + 2.0))
    tab[target[0]] = prev
    if L >= 1:
        np.multiply(np.sqrt(2.0 * order[:L] + 3.0)[:, None] * t, prev[:L], out=cur[:L])
        tab[target[1, :L]] = cur[:L]
    for k in range(2, L + 1):
        # nxt = (a t) cur - b prev, in place; prev (degree l - 2) is not needed again
        n = L + 1 - k
        np.multiply(a[k - 2, :n, None], t, out=nxt[:n])
        nxt[:n] *= cur[:n]
        prev[:n] *= b[k - 2, :n, None]
        nxt[:n] -= prev[:n]
        tab[target[k, :n]] = nxt[:n]
        prev, cur, nxt = cur, nxt, prev
    return tab

