"""Independent brute-force oracles shared by the test modules."""

import bisect
import math
import sys

import numpy as np

from coneh import spectra
from coneh.exponents import eigenvalue_from_exponent

RTOL = 4.0 * sys.float_info.epsilon  # eigenvalues this close count as equal


def monomials(n, degree):
    """All exponent tuples of total degree `degree` in n variables."""
    if n == 1:
        return [(degree,)]
    out = []
    for first in range(degree + 1):
        for rest in monomials(n - 1, degree - first):
            out.append((first,) + rest)
    return out


def harmonic_dim_exact_degree(n, l):
    """dim of degree-l harmonic polynomials in R^n, by ranking the Laplacian.

    The Laplacian maps degree-l monomials linearly onto degree-(l-2)
    monomials; the harmonic space is its kernel.
    """
    src = monomials(n, l)
    if l < 2:
        return len(src)
    dst = {m: i for i, m in enumerate(monomials(n, l - 2))}
    M = np.zeros((len(dst), len(src)))
    for j, mono in enumerate(src):
        for axis in range(n):
            e = mono[axis]
            if e >= 2:
                lowered = tuple(v - 2 if i == axis else v
                                for i, v in enumerate(mono))
                M[dst[lowered], j] += e * (e - 1)
    return len(src) - np.linalg.matrix_rank(M)


def harmonic_poly_dim_brute(n, k):
    """dim of harmonic polynomials of degree <= k in R^n (brute force)."""
    return sum(harmonic_dim_exact_degree(n, l) for l in range(k + 1))


def harmonic_poly_dim_binomial(n, k):
    """Same dimension via the binomial closed form."""
    total = 0
    for l in range(k + 1):
        total += math.comb(n + l - 1, l)
        if l >= 2:
            total -= math.comb(n + l - 3, l - 2)
    return total


def unit_ball_volume(n):
    """Volume of the unit n-ball by the recursion w_n = 2 pi / n * w_(n-2)
    from w_0 = 1 and w_1 = 2 (reference for growth.ball_volume)."""
    vol = 1.0 if n % 2 == 0 else 2.0
    for m in range(2 if n % 2 == 0 else 3, n + 1, 2):
        vol *= 2.0 * math.pi / m
    return vol


def simpson_fixed(f, a, b, m=4096):
    """Plain composite Simpson on m intervals (m even)."""
    x = np.linspace(a, b, m + 1)
    y = np.array([f(v) for v in x])
    h = (b - a) / m
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


def factored_table_max(alpha, mode_id, L, r_min, r_max, m):
    """max |a_i g_k + b_i h_k| over the whole (m - 2) x m table of the
    factored stencil of r^alpha phi (reference for
    gridcheck._factored_residual, which reads one column of it).

    a = ((f+ - 2f) + f-) / dr^2 + (f+ - f-) / (2 dr) / r and b = f / r / r
    on the interior radial nodes, g the cos row of mode_id sampled at the
    integer phases (j k mod m) / m, h = ((g+ - 2g) + g-) / dt^2, periodic.
    """
    r = np.linspace(r_min, r_max, m)
    f = r ** alpha
    dr, dt = (r_max - r_min) / (m - 1), L / m
    a = ((f[2:] - 2.0 * f[1:-1]) + f[:-2]) / dr ** 2 \
        + (f[2:] - f[:-2]) / (2.0 * dr) / r[1:-1]
    b = f[1:-1] / r[1:-1] / r[1:-1]
    j = (mode_id + 1) // 2
    g = math.sqrt(2.0 / L) * np.cos(
        2.0 * math.pi * (j * np.arange(m) % m) / m)
    h = ((np.roll(g, -1) - 2.0 * g) + np.roll(g, 1)) / dt / dt
    return float(np.abs(np.outer(a, g) + np.outer(b, h)).max())


def per_order_total(X, n, k, delta):
    """The Cesaro total as a per-order loop over bisect counts: N_X at the
    growth orders i - 1 + delta, i = 1..int(k), each counted as
    `count_array` counts (reference for CrossSection.cesaro_total)."""
    entries = X.spectrum_upto(eigenvalue_from_exponent(k + 1.0, n)).entries
    eigs = [ev for ev, _ in entries]
    cum = np.cumsum([m for _, m in entries], dtype=object).tolist()
    total = 0
    for i in range(1, int(k) + 1):
        lam = eigenvalue_from_exponent(i - 1 + delta, n)
        total += cum[bisect.bisect_right(eigs, lam * (1.0 + RTOL)) - 1]
    return total


def cesaro_offset_walk(X, k):
    """The largest 2**-m, 2 <= m <= 20, with no resonant exponent within the
    tie margin of a growth order i + 2**-m, 0 <= i < int(k), from the
    resonant set walked block by block; None if every one ties (reference
    for CrossSection.cesaro_offset)."""
    orders = int(k)
    margin = 2.0 ** -spectra._tie_shift(orders)
    for m in range(2, 21):
        delta = 2.0 ** -m
        if not orders or not any(
                (abs(betas - (np.clip(np.rint(betas - delta), 0, orders - 1)
                              + delta)) <= margin).any()
                for betas, _ in X.resonance_blocks(float(orders))):
            return delta
    return None
