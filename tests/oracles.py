"""Independent brute-force oracles shared by the test modules."""

import itertools
import math

import numpy as np

from coneh.errors import InvalidArgument
from coneh.gridcheck import ConeGrid
from coneh.harmonics import circle_eigenfunction


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


def sample_harmonic(u, L, r_min, r_max, m_r, m_theta):
    """Circle-cone harmonic on the annulus grid as one generator sum of
    full-grid mode terms (reference for gridcheck.sample_harmonic)."""
    r = np.linspace(r_min, r_max, m_r)[:, None]
    theta = (np.arange(m_theta) * L / m_theta)[None, :]
    vals = sum((m.c * r ** m.alpha * circle_eigenfunction(L, m.mode_id, theta)
                for m in u.modes if m.c != 0.0 and m.mode_id != 0),
               np.full((m_r, m_theta), float(u.constant_term)))
    return ConeGrid(L, r_min, r_max, vals)


def laplacian_residual(grid):
    """(max, rms) norms of the discrete cone Laplacian over interior points,
    from full-grid arrays (reference for gridcheck.laplacian_residual).

    Centered second-order differences in r and theta, periodic in theta;
    for an exact cone harmonic the residual is pure O(h^2) truncation.
    """
    if grid.m_r < 3 or grid.m_theta < 3:
        raise InvalidArgument("need at least 3 points in each direction")
    u = grid.values
    r = grid.r_nodes[:, None]
    dr = (grid.r_max - grid.r_min) / (grid.m_r - 1)
    dt = grid.L / grid.m_theta

    u_rr = (u[2:, :] - 2.0 * u[1:-1, :] + u[:-2, :]) / dr ** 2
    u_r = (u[2:, :] - u[:-2, :]) / (2.0 * dr)
    u_tt = (np.roll(u, -1, axis=1) - 2.0 * u + np.roll(u, 1, axis=1))[1:-1, :] \
        / dt ** 2
    ri = r[1:-1, :]
    res = u_rr + u_r / ri + u_tt / ri ** 2
    return float(np.max(np.abs(res))), float(np.sqrt(np.mean(res ** 2)))


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
