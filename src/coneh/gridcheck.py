"""Finite-difference verification of cone harmonics on 2D cones over circles.

Independent of the closed forms in `harmonics`: mode functions are sampled
on an (r, theta) annulus grid (the tip is excised; the polar-form operator
is singular there), the cone Laplacian u_rr + u_r / r + u_tt / r^2 is
applied by centered differences, and ball averages are recomputed by
tensor-product trapezoid quadrature.

`sample_harmonic` and `laplacian_residual` are the plain full-grid
reference of `convergence_order`, which holds no grid at all.  Its mode
c r^alpha phi(theta) is a product, so the stencil applied to the samples is
exactly the rank-2 table a_i g_k + b_i h_k of 1D second differences
(`_factored_residual`).  phi is the cos row, an eigenvector of the periodic
second difference, so every column of the table is column 0 times a cosine
of the node, and the table's max norm is column 0's: each residual costs
O(m), not O(m^2), and differs from the reference's only in its rounding,
by a small multiple of B = eps max|u| (4/dr^2 + 1/(dr r_min) +
4/(dt r_min)^2).  The check samples the row at the integer phases
(j k mod m) / m, the reference at the nodes k L / m, whose phase
2 pi j k / m loses accuracy as j grows.  The check runs on the window
scaled by a power of two with c = 1, and the order is fitted there, so it
does not depend on c or on the scale of the window.

A grid needs a positive, finite circle length and a radial window
0 < r_min < r_max < inf; `convergence_order` also needs an integral mode
number >= 1, a nonzero coefficient and resolutions of at least 3.
Violations raise InvalidArgument.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, NumericFailure
from .harmonics import ConeHarmonic, Mode, circle_mode_sum

#: Points of the largest grid that a convergence_order verdict stands for.
#: The check itself reads one column of the stencil, in O(m) time and
#: memory (resolutions [1024, 2048, 4096] take about 0.3 ms on a 2-core
#: x86 host), so this bounds the grid, not the check's cost.
_MAX_POINTS = 2 ** 24


def _check_annulus(L: float, r_min: float, r_max: float):
    if not 0 < L < math.inf:
        raise InvalidArgument(
            f"circle length must be positive and finite, got {L}")
    if not 0 < r_min < r_max < math.inf:
        raise InvalidArgument(
            f"need 0 < r_min < r_max < inf, got {r_min}, {r_max}")


@dataclass(frozen=True)
class ConeGrid:
    """Samples of a function on [r_min, r_max] x [0, L), periodic in theta.

    values has shape (m_r, m_theta); radial nodes are uniform including
    both ends, theta nodes are j * L / m_theta.
    """

    L: float
    r_min: float
    r_max: float
    values: np.ndarray

    def __post_init__(self):
        _check_annulus(self.L, self.r_min, self.r_max)
        if self.values.ndim != 2 or 0 in self.values.shape:
            raise InvalidArgument(
                "values must be a non-empty 2D (r, theta) array")

    @property
    def m_r(self) -> int:
        return self.values.shape[0]

    @property
    def m_theta(self) -> int:
        return self.values.shape[1]

    @property
    def r_nodes(self) -> np.ndarray:
        return np.linspace(self.r_min, self.r_max, self.m_r)

    @property
    def theta_nodes(self) -> np.ndarray:
        return np.arange(self.m_theta) * self.L / self.m_theta


def sample_harmonic(u: ConeHarmonic, L: float, r_min: float, r_max: float,
                    m_r: int, m_theta: int) -> ConeGrid:
    """Sample a circle-cone harmonic (`circle_mode_sum`) on the grid."""
    return sample_function(lambda r, theta: circle_mode_sum(u, L, theta, r),
                           L, r_min, r_max, m_r, m_theta)


def sample_function(f, L: float, r_min: float, r_max: float,
                    m_r: int, m_theta: int) -> ConeGrid:
    """Sample an arbitrary f(r, theta) (broadcastable over numpy arrays)."""
    grid = ConeGrid(L, r_min, r_max, np.empty((m_r, m_theta)))
    grid.values[...] = f(grid.r_nodes[:, None], grid.theta_nodes)
    return grid


def laplacian_residual(grid: ConeGrid) -> tuple[float, float]:
    """(max, rms) norms of the discrete cone Laplacian over interior points.

    Centered second-order differences in r and theta, periodic in theta;
    for an exact cone harmonic the residual is pure O(h^2) truncation.
    Each point is evaluated as ((u+ - 2u) + u-) / dr^2, plus
    (u+ - u-) / (2 dr) / r, plus the theta term / dt^2 / r^2.
    """
    if grid.m_r < 3 or grid.m_theta < 3:
        raise InvalidArgument("need at least 3 points in each direction")
    mid, up, down = grid.values[1:-1], grid.values[2:], grid.values[:-2]
    ri = grid.r_nodes[1:-1, None]
    dr = (grid.r_max - grid.r_min) / (grid.m_r - 1)
    dt = grid.L / grid.m_theta
    # numpy scalars: a square past the float range is inf, not OverflowError
    u_rr = ((up - 2.0 * mid) + down) / np.float64(dr) ** 2
    u_r = (up - down) / (2.0 * dr)
    u_tt = ((np.roll(mid, -1, axis=1) - 2.0 * mid) + np.roll(mid, 1, axis=1)) \
        / np.float64(dt) ** 2
    res = u_rr + u_r / ri + u_tt / ri ** 2
    return float(np.abs(res).max()), float(np.sqrt(np.mean(res ** 2)))


def _factored_residual(alpha: float, mode_id: int, L: float, r_min: float,
                       r_max: float, m: int) -> float:
    """Max norm of the discrete cone Laplacian of r^alpha phi over the
    interior points of the m x m annulus grid, from one column of its
    stencil.

    The samples are f_i g_k, with f = r^alpha on the radial nodes and g the
    cos row sqrt(2/L) cos(2 pi j k / m), so the stencil of
    `laplacian_residual` is exactly the table a_i g_k + b_i h_k, with
    a = ((f+ - 2f) + f-) / dr^2 + (f+ - f-) / (2 dr) / r and b = f / r / r
    on the interior rows and h = ((g+ - 2g) + g-) / dt^2, periodic.  The
    cos row is an eigenvector of that periodic second difference, h = mu g,
    so column k is column 0 times cos(2 pi j k / m), and |cos| <= 1 =
    cos 0: the table's max is column 0's, max |a_i g_0 + b_i h_0|, with h_0
    from the three samples g_1, g_0 and g_(m-1).  They are taken at the
    integer phases (j k mod m) / m, so no node k L / m overflows and a
    large j is sampled as accurately as j mod m; they are Python floats, so
    h_0 past the float range is inf without a warning (nan if dt is 0).
    """
    r = np.linspace(r_min, r_max, m)
    f = r ** alpha
    dr = (r_max - r_min) / (m - 1)
    mid, up, down, ri = f[1:-1], f[2:], f[:-2], r[1:-1]
    a = ((up - 2.0 * mid) + down) / np.float64(dr) ** 2 \
        + (up - down) / (2.0 * dr) / ri
    b = mid / ri / ri
    j, dt = (mode_id + 1) // 2, L / m
    phases = np.array([0, j % m, -j % m]) / m
    g0, g1, g_1 = (math.sqrt(2.0 / L)
                   * np.cos(2.0 * math.pi * phases)).tolist()
    h0 = ((g1 - 2.0 * g0) + g_1) / dt / dt if dt else math.nan
    return float(np.abs(a * g0 + b * h0).max())


def _unit_window(alpha: float, r_min: float, r_max: float
                 ) -> tuple[float, float, float]:
    """(b, r_min / b, r_max / b): the scale b of the window for the unit
    check.  b is the power of two at or below r_max, so the scaled nodes
    are the grid's nodes exactly, while (r_max / b)^alpha stays in the
    float range (alpha up to about 500); past that, b = r_max."""
    b = math.ldexp(1.0, math.frexp(r_max)[1] - 1)
    if alpha * math.log2(r_max / b) < 500.0:
        return b, r_min / b, r_max / b
    return r_max, r_min / r_max, 1.0


def _rescaled(x: float, c: float, alpha: float, scale: float) -> float:
    """x |c| scale^(alpha - 2), rounded about once: the power of two is
    split exactly, in integers, into whole and fractional parts of
    (alpha - 2) log2(scale), the rest comes from the mantissas of x and c,
    so no intermediate leaves the float range; inf past it, and subnormal
    or 0 below it."""
    (p, q), (pe, qe) = float(alpha).as_integer_ratio(), \
        math.log2(scale).as_integer_ratio()
    num, den = (p - 2 * q) * pe, q * qe
    n = num // den
    (mx, ex), (mc, ec) = math.frexp(x), math.frexp(abs(c))
    try:
        return math.ldexp(mx * mc * 2.0 ** ((num - n * den) / den),
                          n + ex + ec)
    except OverflowError:
        return math.inf


def convergence_order(mode: tuple[float, float, float], L: float,
                      window: tuple[float, float],
                      resolutions: Sequence[int]) -> tuple[float, list[float]]:
    """Fitted order of the Laplacian residual for one cos mode.

    mode = (alpha, j, c) with an integral mode number j >= 1 and a nonzero
    coefficient c; each resolution m >= 3 is used for both grid directions.
    Returns (least-squares slope of log residual vs log h, residual max
    norms).  Exact cone harmonics give a slope near 2.

    The residual of c r^alpha phi on [r_min, r_max] is |c| b^(alpha - 2)
    times that of r^alpha phi on [r_min / b, r_max / b] (see `_unit_window`
    for b).  The slope is fitted on those unit residuals, so it does not
    depend on c or on the scale of the window; the reported residuals are
    the unit ones times |c| b^(alpha - 2) (see `_rescaled`).
    """
    if len(resolutions) < 3:
        raise InvalidArgument("need at least 3 resolutions")
    if resolutions[0] < 3:
        raise InvalidArgument(
            f"resolutions must be at least 3, got {resolutions[0]}")
    for a, b in zip(resolutions, resolutions[1:]):
        if b != 2 * a:
            raise InvalidArgument("resolutions must double")
    if resolutions[-1] ** 2 > _MAX_POINTS:
        raise NumericFailure(f"a {resolutions[-1]}^2 grid needs "
                             f"{resolutions[-1] ** 2} points, past {_MAX_POINTS}")
    alpha, j, c = mode
    if not (float(j).is_integer() and j >= 1):
        raise InvalidArgument(f"mode number must be an integer >= 1, got {j}")
    if c == 0.0:
        raise InvalidArgument("mode coefficient must be nonzero")
    # c r^alpha times the cos eigenfunction of mode number j
    mode_id = 2 * int(j) - 1
    ConeHarmonic(2, (Mode(alpha, c, mode_id),))  # checks alpha and c
    r_min, r_max = window
    _check_annulus(L, r_min, r_max)
    scale, lo, hi = _unit_window(alpha, r_min, r_max)
    unit = [_factored_residual(alpha, mode_id, L, lo, hi, m)
            for m in resolutions]
    residuals = [_rescaled(x, c, alpha, scale) for x in unit]
    if not all(map(math.isfinite, residuals)):
        raise NumericFailure(
            f"residual max norms {residuals} are not finite: the mode "
            "leaves the float range on the grid")
    if any(b >= a for a, b in zip(unit, unit[1:])):
        warnings.warn(
            f"non-monotone residuals {residuals}; order fit may be unreliable")
    logh = np.log(1.0 / np.asarray(resolutions, dtype=float))
    order = float(np.polyfit(logh, np.log(unit), 1)[0])
    return order, residuals


def grid_J(grid: ConeGrid, s: float) -> float:
    """Ball average of u^2 by trapezoid quadrature over the annulus.

    Integrates u^2 * r over [r_min, s] x [0, L) and divides by s^n (n = 2),
    matching the closed-form mode-sum average for arclength-orthonormal
    eigenfunctions.  The excised tip contributes a relative error bounded
    by (r_min / s)^(2*alpha_min + 2), controlled by r_min <= 0.01 s.
    """
    if not grid.r_min <= 0.01 * s:
        raise InvalidArgument(
            f"r_min = {grid.r_min} too large for s = {s} "
            "(tip truncation uncontrolled; need r_min <= 0.01 s)")
    if s > grid.r_max * (1.0 + 1e-12):
        raise InvalidArgument(f"s = {s} outside the radial window")
    r = grid.r_nodes
    dt = grid.L / grid.m_theta
    # periodic direction: rectangle rule is the trapezoid rule
    f = np.sum(grid.values ** 2, axis=1) * dt * r
    idx = int(np.searchsorted(r, s * (1.0 + 1e-12), side="right") - 1)
    integral = float(np.trapezoid(f[:idx + 1], r[:idx + 1]))
    if idx + 1 < len(r) and s > r[idx]:
        # partial last cell, integrand interpolated linearly
        t = (s - r[idx]) / (r[idx + 1] - r[idx])
        fs = f[idx] * (1.0 - t) + f[idx + 1] * t
        integral += 0.5 * (f[idx] + fs) * (s - r[idx])
    return integral / s ** 2

