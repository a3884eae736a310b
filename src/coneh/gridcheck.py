"""Finite-difference verification of cone harmonics on 2D cones over circles.

Independent of the closed forms in `harmonics`: mode functions are sampled
on an (r, theta) annulus grid (the tip is excised; the polar-form operator
is singular there), the cone Laplacian u_rr + u_r / r + u_tt / r^2 is
applied by centered differences, and ball averages are recomputed by
tensor-product trapezoid quadrature.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument
from .harmonics import ConeHarmonic, circle_eigenfunction, circle_mode
from .spectra import Circle


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
        if not 0 < self.r_min < self.r_max:
            raise InvalidArgument(
                f"need 0 < r_min < r_max, got {self.r_min}, {self.r_max}")
        if self.values.ndim != 2:
            raise InvalidArgument("values must be a 2D (r, theta) array")

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
    """Sample a circle-cone harmonic on the annulus grid (vectorized)."""
    r = np.linspace(r_min, r_max, m_r)[:, None]
    theta = (np.arange(m_theta) * L / m_theta)[None, :]
    vals = sum((m.c * r ** m.alpha * circle_eigenfunction(L, m.mode_id, theta)
                for m in u.modes if m.c != 0.0 and m.mode_id != 0),
               np.full((m_r, m_theta), float(u.constant_term)))
    return ConeGrid(L, r_min, r_max, vals)


def sample_function(f, L: float, r_min: float, r_max: float,
                    m_r: int, m_theta: int) -> ConeGrid:
    """Sample an arbitrary f(r, theta) (broadcastable over numpy arrays)."""
    r = np.linspace(r_min, r_max, m_r)[:, None]
    theta = (np.arange(m_theta) * L / m_theta)[None, :]
    return ConeGrid(L, r_min, r_max, np.broadcast_to(
        np.asarray(f(r, theta), dtype=float), (m_r, m_theta)).copy())


def laplacian_residual(grid: ConeGrid) -> tuple[float, float]:
    """(max, rms) norms of the discrete cone Laplacian over interior points.

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


def convergence_order(mode: tuple[float, int, float], L: float,
                      window: tuple[float, float],
                      resolutions: list[int]) -> tuple[float, list[float]]:
    """Fitted order of the Laplacian residual for one cos mode.

    mode = (alpha, j, c); each resolution m is used for both grid
    directions.  Returns (least-squares slope of log residual vs log h,
    residual max norms).  Exact cone harmonics give a slope near 2.
    """
    if len(resolutions) < 3:
        raise InvalidArgument("need at least 3 resolutions")
    for a, b in zip(resolutions, resolutions[1:]):
        if b != 2 * a:
            raise InvalidArgument("resolutions must double")
    alpha, j, c = mode
    u = ConeHarmonic(2, (circle_mode(L, j, "cos", c)._replace(alpha=alpha),))
    r_min, r_max = window
    residuals = []
    for m in resolutions:
        grid = sample_harmonic(u, L, r_min, r_max, m, m)
        res_max, _ = laplacian_residual(grid)
        residuals.append(res_max)
    if any(b >= a for a, b in zip(residuals, residuals[1:])):
        warnings.warn(
            f"non-monotone residuals {residuals}; order fit may be unreliable")
    logh = np.log(1.0 / np.asarray(resolutions, dtype=float))
    order = float(np.polyfit(logh, np.log(residuals), 1)[0])
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


def grid_dump_csv(grid: ConeGrid, path: str):
    """Write (r, theta, value) rows for external inspection."""
    r = grid.r_nodes
    theta = grid.theta_nodes
    with open(path, "w") as fh:
        fh.write("r,theta,value\n")
        for i in range(grid.m_r):
            for j in range(grid.m_theta):
                fh.write(f"{float(r[i])!r},{float(theta[j])!r},"
                         f"{float(grid.values[i, j])!r}\n")
