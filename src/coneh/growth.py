"""Growth dimensions of polynomial-growth harmonic functions on cones.

Everything here is driven by the cross-section counting function N_X:
the upper bound h_k <= N_X(k(k+n-2)), the effective lower bound (the
supremum of N_X(beta(beta+n-2)) over beta < k, i.e. the left limit),
exactness away from resonances, the large-k asymptotics and their Cesaro
variant, Weyl ratios, and the collapsed-case bounds where the cone
dimension m is smaller than the manifold dimension n.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import spectra
from .errors import InvalidArgument, NumericFailure
from .exponents import eigenvalue_from_exponent, exponent_from_eigenvalue
from .spectra import RESONANCE_TOL, CrossSection, in_float_range

__all__ = [
    "GrowthReport", "CollapsedReport", "StaircaseStep", "EmpiricalRatio",
    "WeylRatio", "exponent_from_eigenvalue", "eigenvalue_from_exponent",
    "ball_volume", "hk_bounds", "hk_staircase", "asymptotic_ratio", "cesaro_limit",
    "empirical_ratio_convergence", "weyl_ratio", "collapsed_bounds",
    "euclidean_hk",
]


def ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n (exact at half-integer Gamma values)."""
    if n < 1:
        raise InvalidArgument(f"dimension must be >= 1, got {n}")
    return in_float_range(
        lambda: math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0),
        lambda: n / 2.0 * math.log(math.pi) - math.lgamma(n / 2.0 + 1.0),
        f"the volume of the unit {n}-ball")


def euclidean_hk(n: int, k: int) -> int:
    """Dimension of harmonic polynomials of degree <= k in R^n.

    Sum over degrees l of C(n+l-1, l) - C(n+l-3, l-2); the sharpness
    oracle for the counting-function bounds on round spheres.
    """
    if n < 2 or k < 0:
        raise InvalidArgument(f"need n >= 2 and k >= 0, got n={n}, k={k}")
    total = 0
    for l in range(k + 1):
        total += math.comb(n + l - 1, l)
        if l >= 2:
            total -= math.comb(n + l - 3, l - 2)
    return total


@dataclass(frozen=True)
class GrowthReport:
    """h_k bounds for one (X, n, k): lower/upper, exactness, resonance info."""

    k: float
    n: int
    lower: int
    upper: int
    exact: int | None
    resonant: bool
    nearest_resonance: float


@dataclass(frozen=True)
class CollapsedReport:
    """h_k bounds when the cone has Hausdorff dimension m <= n."""

    k: float
    n: int
    m: int
    V: float
    lower: int
    upper: int
    limit_ratio: float


class StaircaseStep(NamedTuple):
    k_lo: float
    k_hi: float
    h: int
    jump: int  # multiplicity entering at k_lo (0 for the first step)


class WeylRatio(NamedTuple):
    ratio: float
    limit: float
    deviation: float


class EmpiricalRatio(NamedTuple):
    k: float
    pointwise_ratio: float
    pointwise_deviation: float
    cesaro_ratio: float
    cesaro_deviation: float


#: Growth orders one Cesaro sum may sample: about 10 s on a 3-sphere.
_MAX_CESARO_ORDERS = 2 ** 24


def _scaled(count: int, base: float, exponent: float, what: str) -> float:
    """count * base ** exponent for an integer count >= 0 and a base > 0."""
    if count == 0:
        return 0.0

    def direct():
        scale = base ** exponent
        # a subnormal power would round the product: take the logs instead
        return count * scale if scale >= sys.float_info.min else 0.0
    return in_float_range(
        direct, lambda: math.log(count) + exponent * math.log(base), what)


def _limit(x: float, f: int, m: int, what: str) -> float:
    """x / (f! * omega_m), the shape of the asymptotic limits."""
    omega = ball_volume(m)
    return in_float_range(
        lambda: x / (math.factorial(f) * omega),
        lambda: math.log(x) - math.lgamma(f + 1.0) - math.log(omega), what)


def _check_dim(X: CrossSection, n: int):
    if n < 2:
        raise InvalidArgument(f"cone dimension must be >= 2, got {n}")
    if n != X.ambient_dim:
        raise InvalidArgument(
            f"cross-section has ambient dimension {X.ambient_dim}, got n = {n}")


def _check_order(k: float, name: str = "k"):
    if not 0 < k < math.inf:
        raise InvalidArgument(f"{name} must be positive and finite, got {k}")


def hk_bounds(X: CrossSection, n: int, k: float,
              tol: float = RESONANCE_TOL) -> GrowthReport:
    """Lower/upper/exact h_k from the counting function of X.

    upper = N_X(k(k+n-2)); lower = the strict count below k(k+n-2)
    (the supremum of the lower bound over beta < k), clamped to 1 since
    constants always qualify; exact = upper whenever k is non-resonant.
    In the Liouville regime k(k+n-2) < lambda_1 this gives h_k = 1.
    """
    _check_dim(X, n)
    _check_order(k)
    upper, left, (resonant, beta, _dist) = X.growth_counts(k, tol)
    return GrowthReport(
        k=k, n=n, lower=max(1, left), upper=upper,
        exact=None if resonant else upper,
        resonant=resonant, nearest_resonance=beta)


def hk_staircase(X: CrossSection, n: int, k_max: float,
                 ) -> list[StaircaseStep]:
    """The exact h_k staircase on (0, k_max], partitioned at resonances.

    Each step carries the constant counting value on its interval; at a
    resonant left endpoint the step reports the full counting value
    (resonant eigenspace included) and the size of the jump.
    """
    _check_dim(X, n)
    _check_order(k_max, "k_max")
    betas, lams = X.resonant_set_upto(k_max)
    # count at the stored eigenvalues: beta*beta may round below them
    counts = X.count_array(lams).tolist()
    steps: list[StaircaseStep] = []
    prev_h = 1
    lo = 0.0
    prev_jump = 0
    for beta, h in zip(betas.tolist(), counts):
        if beta <= 0:
            continue
        if beta > lo:
            steps.append(StaircaseStep(lo, beta, prev_h, prev_jump))
        prev_jump = h - prev_h
        prev_h = h
        lo = beta
    steps.append(StaircaseStep(lo, k_max, prev_h, prev_jump))
    return steps


def asymptotic_ratio(X: CrossSection, n: int) -> float:
    """The limit of k^(1-n) h_k: 2*alpha / ((n-1)! * omega_n)."""
    _check_dim(X, n)
    alpha = X.measure() / n
    return _limit(2.0 * alpha, n - 1, n, "the pointwise limit")


def cesaro_limit(X: CrossSection, n: int) -> float:
    """The limit of k^(-n) * sum of h_(i-1): 2*alpha / (n! * omega_n)."""
    _check_dim(X, n)
    alpha = X.measure() / n
    return _limit(2.0 * alpha, n, n, "the Cesaro limit")


def _cesaro_offset(X: CrossSection, k: float) -> float:
    """A fixed non-resonant sampling offset: half the minimal resonance gap
    up to k, capped at 0.25."""
    return min(0.25, X.exponent_gap(max(k, 1.0)) / 2.0)


def _exact_sum(counts: np.ndarray) -> int:
    """The sum of nonnegative exact counts as a Python int: summed in int64
    where size * max < 2**63 proves the sum fits, as Python ints else."""
    if counts.dtype == np.int64 and counts.size * int(counts.max()) < 2 ** 63:
        return int(counts.sum())
    return sum(counts.tolist())


def _cesaro_total(X: CrossSection, n: int, k: float, delta: float) -> int:
    """Sum of N_X at the growth orders i - 1 + delta, i = 1..int(k), as an
    exact integer; the orders go through the level table in blocks, each
    summed by `_exact_sum`."""
    total = 0
    for start in range(0, int(k), spectra.LEVEL_BLOCK):
        orders = np.arange(start, min(start + spectra.LEVEL_BLOCK, int(k))) + delta
        total += _exact_sum(X.count_array(eigenvalue_from_exponent(orders, n)))
    return total


def empirical_ratio_convergence(X: CrossSection, n: int, k_list,
                                tol: float = RESONANCE_TOL
                                ) -> list[EmpiricalRatio]:
    """Pointwise and Cesaro ratios with deviations from their limits.

    Resonant k are perturbed by +tol so every sample is non-resonant; the
    Cesaro sum samples growth orders i-1+delta with a fixed non-resonant
    offset delta.
    """
    _check_dim(X, n)
    limit_p = asymptotic_ratio(X, n)
    limit_c = cesaro_limit(X, n)
    out = []
    for k in k_list:
        _check_order(k)
        resonant, _, _ = X.is_resonant(k, tol)
        k_eff = k + tol if resonant else k
        h = X.counting(eigenvalue_from_exponent(k_eff, n))
        ratio_p = _scaled(h, k_eff, 1 - n, f"the pointwise ratio at k = {k}")
        if int(k) > _MAX_CESARO_ORDERS:
            raise NumericFailure(f"the Cesaro sum at k = {k} needs {int(k)} "
                                 f"orders, past {_MAX_CESARO_ORDERS}")
        ratio_c = _scaled(_cesaro_total(X, n, k, _cesaro_offset(X, k)), k, -n,
                          f"the Cesaro ratio at k = {k}")
        out.append(EmpiricalRatio(
            k=k, pointwise_ratio=ratio_p,
            pointwise_deviation=abs(ratio_p - limit_p),
            cesaro_ratio=ratio_c,
            cesaro_deviation=abs(ratio_c - limit_c)))
    return out


def weyl_ratio(X: CrossSection, n: int, lam: float) -> WeylRatio:
    """N_X(lam) * lam^(-(n-1)/2) against its Weyl limit.

    The limit is n * omega_(n-1) * alpha / (2*pi)^(n-1) with
    alpha = measure(X) / n.
    """
    _check_dim(X, n)
    if lam <= 0:
        raise InvalidArgument(f"lambda must be positive, got {lam}")
    alpha = X.measure() / n
    ratio = _scaled(X.counting(lam), lam, -(n - 1) / 2.0,
                    f"the Weyl ratio at lambda = {lam}")
    omega = ball_volume(n - 1)
    limit = in_float_range(
        lambda: n * omega * alpha / (2.0 * math.pi) ** (n - 1),
        lambda: (math.log(n * omega) + math.log(alpha)
                 - (n - 1) * math.log(2.0 * math.pi)), "the Weyl limit")
    deviation = abs(ratio - limit) / limit
    if deviation == math.inf:
        raise NumericFailure(f"the Weyl deviation at lambda = {lam} is past "
                             "the float range")
    return WeylRatio(ratio, limit, deviation)


def collapsed_bounds(X: CrossSection, n: int, m: int, k: float
                     ) -> CollapsedReport:
    """h_k bounds when the cone over X has Hausdorff dimension m <= n.

    X is the (m-1)-dimensional cross-section.  The lower bound uses the
    exponent relation with m; the upper bound's argument is shifted by
    (n-m)/2 on both factors.  With m = n this reduces to hk_bounds.
    """
    if not 2 <= m <= n:
        raise InvalidArgument(f"need 2 <= m <= n, got m={m}, n={n}")
    if m != X.ambient_dim:
        raise InvalidArgument(
            f"cross-section has ambient dimension {X.ambient_dim}, "
            f"expected the cone dimension m = {m}")
    _check_order(k)
    lower = max(1, X.counting_left(k * (k + m - 2)))
    upper = X.counting((k + (n - m) / 2.0) * (k + (n + m) / 2.0 - 2.0))
    V = X.measure()
    limit_ratio = _limit(2.0 * V, m, m, "the collapsed limit ratio")
    return CollapsedReport(k=k, n=n, m=m, V=V, lower=lower, upper=upper,
                           limit_ratio=limit_ratio)
