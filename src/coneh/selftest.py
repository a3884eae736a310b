"""Condensed invariant suite behind the `selftest` CLI subcommand.

Each check is a seeded, deterministic spot-check of one library invariant;
the full-depth versions live in the pytest suite.
"""

from __future__ import annotations

import math

import numpy as np

from . import eigensolver, gridcheck, growth, harmonics
from .errors import InvalidArgument
from .exponents import eigenvalue_from_exponent, exponent_from_eigenvalue
from .harmonics import ConeHarmonic, Mode
from .spectra import Circle, MetricCircleNumeric, RoundSphere


def _random_mode_sum(rng: np.random.Generator, n: int = 2,
                     max_modes: int = 8, alpha_max: float = 10.0,
                     alpha_min: float = 0.05) -> ConeHarmonic:
    nmodes = int(rng.integers(1, max_modes + 1))
    alphas = rng.uniform(alpha_min, alpha_max, nmodes)
    coeffs = rng.uniform(-10.0, 10.0, nmodes)
    coeffs[coeffs == 0.0] = 1.0
    modes = tuple(Mode(float(a), float(c), i + 1)
                  for i, (a, c) in enumerate(zip(alphas, coeffs)))
    return ConeHarmonic(n, modes)


def run_selftest(seed: int = 42) -> dict:
    """Run every spot-check; returns a report with one entry per check.

    The seed must be a non-negative integer."""
    if seed < 0:
        raise InvalidArgument(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    checks = []

    def record(name, passed, detail=""):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    # counting on round spheres vs the harmonic-polynomial dimension
    ks = np.arange(0, 21)
    ok = all(
        RoundSphere(n - 1).count_array(ks * (ks + n - 2)).tolist()
        == [growth.euclidean_hk(n, k) for k in ks.tolist()]
        for n in range(2, 7))
    record("sphere-counting-vs-harmonic-polynomials", ok)

    # circle counting closed form at non-eigenvalue lambdas
    ok = True
    for _ in range(50):
        L = float(rng.uniform(0.3, 2.0 * math.pi))
        lam = float(rng.uniform(0.01, 500.0))
        X = Circle(L)
        if X.counting(lam) != 1 + 2 * int(L * math.sqrt(lam) / (2 * math.pi)):
            ok = False
    record("circle-counting-closed-form", ok)

    # exponent map round trip
    alphas = rng.uniform(0.0, 100.0, 200)
    ok = all(
        (np.abs(exponent_from_eigenvalue(
            eigenvalue_from_exponent(alphas, n), n) - alphas)
         <= 1e-14 * np.maximum(1.0, alphas)).all()
        for n in (2, 3, 5, 10))
    record("exponent-round-trip", ok)

    # certified eigensolver on a constant-density circle
    spec, bars = eigensolver.certified_spectrum(
        MetricCircleNumeric.constant(math.pi), 17.0)
    ok = ([(round(lam, 6), m) for lam, m in spec.entries]
          == [(0.0, 1), (4.0, 2), (16.0, 2)]) and all(
        b <= 1e-6 * max(1.0, lam)
        for (lam, _), b in zip(spec.entries, bars))
    record("eigensolver-certified-spectrum", ok,
           f"bars={[float(b) for b in bars]}")

    # frequency monotonicity and the log-derivative identity
    ok = True
    worst = 0.0
    for _ in range(20):
        u = _random_mode_sum(rng)
        grid = np.geomspace(1e-2, 1e2, 64)
        freqs = harmonics.U(u, grid)
        if (freqs[1:] < freqs[:-1] - 1e-10).any():
            ok = False
        resid = harmonics.frequency_identity_check(u, 0.5, 8.0)
        worst = max(worst, resid)
        if resid > 1e-8:
            ok = False
    record("frequency-monotonicity-and-identity", ok, f"worst={worst:.3g}")

    # three-circles bound under the growth cap, plus saturation
    ok = True
    for _ in range(200):
        k = float(rng.uniform(0.5, 12.0))
        u = _random_mode_sum(rng, alpha_max=k)
        s = float(rng.uniform(0.1, 10.0))
        if not harmonics.three_circles_ratio(u, s, k).satisfied:
            ok = False
    top = ConeHarmonic(2, (Mode(3.0, 1.0, 1),))
    sat = harmonics.three_circles_ratio(top, 2.0, 3.0)
    ok = ok and abs(sat.ratio - sat.bound) <= 1e-12 * sat.bound
    record("three-circles-bound", ok)

    # grid harmonicity: convergence order and the r^2 negative control
    order, _ = gridcheck.convergence_order(
        (1.0, 1, 1.0), 2.0 * math.pi, (0.5, 1.5), [32, 64, 128])
    bad = gridcheck.sample_function(lambda r, t: r ** 2 + 0.0 * t,
                                    2.0 * math.pi, 0.5, 1.5, 64, 64)
    neg, _ = gridcheck.laplacian_residual(bad)
    record("grid-harmonicity", 1.8 <= order <= 2.2 and neg >= 0.1,
           f"order={order:.3f}, negative_control={neg:.3f}")

    # collapsed bounds reduce to the plain bounds at m = n
    ok = True
    for _ in range(20):
        L = float(rng.uniform(0.3, 2.0 * math.pi))
        k = float(rng.uniform(0.1, 20.0))
        X = Circle(L)
        rep = growth.collapsed_bounds(X, 2, 2, k)
        hk = growth.hk_bounds(X, 2, k)
        if (rep.upper, rep.lower) != (hk.upper, hk.lower):
            ok = False
    record("collapsed-reduction", ok)

    return {"seed": seed, "checks": checks,
            "all_passed": all(c["passed"] for c in checks)}
