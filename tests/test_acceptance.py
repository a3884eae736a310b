"""End-to-end acceptance checks, one per numbered contract item.

Each test prints a single PASS/FAIL line (shown because pyproject.toml
passes -s to pytest) and enforces its own wall-clock budget.
"""

import math
import time

import numpy as np
import pytest

from coneh import (Circle, ConeHarmonic, ExplicitSpectrum, Mode, RoundSphere,
                   cesaro_limit, circle_mode, collapsed_bounds,
                   empirical_ratio_convergence, euclidean_hk, gridcheck,
                   harmonics, hk_bounds, weyl_ratio)
from coneh.eigensolver import MetricCircle, assemble, eigenvalues

TWO_PI = 2.0 * math.pi


class _Budget:
    """Context manager: times a block and prints one verdict line."""

    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"{verdict} {self.label} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.label}: {elapsed:.2f}s over the {self.seconds}s budget")
        return False


def test_01_sphere_cones_are_sharp():
    with _Budget("criterion-01 flat-cone sharpness", 1.0):
        for n in range(2, 7):
            X = RoundSphere(n - 1)
            for k in range(0, 51):
                expected = euclidean_hk(n, k)
                assert X.counting(k * (k + n - 2)) == expected
                if k > 0:
                    rep = hk_bounds(X, n, float(k))
                    assert rep.upper == expected


def test_02_pointwise_asymptotic_ratio():
    with _Budget("criterion-02 pointwise asymptotic ratio", 1.0):
        k = 10000.5
        for L in (math.pi / 2, math.pi, TWO_PI):
            row = empirical_ratio_convergence(Circle(L), 2, [k])[0]
            limit = L / math.pi
            assert abs(row.pointwise_ratio - limit) <= 1e-3 * limit
        k3 = 1000.5
        row = empirical_ratio_convergence(RoundSphere(2), 3, [k3])[0]
        assert abs(row.pointwise_ratio - 1.0) <= 5e-3


def test_03_cesaro_ratio():
    with _Budget("criterion-03 Cesaro ratio", 1.0):
        for X in (Circle(TWO_PI), RoundSphere(1)):
            limit = cesaro_limit(X, 2)
            row = empirical_ratio_convergence(X, 2, [1000.0])[0]
            assert row.cesaro_deviation <= 5e-3 * limit


def test_04_weyl_law():
    with _Budget("criterion-04 Weyl ratio", 1.0):
        for lam in (1e4, 2e4, 5e4):
            r = weyl_ratio(RoundSphere(2), 3, lam)
            assert abs(r.ratio - 1.0) <= 0.03
        for L in (math.pi / 2, math.pi, TWO_PI):
            r = weyl_ratio(Circle(L), 2, 1e6)
            limit = L / math.pi
            assert abs(r.ratio - limit) <= 0.03 * limit


def test_05_liouville_regime():
    with _Budget("criterion-05 Liouville regime", 1.0):
        rng = np.random.default_rng(20250823)
        X = Circle(math.pi)  # lambda_1 = 4: Liouville for k(k) < 4
        for _ in range(20):
            k = float(rng.uniform(1e-3, 1.999))
            rep = hk_bounds(X, 2, k)
            assert rep.lower == rep.upper == 1
        lam1 = float(rng.uniform(2.0, 30.0))
        Y = ExplicitSpectrum(3, [0.0, lam1, lam1 + 2.0], [1, 3, 4],
                             lam1 + 5.0, 7.0)
        kmax = (-1.0 + math.sqrt(1.0 + lam1)) - 1e-9  # k(k+1) < lambda_1
        for _ in range(20):
            k = float(rng.uniform(1e-3, kmax))
            rep = hk_bounds(Y, 3, k)
            assert rep.lower == rep.upper == 1 and rep.exact == 1


def test_06_eigensolver_certification():
    with _Budget("criterion-06 eigensolver certification", 5.0):
        L = TWO_PI
        circle = MetricCircle.constant(L)
        exact = [(TWO_PI * j / L) ** 2 for j in range(1, 11)]
        solved = {m: eigenvalues(assemble(circle, m), 21)
                  for m in (512, 1024, 2048)}
        # first 10 nonzero eigenvalues (cos/sin pairs) at m = 2048
        for j, lam in enumerate(exact, start=1):
            for idx in (2 * j - 1, 2 * j):
                assert abs(solved[2048][idx] - lam) <= 1e-4 * lam
        # doubling the resolution divides the error by about four
        for j, lam in enumerate(exact, start=1):
            idx = 2 * j
            e1 = abs(solved[512][idx] - lam)
            e2 = abs(solved[1024][idx] - lam)
            e3 = abs(solved[2048][idx] - lam)
            assert 3.6 <= e1 / e2 <= 4.4
            assert 3.6 <= e2 / e3 <= 4.4


def test_07_frequency_suite():
    with _Budget("criterion-07 frequency monotonicity and identity", 10.0):
        rng = np.random.default_rng(7)
        grid = np.geomspace(1e-2, 1e2, 64)
        for _ in range(200):
            nmodes = int(rng.integers(1, 9))
            u = ConeHarmonic(2, tuple(
                Mode(float(a), float(c), i + 1) for i, (a, c) in enumerate(
                    zip(rng.uniform(0.05, 10.0, nmodes),
                        rng.uniform(0.1, 10.0, nmodes)
                        * rng.choice([-1.0, 1.0], nmodes)))))
            freqs = [harmonics.U(u, s) for s in grid]
            assert all(b >= a - 1e-10 for a, b in zip(freqs, freqs[1:]))
            assert harmonics.frequency_identity_check(u, 0.5, 8.0) <= 1e-8


def test_08_three_circles():
    with _Budget("criterion-08 three-circles inequality", 10.0):
        rng = np.random.default_rng(8)
        for _ in range(10_000):
            k = float(rng.uniform(0.3, 15.0))
            nmodes = int(rng.integers(1, 7))
            u = ConeHarmonic(2, tuple(
                Mode(float(a), float(c), i + 1) for i, (a, c) in enumerate(
                    zip(rng.uniform(0.02, k, nmodes),
                        rng.uniform(-5.0, 5.0, nmodes) + 0.1))))
            s = float(rng.uniform(0.05, 20.0))
            res = harmonics.three_circles_ratio(u, s, k)
            assert res.ratio <= res.bound * (1.0 + 1e-12)
        for k in (0.5, 2.0, 6.0):
            top = ConeHarmonic(2, (Mode(k, 1.0, 1),))
            res = harmonics.three_circles_ratio(top, 1.0, k)
            assert abs(res.ratio - res.bound) <= 1e-12 * res.bound


def test_09_grid_harmonicity():
    with _Budget("criterion-09 grid harmonicity", 30.0):
        resolutions = [32, 64, 128]
        for L in (math.pi, TWO_PI):
            for j in range(1, 6):
                alpha = TWO_PI * j / L
                order, _ = gridcheck.convergence_order(
                    (alpha, j, 1.0), L, (0.5, 1.5), resolutions)
                assert 1.8 <= order <= 2.2
        for m in resolutions:
            bad = gridcheck.sample_function(
                lambda r, t: r ** 2 + 0.0 * t, TWO_PI, 0.5, 1.5, m, m)
            res_max, _ = gridcheck.laplacian_residual(bad)
            assert res_max >= 0.1


def test_10_collapsed_reduction():
    with _Budget("criterion-10 collapsed reduction", 1.0):
        rng = np.random.default_rng(10)
        for _ in range(100):
            L = float(rng.uniform(0.2, TWO_PI))
            k = float(rng.uniform(0.05, 30.0))
            X = Circle(L)
            rep = collapsed_bounds(X, 2, 2, k)
            hk = hk_bounds(X, 2, k)
            assert (rep.lower, rep.upper) == (hk.lower, hk.upper)
        rep = collapsed_bounds(Circle(math.pi), 3, 2, 1.0)
        assert rep.limit_ratio == 1.0
