import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coneh import (ConeHarmonic, InvalidArgument, Mode, NumericFailure,
                   circle_mode)
from coneh import gridcheck, harmonics

from . import oracles

TWO_PI = 2.0 * math.pi
TINY = np.finfo(float).tiny  # the smallest normal float


def harmonic_pair(L=TWO_PI):
    return ConeHarmonic(2, (circle_mode(L, 1, "cos", 1.0),
                            circle_mode(L, 2, "sin", 0.5)))


def rounding_bound(u_max, L, r_min, r_max, m):
    """B = eps max|u| (4 / dr^2 + 1 / (dr r_min) + 4 / (dt r_min)^2): the
    rounding of the m x m stencil, in long double so no term overflows."""
    dr = np.longdouble(r_max - r_min) / (m - 1)
    dt, r_min = np.longdouble(L) / m, np.longdouble(r_min)
    return (np.finfo(float).eps * np.longdouble(u_max)
            * (4 / dr ** 2 + 1 / (dr * r_min) + 4 / (dt * r_min) ** 2))


def long_double_stencil(alpha, j, c, L, r_min, r_max, m):
    """(max |c (a (x) g + b (x) h)|, max |c f (x) g|) over the interior of
    the m x m grid, with f = r^alpha, a, b and h of the factored check
    evaluated in long double on the grid's float nodes and row g."""
    ld = np.longdouble
    r = np.linspace(r_min, r_max, m).astype(ld)
    f = r ** ld(alpha)
    dr, dt = ld((r_max - r_min) / (m - 1)), ld(L / m)
    a = ((f[2:] - 2 * f[1:-1]) + f[:-2]) / dr ** 2 \
        + (f[2:] - f[:-2]) / (2 * dr) / r[1:-1]
    b = f[1:-1] / r[1:-1] ** 2
    # the cos row at the integer phases (j k mod m) / m, in long double
    g = np.sqrt(2 / ld(L)) * np.cos(
        2 * np.pi * ld(j * np.arange(m) % m) / m)
    h = ((np.roll(g, -1) - 2 * g) + np.roll(g, 1)) / dt ** 2
    res = np.abs(ld(c) * (np.outer(a, g) + np.outer(b, h))).max()
    return res, np.abs(ld(c) * np.outer(f, g)).max()


class TestConeGrid:
    def test_node_layout(self):
        grid = gridcheck.sample_function(lambda r, t: r + 0.0 * t,
                                         TWO_PI, 0.5, 1.5, 5, 8)
        assert grid.r_nodes[0] == 0.5 and grid.r_nodes[-1] == 1.5
        assert grid.theta_nodes[0] == 0.0
        assert grid.theta_nodes[-1] == pytest.approx(TWO_PI * 7 / 8)
        assert grid.values.shape == (5, 8)

    def test_rejects_tip(self):
        with pytest.raises(InvalidArgument):
            gridcheck.ConeGrid(TWO_PI, 0.0, 1.0, np.zeros((4, 4)))

    @pytest.mark.parametrize("L, r_min, r_max", [
        (-1.0, 0.5, 1.5), (0.0, 0.5, 1.5), (math.inf, 0.5, 1.5),
        (math.nan, 0.5, 1.5), (TWO_PI, 0.5, math.inf),
        (TWO_PI, math.nan, 1.5), (TWO_PI, 1.5, 0.5)])
    def test_rejects_bad_circle_or_window(self, L, r_min, r_max):
        with pytest.raises(InvalidArgument):
            gridcheck.ConeGrid(L, r_min, r_max, np.zeros((4, 4)))

    def test_sample_matches_pointwise_evaluation(self):
        u = harmonic_pair()
        grid = gridcheck.sample_harmonic(u, TWO_PI, 0.5, 1.5, 7, 9)
        for i, r in enumerate(grid.r_nodes):
            for j, t in enumerate(grid.theta_nodes):
                assert grid.values[i, j] == pytest.approx(
                    harmonics.circle_mode_sum(u, TWO_PI, t, r),
                    rel=1e-13, abs=1e-13)


class TestLaplacianResidual:
    def test_harmonic_has_small_residual(self):
        grid = gridcheck.sample_harmonic(harmonic_pair(), TWO_PI,
                                         0.5, 1.5, 128, 128)
        res_max, res_rms = gridcheck.laplacian_residual(grid)
        assert res_rms <= res_max < 1e-2

    def test_negative_control_r_squared(self):
        # Laplacian of r^2 on the cone is 4, nowhere small; both centered
        # differences of r^2 are exact, so both norms are 4 to rounding
        for m in (32, 64, 128):
            grid = gridcheck.sample_function(lambda r, t: r ** 2 + 0.0 * t,
                                             TWO_PI, 0.5, 1.5, m, m)
            res_max, res_rms = gridcheck.laplacian_residual(grid)
            assert res_max == pytest.approx(4.0, rel=1e-9)
            assert res_rms == pytest.approx(4.0, rel=1e-9)

    def test_negative_control_wrong_exponent(self):
        # r^(alpha') phi_j with alpha' != 2 pi j / L is not harmonic
        u = ConeHarmonic(2, (circle_mode(TWO_PI, 2, "cos", 1.0)
                             ._replace(alpha=1.5),))
        grid = gridcheck.sample_harmonic(u, TWO_PI, 0.5, 1.5, 64, 64)
        res_max, _ = gridcheck.laplacian_residual(grid)
        assert res_max > 0.1

    def test_slit_cone_modes(self):
        # fractional exponents on the short circle are still harmonic
        L = math.pi
        u = ConeHarmonic(2, (circle_mode(L, 1, "cos", 1.0),))
        grid = gridcheck.sample_harmonic(u, L, 0.5, 1.5, 128, 128)
        res_max, _ = gridcheck.laplacian_residual(grid)
        assert res_max < 1e-2


class TestFactoredCheck:
    @pytest.mark.filterwarnings("ignore::UserWarning")
    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.05, 20.0), st.integers(1, 6),
           st.floats(0.1, 5.0), st.booleans(), st.floats(0.1, 20.0),
           st.floats(1e-3, 2.0), st.floats(1e-3, 5.0), st.integers(3, 40))
    def test_factored_check_matches_sampled_grid(self, alpha, j, c, flip, L,
                                                 r_min, width, m0):
        c = -c if flip else c
        window, resolutions = (r_min, r_min + width), [m0, 2 * m0, 4 * m0]
        u = ConeHarmonic(2, (Mode(alpha, c, 2 * j - 1),))
        grids = [gridcheck.sample_harmonic(u, L, *window, m, m)
                 for m in resolutions]
        want = [gridcheck.laplacian_residual(g)[0] for g in grids]
        bounds = [rounding_bound(np.abs(g.values).max(), L, *window, m)
                  for g, m in zip(grids, resolutions)]
        _, got = gridcheck.convergence_order((alpha, j, c), L, window,
                                             resolutions)
        for g, w, bound in zip(got, want, bounds):
            assert abs(g - w) <= 4.0 * bound

    @pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                        reason="long double is double on this platform")
    @pytest.mark.filterwarnings("ignore::UserWarning")
    # r^alpha past the long double range, where the check must fail too
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.05, 20.0), st.integers(1, 6),
           st.floats(0.1, 5.0), st.floats(0.1, 20.0), st.floats(1e-3, 2.0),
           st.floats(1e-3, 5.0), st.integers(3, 40), st.integers(-300, 300))
    def test_factored_check_matches_long_double_stencil(
            self, alpha, j, c, L, r_min, width, m0, exp10):
        # windows from 1e-300 to 1e300: the check runs on a rescaled window,
        # and its reported residuals must be the stencil's on this one
        window = (r_min * 10.0 ** exp10, (r_min + width) * 10.0 ** exp10)
        resolutions = [m0, 2 * m0, 4 * m0]
        stencils = [long_double_stencil(alpha, j, c, L, *window, m)
                    for m in resolutions]
        if not all(math.isfinite(float(want)) for want, _ in stencils):
            with pytest.raises(NumericFailure, match="not finite"):
                gridcheck.convergence_order((alpha, j, c), L, window,
                                            resolutions)
            return
        _, got = gridcheck.convergence_order((alpha, j, c), L, window,
                                             resolutions)
        for g, m, (want, u_max) in zip(got, resolutions, stencils):
            if want < TINY:  # below the normal range: it underflows too
                assert g < TINY
                continue
            bound = rounding_bound(u_max, L, *window, m)
            assert abs(np.longdouble(g) - want) <= 4 * bound

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(3, 64), st.floats(0.05, 20.0),
           st.floats(0.1, 20.0), st.floats(1e-3, 2.0), st.floats(1e-3, 5.0))
    def test_column_residual_matches_table_oracle(self, data, m, alpha, L,
                                                  r_min, width):
        # any j up to 3m, rows constant (j = 0 mod m) and alternating
        # (2j = m) among them
        j = data.draw(st.one_of(st.integers(1, 3 * m), st.sampled_from(
            [m, 2 * m, 3 * m] + [m // 2] * (m % 2 == 0))))
        window = (r_min, r_min + width)
        got = gridcheck._factored_residual(alpha, 2 * j - 1, L, *window, m)
        want = oracles.factored_table_max(alpha, 2 * j - 1, L, *window, m)
        u_max = np.abs(np.linspace(*window, m) ** alpha).max() \
            * math.sqrt(2.0 / L)
        assert abs(got - want) <= rounding_bound(u_max, L, *window, m)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("m0", [3, 4, 64])
    @pytest.mark.parametrize("j", [1, 2, 5])
    def test_mode_numbers_a_period_apart_give_equal_residuals(self, m0, j):
        # a shift by a multiple of every resolution leaves each sampled
        # phase (j k mod m) / m, and so each residual, bitwise the same
        resolutions = [m0, 2 * m0, 4 * m0]
        want = gridcheck.convergence_order((1.5, j, 0.7), 2.5, (0.3, 1.7),
                                           resolutions)
        for shift in (4 * m0, 4 * m0 * 2 ** 40):
            got = gridcheck.convergence_order((1.5, j + shift, 0.7), 2.5,
                                              (0.3, 1.7), resolutions)
            assert [x.hex() for x in got[1]] == [x.hex() for x in want[1]]
            assert got[0] == want[0]

    def test_convergence_order_holds_no_grid(self):
        tracemalloc.start()
        try:
            gridcheck.convergence_order((1.0, 1, 1.0), TWO_PI, (0.5, 1.5),
                                        [128, 256, 512, 1024])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 10 ** 6  # the m = 1024 grid alone is 8 MiB


class TestConvergenceOrder:
    def test_second_order_for_harmonic_mode(self):
        order, residuals = gridcheck.convergence_order(
            (1.0, 1, 1.0), TWO_PI, (0.5, 1.5), [32, 64, 128])
        assert 1.8 <= order <= 2.2
        assert residuals[0] > residuals[1] > residuals[2]

    def test_rejects_non_doubling_resolutions(self):
        with pytest.raises(InvalidArgument):
            gridcheck.convergence_order((1.0, 1, 1.0), TWO_PI,
                                        (0.5, 1.5), [32, 48, 64])

    def test_rejects_too_few_resolutions(self):
        with pytest.raises(InvalidArgument):
            gridcheck.convergence_order((1.0, 1, 1.0), TWO_PI,
                                        (0.5, 1.5), [32, 64])

    @pytest.mark.parametrize("mode, L, window, resolutions, match", [
        ((1.0, 1, 1.0), -1.0, (0.5, 1.5), [32, 64, 128], "length"),
        ((1.0, 1, 1.0), math.inf, (0.5, 1.5), [32, 64, 128], "length"),
        ((1.0, 1, 1.0), TWO_PI, (0.5, math.inf), [32, 64, 128], "r_max"),
        ((1.0, 1, 0.0), TWO_PI, (0.5, 1.5), [32, 64, 128], "nonzero"),
        ((1.0, 1.5, 1.0), TWO_PI, (0.5, 1.5), [32, 64, 128], "integer"),
        ((1.0, 0, 1.0), TWO_PI, (0.5, 1.5), [32, 64, 128], "integer"),
        ((1.0, 1, 1.0), TWO_PI, (0.5, 1.5), [-1, -2, -4], "at least 3"),
    ])
    def test_rejects_invalid_input(self, mode, L, window, resolutions, match):
        with pytest.raises(InvalidArgument, match=match):
            gridcheck.convergence_order(mode, L, window, resolutions)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_residuals_are_a_numeric_failure(self):
        # r^1e308 overflows on the window: every residual is NaN
        with pytest.raises(NumericFailure, match="not finite"):
            gridcheck.convergence_order((1e308, 1, 1.0), TWO_PI, (0.5, 1.5),
                                        [32, 64, 128])


    def test_grid_ceiling(self, monkeypatch):
        monkeypatch.setattr(gridcheck, "_MAX_POINTS", 64 ** 2)
        mode, window = (1.0, 1, 1.0), (0.5, 1.5)
        order, _ = gridcheck.convergence_order(mode, TWO_PI, window,
                                               [16, 32, 64])
        assert 1.8 <= order <= 2.2
        with pytest.raises(NumericFailure, match="16384 points, past 4096"):
            gridcheck.convergence_order(mode, TWO_PI, window, [32, 64, 128])


class TestGridJ:
    def test_matches_closed_form(self):
        u = harmonic_pair()
        grid = gridcheck.sample_harmonic(u, TWO_PI, 0.005, 1.1, 2048, 256)
        got = gridcheck.grid_J(grid, 1.0)
        assert got == pytest.approx(harmonics.J(u, 1.0), rel=1e-4)

    def test_single_mode_reference_value(self):
        # one unit mode at alpha = 1: J(1) = 1 / (2 * 1 + 2) = 1/4
        u = ConeHarmonic(2, (circle_mode(TWO_PI, 1, "cos", 1.0),))
        grid = gridcheck.sample_harmonic(u, TWO_PI, 0.005, 1.1, 2048, 128)
        assert gridcheck.grid_J(grid, 1.0) == pytest.approx(0.25, rel=1e-3)

    def test_partial_cell_interpolation(self):
        u = ConeHarmonic(2, (circle_mode(TWO_PI, 1, "cos", 1.0),))
        grid = gridcheck.sample_harmonic(u, TWO_PI, 0.005, 1.3, 2048, 128)
        # s strictly between radial nodes
        s = 0.9871
        assert gridcheck.grid_J(grid, s) == pytest.approx(
            harmonics.J(u, s), rel=1e-3)

    def test_rejects_uncontrolled_tip_truncation(self):
        grid = gridcheck.sample_function(lambda r, t: r + 0.0 * t,
                                         TWO_PI, 0.5, 1.5, 16, 16)
        with pytest.raises(InvalidArgument, match="r_min"):
            gridcheck.grid_J(grid, 1.0)

    def test_rejects_s_outside_window(self):
        grid = gridcheck.sample_function(lambda r, t: r + 0.0 * t,
                                         TWO_PI, 0.005, 1.0, 16, 16)
        with pytest.raises(InvalidArgument, match="window"):
            gridcheck.grid_J(grid, 2.0)

