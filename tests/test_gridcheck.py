import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coneh import (Circle, ConeHarmonic, InvalidArgument, Mode,
                   NumericFailure, circle_mode)
from coneh import gridcheck, harmonics

from . import oracles

TWO_PI = 2.0 * math.pi


def harmonic_pair(L=TWO_PI):
    return ConeHarmonic(2, (circle_mode(L, 1, "cos", 1.0),
                            circle_mode(L, 2, "sin", 0.5)))


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
        X = Circle(TWO_PI)
        for i, r in enumerate(grid.r_nodes):
            for j, t in enumerate(grid.theta_nodes):
                assert grid.values[i, j] == pytest.approx(
                    harmonics.evaluate(u, X, t, r), rel=1e-13, abs=1e-13)


class TestLaplacianResidual:
    def test_harmonic_has_small_residual(self):
        grid = gridcheck.sample_harmonic(harmonic_pair(), TWO_PI,
                                         0.5, 1.5, 128, 128)
        res_max, res_rms = gridcheck.laplacian_residual(grid)
        assert res_rms <= res_max < 1e-2

    def test_negative_control_r_squared(self):
        # Laplacian of r^2 on the cone is 4, nowhere small
        for m in (32, 64, 128):
            grid = gridcheck.sample_function(lambda r, t: r ** 2 + 0.0 * t,
                                             TWO_PI, 0.5, 1.5, m, m)
            res_max, _ = gridcheck.laplacian_residual(grid)
            assert res_max >= 0.1

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


# row-block sizes: one row per block, partial last blocks, a single block
BLOCKS = [lambda m_r, m_t: 7, lambda m_r, m_t: 64,
          lambda m_r, m_t: m_t - 1, lambda m_r, m_t: m_r * m_t]


class TestRowBlocks:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 300), st.integers(3, 300), st.integers(0, 2 ** 32),
           st.floats(0.1, 20.0), st.floats(1e-3, 2.0), st.floats(1e-3, 5.0))
    def test_residual_matches_full_grid_oracle(self, m_r, m_t, seed, L,
                                               r_min, width):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((m_r, m_t)) * 10.0 ** rng.uniform(-3, 3)
        grid = gridcheck.ConeGrid(L, r_min, r_min + width, values)
        want_max, want_rms = oracles.laplacian_residual(grid)
        for block in BLOCKS:
            with mock.patch.object(gridcheck, "_BLOCK", block(m_r, m_t)):
                got_max, got_rms = gridcheck.laplacian_residual(grid)
            assert got_max.hex() == want_max.hex()
            assert got_rms == pytest.approx(want_rms, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 300), st.integers(3, 300), st.integers(0, 2 ** 32),
           st.integers(0, 5))
    def test_sample_matches_generator_sum(self, m_r, m_t, seed, nmodes):
        rng = np.random.default_rng(seed)
        u = ConeHarmonic(2, tuple(
            Mode(float(rng.uniform(0.05, 20.0)),
                 float(rng.uniform(-5.0, 5.0)) * (i != 1),
                 int(rng.integers(0, 9))) for i in range(nmodes)),
            float(rng.uniform(-1.0, 1.0)))
        L, r_min = float(rng.uniform(0.1, 20.0)), float(rng.uniform(1e-3, 1.0))
        args = (u, L, r_min, r_min + float(rng.uniform(1e-3, 3.0)), m_r, m_t)
        want = oracles.sample_harmonic(*args).values
        for block in BLOCKS:
            with mock.patch.object(gridcheck, "_BLOCK", block(m_r, m_t)):
                got = gridcheck.sample_harmonic(*args).values
            assert got.tobytes() == want.tobytes()

    def test_residual_memory_is_one_row_block(self):
        u = ConeHarmonic(2, (circle_mode(TWO_PI, 1, "cos", 1.0),))
        grid = gridcheck.sample_harmonic(u, TWO_PI, 0.5, 1.5, 1024, 1024)
        tracemalloc.start()
        try:
            gridcheck.laplacian_residual(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20  # the grid itself is 8 MiB


    @pytest.mark.filterwarnings("ignore::UserWarning")
    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.05, 20.0), st.integers(1, 6),
           st.floats(0.1, 5.0), st.booleans(), st.floats(0.1, 20.0),
           st.floats(1e-3, 2.0), st.floats(1e-3, 5.0), st.integers(3, 40))
    def test_streamed_check_matches_sampled_grid(self, alpha, j, c, flip, L,
                                                 r_min, width, m0):
        c = -c if flip else c
        window, resolutions = (r_min, r_min + width), [m0, 2 * m0, 4 * m0]
        u = ConeHarmonic(2, (Mode(alpha, c, 2 * j - 1),))
        want = [gridcheck.laplacian_residual(
            gridcheck.sample_harmonic(u, L, *window, m, m))[0].hex()
            for m in resolutions]
        for block in BLOCKS:
            with mock.patch.object(gridcheck, "_BLOCK", block(2 * m0, 2 * m0)):
                _, got = gridcheck.convergence_order((alpha, j, c), L, window,
                                                     resolutions)
            assert [g.hex() for g in got] == want

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

