import math

import numpy as np
import pytest

from coneh import (Circle, ExplicitSpectrum, InvalidArgument,
                   NumericFailure, RoundSphere, growth,
                   asymptotic_ratio, ball_volume, cesaro_limit,
                   collapsed_bounds, empirical_ratio_convergence, euclidean_hk,
                   eigenvalue_from_exponent, exponent_from_eigenvalue,
                   hk_bounds, hk_staircase, weyl_ratio)

from .oracles import (harmonic_poly_dim_binomial, harmonic_poly_dim_brute,
                      unit_ball_volume)

TWO_PI = 2.0 * math.pi


class TestExponentMap:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 5, 11):
            for a in rng.uniform(0.0, 50.0, 100):
                lam = eigenvalue_from_exponent(a, n)
                back = exponent_from_eigenvalue(lam, n)
                assert back == pytest.approx(a, abs=1e-12, rel=1e-12)

    def test_known_values(self):
        assert exponent_from_eigenvalue(0.0, 5) == 0.0
        assert exponent_from_eigenvalue(4.0, 2) == 2.0
        assert exponent_from_eigenvalue(2.0, 3) == 1.0

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InvalidArgument):
            exponent_from_eigenvalue(-1.0, 2)


class TestEuclideanHk:
    def test_small_exact(self):
        # classical values in the plane: h_k = 2k + 1
        for k in range(0, 10):
            assert euclidean_hk(2, k) == 2 * k + 1
        # and in R^3: h_k = (k + 1)^2
        for k in range(0, 10):
            assert euclidean_hk(3, k) == (k + 1) ** 2

    def test_matches_laplacian_kernel_rank(self):
        for n in range(2, 5):
            for k in range(0, 8):
                assert euclidean_hk(n, k) == harmonic_poly_dim_brute(n, k)

    def test_matches_binomial_form(self):
        for n in range(2, 9):
            for k in range(0, 30):
                assert euclidean_hk(n, k) == harmonic_poly_dim_binomial(n, k)


class TestBallVolume:
    def test_values(self):
        assert ball_volume(1) == pytest.approx(2.0, rel=1e-15)
        assert ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
        assert ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)
        assert ball_volume(4) == pytest.approx(math.pi ** 2 / 2.0, rel=1e-14)

    @pytest.mark.parametrize("n", [5, 170, 341, 342, 400, 430])
    def test_past_the_gamma_range(self, n):
        # math.gamma overflows past n = 341; the volume is about 1e-276 at 400
        assert ball_volume(n) == pytest.approx(unit_ball_volume(n), rel=1e-12)

    def test_below_the_float_range(self):
        with pytest.raises(NumericFailure, match="unit 1000-ball"):
            ball_volume(1000)


class TestFloatRange:
    def test_tiny_order_ratios(self):
        # no growth order below k: the Cesaro sum is 0, however large k^-n
        (row,) = empirical_ratio_convergence(RoundSphere(3), 4, [1e-300])
        assert row.cesaro_ratio == 0.0
        assert math.isfinite(row.pointwise_ratio)
        with pytest.raises(NumericFailure, match="pointwise ratio"):
            empirical_ratio_convergence(RoundSphere(40), 41, [1e-300])

    def test_high_dimensional_sphere(self):
        X = RoundSphere(400)
        for k in range(4):
            assert hk_bounds(X, 401, k + 0.5).upper == euclidean_hk(401, k)
        # 400! and (2 pi)^400 are past the float range, the limits below it
        with pytest.raises(NumericFailure, match="Weyl limit"):
            weyl_ratio(X, 401, 10.0)
        with pytest.raises(NumericFailure, match="pointwise limit"):
            asymptotic_ratio(X, 401)
        # where only a factor leaves the float range, the value is kept
        X = ExplicitSpectrum(200, [0.0], [1], 1.0, 1e300)
        want = math.exp(math.log(1e300 / 100) - math.lgamma(200)
                        - math.log(unit_ball_volume(200)))
        assert asymptotic_ratio(X, 200) == pytest.approx(want, rel=1e-12)


class TestHkBounds:
    def test_sphere_integer_orders_exact(self):
        X = RoundSphere(2)
        for k in (1, 2, 5):
            rep = hk_bounds(X, 3, k)
            assert rep.resonant
            assert rep.upper == euclidean_hk(3, k)
            assert rep.lower == euclidean_hk(3, k - 1)
            assert rep.exact is None

    def test_sphere_nonresonant_exact(self):
        rep = hk_bounds(RoundSphere(2), 3, 2.5)
        assert not rep.resonant
        assert rep.exact == rep.upper == rep.lower == euclidean_hk(3, 2)

    def test_slit_cone_fractional_jump(self):
        # half circle: resonances at even integers only
        X = Circle(math.pi)
        rep = hk_bounds(X, 2, 3.0)
        assert not rep.resonant
        assert rep.exact == 3  # constants + the cos/sin pair at exponent 2

    def test_liouville_regime(self):
        X = Circle(math.pi)  # lambda_1 = 4, so k < 2 is Liouville
        for k in (0.3, 1.0, 1.9):
            rep = hk_bounds(X, 2, k)
            assert rep.lower == rep.upper == 1
            if not rep.resonant:
                assert rep.exact == 1

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(InvalidArgument, match="ambient"):
            hk_bounds(RoundSphere(2), 4, 1.0)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(InvalidArgument):
            hk_bounds(Circle(math.pi), 2, 0.0)

    def test_lower_never_exceeds_upper_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            L = float(rng.uniform(0.2, TWO_PI))
            k = float(rng.uniform(1e-3, 40.0))
            rep = hk_bounds(Circle(L), 2, k)
            assert 1 <= rep.lower <= rep.upper

    @pytest.mark.parametrize("p,q,k", [(1, 1, 13.0), (1, 2, 26.0),
                                       (1, 3, 15.0), (2, 3, 27.0)])
    def test_circle_resonance_survives_rounding(self, p, q, k):
        # 2*pi*j/L rounds a few ulps above the resonant order k = j*q/p
        rep = hk_bounds(Circle(2 * math.pi * p / q), 2, k)
        upper = 1 + 2 * int(k * p / q)
        assert rep.resonant and rep.exact is None
        assert (rep.lower, rep.upper) == (upper - 2, upper)


class TestStaircase:
    def test_full_circle(self):
        steps = hk_staircase(Circle(TWO_PI), 2, 3.5)
        assert [(s.k_lo, s.k_hi, s.h, s.jump) for s in steps] == [
            (0.0, 1.0, 1, 0), (1.0, 2.0, 3, 2),
            (2.0, 3.0, 5, 2), (3.0, 3.5, 7, 2)]

    def test_steps_tile_the_interval(self):
        steps = hk_staircase(RoundSphere(3), 4, 6.0)
        assert steps[0].k_lo == 0.0 and steps[-1].k_hi == 6.0
        for a, b in zip(steps, steps[1:]):
            assert a.k_hi == b.k_lo
            assert b.h == a.h + b.jump

    def test_jumps_on_a_third_circle_are_pairs(self):
        # resonances 3j, where beta*beta rounds below (2*pi*j/L)^2 at j = 5
        steps = hk_staircase(Circle(2.0943951023931953), 2, 20.0)
        assert len(steps) == 7 and steps[0].jump == 0
        assert [s.jump for s in steps[1:]] == [2] * 6
        assert [s.h for s in steps] == [1, 3, 5, 7, 9, 11, 13]

    def test_jumps_equal_multiplicities_of_explicit_spectrum(self):
        rng = np.random.default_rng(12)
        mults = rng.integers(1, 4, 200)
        lams = np.cumsum(rng.uniform(0.1, 5.0, 200))
        X = ExplicitSpectrum(2, [0.0, *lams.tolist()], [1, *mults.tolist()],
                             float(lams[-1]) + 100.0, 5.0)
        k_max = math.sqrt(float(lams[-1])) + 0.1
        steps = hk_staircase(X, 2, k_max)
        assert [s.jump for s in steps[1:]] == mults.tolist()

    def test_step_values_match_hk_bounds(self):
        X = Circle(1.7)
        for s in hk_staircase(X, 2, 12.0):
            mid = 0.5 * (s.k_lo + s.k_hi)
            assert hk_bounds(X, 2, mid).upper == s.h


class TestAsymptotics:
    def test_circle_pointwise_limit(self):
        # alpha = L/2 in the plane, so the limit is L/pi
        for L in (math.pi / 2, math.pi, TWO_PI):
            assert asymptotic_ratio(Circle(L), 2) == pytest.approx(
                L / math.pi, rel=1e-14)

    def test_sphere_limits_are_euclidean(self):
        # the cone over the round unit sphere is flat R^n
        for n in range(2, 7):
            assert asymptotic_ratio(RoundSphere(n - 1), n) == pytest.approx(
                2.0 / math.factorial(n - 1), rel=1e-13)
            assert cesaro_limit(RoundSphere(n - 1), n) == pytest.approx(
                2.0 / math.factorial(n), rel=1e-13)

    def test_pointwise_ratio_converges(self):
        X = Circle(TWO_PI)
        rows = empirical_ratio_convergence(X, 2, [10.3, 100.3, 1000.3])
        devs = [r.pointwise_deviation for r in rows]
        assert devs[0] > devs[1] > devs[2]
        assert devs[-1] < 1e-3

    def test_cesaro_ratio_converges(self):
        rows = empirical_ratio_convergence(RoundSphere(2), 3, [20, 200])
        assert rows[-1].cesaro_deviation < rows[0].cesaro_deviation + 1e-12
        assert rows[-1].cesaro_deviation <= 0.01 * cesaro_limit(RoundSphere(2), 3)

    def test_cesaro_orders_past_the_ceiling(self, monkeypatch):
        monkeypatch.setattr(growth, "_MAX_CESARO_ORDERS", 10)
        X = Circle(TWO_PI)
        assert len(empirical_ratio_convergence(X, 2, [10.5])) == 1
        with pytest.raises(NumericFailure, match="needs 11 orders, past 10"):
            empirical_ratio_convergence(X, 2, [11.0])

    def test_resonant_k_is_perturbed_not_rejected(self):
        rows = empirical_ratio_convergence(Circle(TWO_PI), 2, [5.0])
        # the +tol perturbation keeps the sample above the jump
        assert rows[0].pointwise_ratio * 5.0 == pytest.approx(11.0, rel=1e-8)


class TestWeyl:
    def test_sphere_ratio_near_one(self):
        for lam in (1e4, 5e4):
            r = weyl_ratio(RoundSphere(2), 3, lam)
            assert r.limit == pytest.approx(1.0, rel=1e-13)
            assert abs(r.ratio - 1.0) < 0.03

    def test_circle_ratio(self):
        r = weyl_ratio(Circle(math.pi), 2, 1e6)
        assert r.limit == pytest.approx(1.0, rel=1e-14)
        assert r.deviation < 0.01

    def test_deviation_definition(self):
        r = weyl_ratio(Circle(TWO_PI), 2, 100.0)
        assert r.deviation == pytest.approx(
            abs(r.ratio - r.limit) / r.limit, rel=1e-15)


class TestCollapsed:
    def test_reduces_to_plain_bounds_at_m_equals_n(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            L = float(rng.uniform(0.2, TWO_PI))
            k = float(rng.uniform(0.1, 25.0))
            rep = collapsed_bounds(Circle(L), 2, 2, k)
            hk = hk_bounds(Circle(L), 2, k)
            assert (rep.lower, rep.upper) == (hk.lower, hk.upper)

    def test_limit_ratio_half_plane(self):
        # 2-dimensional cone over Circle(pi) inside a 3-dimensional manifold
        rep = collapsed_bounds(Circle(math.pi), 3, 2, 1.5)
        assert rep.limit_ratio == 1.0

    def test_upper_shift_widens_with_n(self):
        X = Circle(TWO_PI)
        k = 2.5
        plain = collapsed_bounds(X, 2, 2, k).upper
        shifted = collapsed_bounds(X, 5, 2, k).upper
        assert shifted >= plain

    def test_rejects_bad_m(self):
        with pytest.raises(InvalidArgument):
            collapsed_bounds(Circle(math.pi), 3, 4, 1.0)
        with pytest.raises(InvalidArgument):
            collapsed_bounds(Circle(math.pi), 3, 1, 1.0)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(InvalidArgument, match="ambient"):
            collapsed_bounds(RoundSphere(2), 4, 2, 1.0)


class TestExplicitSpectrumGrowth:
    def test_bounds_from_supplied_spectrum(self):
        X = ExplicitSpectrum(2, [0.0, 3.0, 7.0], [1, 2, 1], 50.0, 5.0)
        rep = hk_bounds(X, 2, 2.0)  # lambda = 4, between the stored 3 and 7
        assert rep.upper == 3 and rep.lower == 3 and rep.exact == 3

    def test_resonance_from_supplied_spectrum(self):
        X = ExplicitSpectrum(2, [0.0, 4.0], [1, 2], 50.0, 5.0)
        rep = hk_bounds(X, 2, 2.0)
        assert rep.resonant and rep.upper == 3 and rep.lower == 1
