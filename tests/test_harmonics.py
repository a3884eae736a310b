import math
import warnings

import numpy as np
import pytest

from coneh import (ConeHarmonic, DegenerateInput, InvalidArgument, Mode,
                   NumericFailure, PreconditionViolation, circle_mode,
                   cone_harmonic_from_json, frequency_identity_check,
                   sharp_growth_order, three_circles_ratio)
from coneh import harmonics
from coneh.harmonics import circle_mode_sum

from .oracles import harmonic_to_json, scaled_harmonic, simpson_fixed

TWO_PI = 2.0 * math.pi


def random_sum(rng, n=2, max_modes=8, alpha_max=10.0):
    nmodes = int(rng.integers(1, max_modes + 1))
    alphas = rng.uniform(0.05, alpha_max, nmodes)
    coeffs = rng.uniform(-10.0, 10.0, nmodes)
    coeffs[coeffs == 0.0] = 1.0
    return ConeHarmonic(n, tuple(
        Mode(float(a), float(c), i + 1)
        for i, (a, c) in enumerate(zip(alphas, coeffs))))


class TestConeHarmonicType:
    def test_modes_sorted_by_exponent(self):
        u = ConeHarmonic(2, (Mode(3.0, 1.0, 2), Mode(1.0, 2.0, 1)))
        assert [m.alpha for m in u.modes] == [1.0, 3.0]

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(InvalidArgument):
            ConeHarmonic(2, (Mode(0.0, 1.0, 1),))

    @pytest.mark.parametrize("alpha, c", [(math.nan, 1.0), (math.inf, 1.0),
                                          (1.0, math.inf), (1.0, math.nan)])
    def test_rejects_non_finite_mode(self, alpha, c):
        with pytest.raises(InvalidArgument, match="mode 1"):
            ConeHarmonic(2, (Mode(1.0, 1.0, 1), Mode(alpha, c, 2)))

    def test_rejects_bad_dimension(self):
        with pytest.raises(InvalidArgument):
            ConeHarmonic(1, (Mode(1.0, 1.0, 1),))

    def test_drop_constant(self):
        u = ConeHarmonic(2, (Mode(1.0, 1.0, 1),), constant_term=5.0)
        assert u.drop_constant().constant_term == 0.0

    def test_scaling(self):
        u = ConeHarmonic(2, (Mode(1.0, 2.0, 1),), constant_term=3.0)
        v = scaled_harmonic(u, 0.5)
        assert v.modes[0].c == 1.0 and v.constant_term == 1.5

    def test_json_round_trip(self):
        u = ConeHarmonic(3, (Mode(1.5, -2.0, 4), Mode(0.5, 1.0, 1)), 0.25)
        v = cone_harmonic_from_json(harmonic_to_json(u))
        assert v == u

    @pytest.mark.parametrize("doc, message", [
        ([2, []], "a harmonic document must be a JSON object"),
        ({"n": 2}, "missing required key 'modes'"),
        ({"modes": []}, "missing required key 'n'"),
        ({"n": 2.5, "modes": []}, "'n' must be an integer, got 2.5"),
        ({"n": "2", "modes": []}, "'n' must be an integer, got \"2\""),
        ({"n": 2, "modes": [], "constant": None},
         "'constant' must be a finite number, got null"),
        ({"n": 2, "modes": [{"alpha": 1.0, "c": 1.0, "mode_id": 1.5}]},
         "mode 0: 'mode_id' must be an integer, got 1.5"),
    ])
    def test_json_errors_name_source_and_field(self, doc, message):
        with pytest.raises(InvalidArgument) as exc:
            cone_harmonic_from_json(doc, source="u.json")
        assert str(exc.value) == f"u.json: {message}"


class TestClosedForms:
    # two modes: c = 1 at alpha = 1 and c = 1 at alpha = 2, evaluated at s = 1
    U2 = ConeHarmonic(2, (Mode(1.0, 1.0, 1), Mode(2.0, 1.0, 3)))

    def test_height(self):
        assert harmonics.I(self.U2, 1.0) == pytest.approx(2.0, rel=1e-15)
        assert harmonics.I(self.U2, 2.0) == pytest.approx(4.0 + 16.0, rel=1e-15)

    def test_dirichlet(self):
        assert harmonics.D(self.U2, 1.0) == pytest.approx(3.0, rel=1e-15)

    def test_frequency(self):
        assert harmonics.U(self.U2, 1.0) == pytest.approx(1.5, rel=1e-15)

    def test_ball_average(self):
        # 1/(2+2) + 1/(4+2) = 5/12
        assert harmonics.J(self.U2, 1.0) == pytest.approx(5.0 / 12.0, rel=1e-14)

    def test_single_mode_frequency_is_its_exponent(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            a = float(rng.uniform(0.1, 12.0))
            u = ConeHarmonic(2, (Mode(a, float(rng.uniform(0.5, 3)), 1),))
            s = float(rng.uniform(0.1, 10.0))
            assert harmonics.U(u, s) == pytest.approx(a, rel=1e-13)

    def test_J_matches_radial_quadrature(self):
        # J(s) should equal the integral of I(r) r^(n-1) over [0, s] / s^n
        rng = np.random.default_rng(2)
        for n in (2, 3, 5):
            u = random_sum(rng, n=n, alpha_max=5.0)
            s = float(rng.uniform(0.5, 2.0))
            quad = simpson_fixed(
                lambda r: (harmonics.I(u, r) if r > 0 else 0.0) * r ** (n - 1),
                0.0, s)
            assert harmonics.J(u, s) == pytest.approx(
                quad / s ** n, rel=1e-5)

    def test_frequency_monotone(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            u = random_sum(rng)
            grid = np.geomspace(1e-2, 1e2, 64)
            freqs = [harmonics.U(u, s) for s in grid]
            assert all(b >= a - 1e-10 for a, b in zip(freqs, freqs[1:]))

    def test_frequency_limits(self):
        u = ConeHarmonic(2, (Mode(1.0, 1.0, 1), Mode(4.0, 1.0, 3)))
        assert harmonics.U(u, 1e-8) == pytest.approx(1.0, abs=1e-12)
        assert harmonics.U(u, 1e8) == pytest.approx(4.0, abs=1e-12)

    def test_requires_tip_normalization(self):
        u = ConeHarmonic(2, (Mode(1.0, 1.0, 1),), constant_term=1.0)
        with pytest.raises(InvalidArgument, match="drop_constant"):
            harmonics.I(u, 1.0)
        assert harmonics.I(u.drop_constant(), 1.0) == 1.0

    def test_degenerate_all_zero(self):
        u = ConeHarmonic(2, (Mode(1.0, 0.0, 1),))
        with pytest.raises(DegenerateInput):
            harmonics.U(u, 1.0)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(InvalidArgument):
            harmonics.I(self.U2, 0.0)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -1.0,
                                   np.array([1.0, math.nan])])
    def test_rejects_non_finite_radius(self, s):
        for functional in (harmonics.I, harmonics.D, harmonics.U, harmonics.J):
            with pytest.raises(InvalidArgument, match="finite"):
                functional(self.U2, s)

    def test_radius_arrays_match_scalar_calls(self):
        rng = np.random.default_rng(9)
        grid = np.geomspace(1e-3, 1e3, 17)
        for _ in range(10):
            u = random_sum(rng)
            for functional in (harmonics.I, harmonics.D, harmonics.U,
                               harmonics.J):
                values = functional(u, grid)
                assert values.shape == grid.shape
                for s, v in zip(grid, values):
                    assert v == pytest.approx(functional(u, float(s)),
                                              rel=1e-14)

    def test_frequency_at_tiny_radius(self):
        # c^2 s^(2 alpha) underflows to 0 here, the log weights do not
        u = ConeHarmonic(2, (Mode(2.5, 3.0, 1),))
        assert harmonics.U(u, 1e-200) == 2.5
        v = ConeHarmonic(2, (Mode(1.0, 1.0, 1), Mode(4.0, 1e-170, 3)))
        assert harmonics.U(v, 1e-200) == pytest.approx(1.0, abs=1e-12)

    def test_log_weights_match_a_table_built_per_call(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            u = random_sum(rng, max_modes=40, alpha_max=30.0)
            u = scaled_harmonic(u, float(rng.uniform(0.5, 2.0)))
            s = 10.0 ** rng.uniform(-2.0, 2.0, int(rng.integers(1, 20)))
            alpha, c = np.array([m[:2] for m in u.active_modes]).T
            want = 2.0 * (np.log(np.abs(c)) + alpha * np.log(s)[..., None])
            got_alpha, got = harmonics._log_weights(u, s)
            assert got_alpha.tobytes() == alpha.tobytes()
            assert got.tobytes() == want.tobytes()

    def test_functionals_past_the_float_range(self):
        u = ConeHarmonic(2, (Mode(200.0, 1.0, 1), Mode(1.0, 1.0, 2)))
        assert harmonics.I(u, 10.0) == harmonics.D(u, 10.0) == math.inf
        assert harmonics.J(u, 10.0) == math.inf
        assert harmonics.U(u, 10.0) == pytest.approx(200.0, abs=1e-9)
        assert frequency_identity_check(u, 1.0, 10.0) <= 1e-8
        res = three_circles_ratio(u, 10.0, 200.0)
        assert math.isfinite(res.ratio) and res.satisfied

    # alpha * log s overflows for alpha = 1e308
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_log_weight_past_the_float_range(self):
        # alpha * log s passes the float maximum at s = 10: the top log
        # weight is inf, and every functional would be NaN
        u = ConeHarmonic(2, (Mode(1e308, 1.0, 1), Mode(1.0, 1.0, 2)))
        for functional in (harmonics.I, harmonics.D, harmonics.U, harmonics.J):
            with pytest.raises(NumericFailure, match="s = 10.0"):
                functional(u, 10.0)
            with pytest.raises(NumericFailure, match="s = 10.0"):
                functional(u, np.array([1.0, 10.0]))
        # at s = 0.1 that weight is -inf below a finite top: an exact zero
        assert harmonics.U(u, 0.1) == 1.0
        assert harmonics.I(u, 0.1) == pytest.approx(0.01, rel=1e-14)
        assert harmonics.J(u, 0.1) == pytest.approx(0.0025, rel=1e-14)
        # a row whose every weight is -inf has no finite top either
        lone = ConeHarmonic(2, (Mode(1e308, 1.0, 1),))
        with pytest.raises(NumericFailure, match="s = 0.1"):
            harmonics.U(lone, 0.1)


    def test_J_past_the_divisor_range(self):
        # 2 alpha + n overflows for alpha = 1e308 while every log weight is
        # finite: J = 1 / (2e308 + 2), and the doubling ratio 2^(2e308)
        u = ConeHarmonic(2, (Mode(1e308, 1.0, 1),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert harmonics.J(u, 1.0) == pytest.approx(5e-309, rel=1e-10,
                                                        abs=0)
            assert three_circles_ratio(u, 1.0, 1e308) == (math.inf, math.inf,
                                                          True)

    def test_J_divisor_is_bitwise_the_plain_one_where_finite(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            u = random_sum(rng, n=int(rng.integers(2, 7)), max_modes=40,
                           alpha_max=30.0)
            want = np.log(2.0 * u._alpha + u.n)
            assert u._log_div.tobytes() == want.tobytes()


class TestFrequencyIdentity:
    def test_single_mode_exact(self):
        u = ConeHarmonic(2, (Mode(2.5, 3.0, 1),))
        # log I(s) - log I(r) = 2 * 2.5 * log(s/r)
        assert frequency_identity_check(u, 0.5, 4.0) < 1e-10

    def test_random_sums(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            u = random_sum(rng)
            assert frequency_identity_check(u, 0.5, 8.0) <= 1e-8

    def test_rejects_bad_interval(self):
        u = ConeHarmonic(2, (Mode(1.0, 1.0, 1),))
        with pytest.raises(InvalidArgument):
            frequency_identity_check(u, 2.0, 1.0)
        for r, s in ((1.0, math.inf), (math.nan, 2.0), (1.0, math.nan)):
            with pytest.raises(InvalidArgument):
                frequency_identity_check(u, r, s)

    @pytest.mark.parametrize("spread", [20.0, 64.0, 200.0])
    def test_sharp_crossover(self, spread):
        # two modes whose weights cross at a random t in [r, s], s/r = 100:
        # U steps from 0.05 to 0.05 + spread over a width of about
        # 1/(2 spread) in log t, narrower than a panel of a fixed 16- or
        # 32-panel rule for the two larger spreads
        rng = np.random.default_rng(int(spread))
        r, s = 0.1, 10.0
        for _ in range(10):
            log_t = math.log(r) + rng.uniform(0.0, math.log(s / r))
            u = ConeHarmonic(2, (Mode(0.05, 1.0, 1),
                                 Mode(0.05 + spread,
                                      math.exp(-spread * log_t), 2)))
            assert frequency_identity_check(u, r, s) <= 1e-8

    def test_rule_past_the_ceiling(self):
        u = ConeHarmonic(2, (Mode(0.05, 1.0, 1), Mode(1e6, 1.0, 2)))
        panels = math.ceil((1e6 - 0.05) * math.log(1e3))
        with pytest.raises(NumericFailure, match=f"needs {panels} "):
            frequency_identity_check(u, 1.0, 1e3)


class TestThreeCircles:
    def test_random_capped_sums_satisfy_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            k = float(rng.uniform(0.5, 12.0))
            u = random_sum(rng, alpha_max=k)
            s = float(rng.uniform(0.1, 10.0))
            res = three_circles_ratio(u, s, k)
            assert res.satisfied
            assert res.ratio <= res.bound * (1.0 + 1e-12)

    def test_single_top_mode_saturates(self):
        for k in (1.0, 3.0, 7.5):
            u = ConeHarmonic(2, (Mode(k, 2.0, 1),))
            res = three_circles_ratio(u, 1.7, k)
            assert res.bound == pytest.approx(4.0 ** k, rel=1e-15)
            assert abs(res.ratio - res.bound) <= 1e-12 * res.bound

    def test_cap_violation_identifies_mode(self):
        u = ConeHarmonic(2, (Mode(1.0, 1.0, 1), Mode(5.0, 1.0, 9)))
        with pytest.raises(PreconditionViolation, match="mode_id = 9"):
            three_circles_ratio(u, 1.0, 3.0)

    @pytest.mark.parametrize("s, k", [(1.0, math.nan), (1.0, math.inf),
                                      (math.inf, 2.0), (math.nan, 2.0)])
    def test_rejects_non_finite_radius_or_order(self, s, k):
        u = ConeHarmonic(2, (Mode(1.0, 1.0, 1),))
        with pytest.raises(InvalidArgument, match="finite"):
            three_circles_ratio(u, s, k)

    def test_order_past_the_float_range(self):
        # 2^(2 cap) overflows past cap 512: the bound is reported as inf and
        # a single mode at the cap still saturates, in log space
        u = ConeHarmonic(2, (Mode(1.0, 1.0, 1),))
        assert three_circles_ratio(u, 1.0, 600.0) == (4.0, math.inf, True)
        top = ConeHarmonic(2, (Mode(600.0, 1.0, 1),))
        assert three_circles_ratio(top, 1.0, 600.0) == (math.inf, math.inf,
                                                          True)

    @pytest.mark.parametrize("k", [3.0, 600.0])
    def test_slack_is_the_same_in_both_ranges(self, k):
        # inside the cap's 1e-12 slack but 2 * cap * 5e-13 * log 2 above
        # the bound's own 1e-12 tolerance: refused with or without overflow
        u = ConeHarmonic(2, (Mode(k * (1.0 + 5e-13), 1.0, 1),))
        assert not three_circles_ratio(u, 1.0, k).satisfied
        # one ulp above the cap is within the tolerance
        u = ConeHarmonic(2, (Mode(math.nextafter(k, math.inf), 1.0, 1),))
        assert three_circles_ratio(u, 1.0, k).satisfied

    def test_cap_equals_k_in_all_dimensions(self):
        # the admissible exponent at eigenvalue k(k+n-2) is k itself
        for n in (2, 3, 6):
            u = ConeHarmonic(n, (Mode(2.0, 1.0, 1),))
            res = three_circles_ratio(u, 1.0, 2.0)
            assert res.bound == pytest.approx(16.0, rel=1e-14)


class TestSharpGrowthOrder:
    def test_gamma_is_top_active_exponent(self):
        u = ConeHarmonic(2, (Mode(1.0, 1.0, 1), Mode(3.0, 0.0, 5),
                             Mode(2.0, -1.0, 3)))
        gamma, report = sharp_growth_order(u)
        assert gamma == 2.0
        assert report["member_at_gamma"] and not report["member_below_gamma"]
        assert report["frequency_limit_zero"] == 1.0
        assert report["frequency_limit_infinity"] == 2.0

    def test_growth_witnessed_by_height(self):
        # well-separated exponents, so the top mode dominates the slope
        rng = np.random.default_rng(6)
        for _ in range(20):
            alphas = 0.2 * rng.choice(np.arange(1, 51), size=5, replace=False)
            u = ConeHarmonic(2, tuple(
                Mode(float(a), float(rng.uniform(0.5, 5.0)), i + 1)
                for i, a in enumerate(alphas)))
            gamma, _ = sharp_growth_order(u)
            slope = (math.log(harmonics.I(u, 1e14))
                     - math.log(harmonics.I(u, 1e12))) / (2.0 * math.log(100.0))
            assert slope == pytest.approx(gamma, abs=1e-3)

    def test_degenerate(self):
        with pytest.raises(DegenerateInput):
            sharp_growth_order(ConeHarmonic(2, (Mode(1.0, 0.0, 1),)))


class TestEvaluation:
    def test_circle_modes_are_arclength_orthonormal(self):
        L = math.pi
        theta = np.linspace(0.0, L, 4001)
        for mid_a in (1, 2, 3, 4):
            ua = ConeHarmonic(2, (Mode(2.0, 1.0, mid_a),))
            va = circle_mode_sum(ua, L, theta, 1.0)
            assert np.trapezoid(va * va, theta) == pytest.approx(1.0, abs=1e-3)
            for mid_b in range(1, mid_a):
                ub = ConeHarmonic(2, (Mode(2.0, 1.0, mid_b),))
                vb = circle_mode_sum(ub, L, theta, 1.0)
                assert abs(np.trapezoid(va * vb, theta)) < 1e-3

    def test_height_matches_arclength_integral(self):
        # I(s) should equal the integral of u^2 over the circle at radius s
        L = TWO_PI
        u = ConeHarmonic(2, (circle_mode(L, 1, "cos", 2.0),
                             circle_mode(L, 2, "sin", -1.5)))
        s = 1.3
        theta = np.linspace(0.0, L, 8001)
        vals = circle_mode_sum(u, L, theta, s)
        assert np.trapezoid(vals * vals, theta) == pytest.approx(
            harmonics.I(u, s), rel=1e-6)

    def test_tip_value_is_the_constant(self):
        u = ConeHarmonic(2, (Mode(1.0, 5.0, 1),), constant_term=2.5)
        assert circle_mode_sum(u, math.pi, 0.3, 0.0) == 2.5

    def test_circle_mode_exponents(self):
        m = circle_mode(math.pi, 3, "sin", 1.0)
        assert m.alpha == pytest.approx(6.0, rel=1e-15)
        assert m.mode_id == 6
        assert circle_mode(math.pi, 3, "cos", 1.0).mode_id == 5

    def test_rejects_bad_mode_arguments(self):
        with pytest.raises(InvalidArgument):
            circle_mode(math.pi, 0, "cos", 1.0)
        with pytest.raises(InvalidArgument):
            circle_mode(math.pi, 1, "tan", 1.0)
