import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coneh import Circle, InvalidArgument, MetricCircleNumeric, RoundSphere
from coneh.eigensolver import (assemble, certified_spectrum, eigenvalues,
                               load_density)

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def half_circle_spectrum():
    """Certified spectrum of the constant circle of length pi, up to 17."""
    return certified_spectrum(MetricCircleNumeric.constant(math.pi), 17.0)


class TestMetricCircle:
    def test_total_length_constant(self):
        c = MetricCircleNumeric.constant(math.pi)
        assert c.length == pytest.approx(math.pi, rel=1e-15)

    def test_rejects_nonpositive_density(self):
        with pytest.raises(InvalidArgument):
            MetricCircleNumeric((1.0, 1.0, 0.0, 1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_density(self, bad):
        with pytest.raises(InvalidArgument, match="sample 2 must be finite"):
            MetricCircleNumeric((1.0, 1.0, bad, 1.0))

    def test_rejects_too_few_samples(self):
        with pytest.raises(InvalidArgument):
            MetricCircleNumeric((1.0, 1.0))

    def test_rejects_overlong(self):
        with pytest.raises(InvalidArgument, match="2\\*pi"):
            MetricCircleNumeric.constant(TWO_PI + 0.01)


class TestDiscreteOperator:
    def test_symmetric_with_zero_row_sums(self):
        c = MetricCircleNumeric.constant(math.pi)
        op = assemble(c, 32)
        A = op.dense()
        assert np.allclose(A, A.T)
        assert np.allclose(A.sum(axis=1), 0.0)
        # the uniform stencil of step L/m: -1/h^2 beside 2/h^2
        assert (op.size, op.step) == (32, c.length / 32)
        inv = 1.0 / (op.step * op.step)
        assert (np.diag(A) == 2.0 * inv).all()
        assert (np.diag(A, 1) == -inv).all() and A[0, -1] == A[-1, 0] == -inv
        assert np.count_nonzero(A) == 3 * 32

    def test_rejects_non_power_of_two(self):
        with pytest.raises(InvalidArgument, match="power of two"):
            assemble(MetricCircleNumeric.constant(math.pi), 48)

    def test_discrete_eigenvalues_match_sine_formula(self):
        m, L = 64, TWO_PI
        w = eigenvalues(assemble(MetricCircleNumeric.constant(L), m), m)
        h = L / m
        exact = sorted((2.0 / h ** 2) * (1.0 - math.cos(TWO_PI * j / m))
                       for j in range(m))
        assert w == pytest.approx(exact, rel=1e-10, abs=1e-9)

    def test_rejects_bad_count(self):
        op = assemble(MetricCircleNumeric.constant(math.pi), 16)
        with pytest.raises(InvalidArgument):
            eigenvalues(op, 17)
        with pytest.raises(InvalidArgument):
            eigenvalues(op, 0)


class TestCertifiedSpectrum:
    def test_half_circle_closed_form(self, half_circle_spectrum):
        spec, bars = half_circle_spectrum
        assert [m for _, m in spec.entries] == [1, 2, 2]
        for (lam, _), exact, bar in zip(spec.entries, [0.0, 4.0, 16.0], bars):
            assert abs(lam - exact) <= max(bar, 1e-12)
            assert bar <= 1e-6 * max(1.0, exact)

    def test_kernel_is_exact_zero(self, half_circle_spectrum):
        spec, _ = half_circle_spectrum
        assert spec.entries[0] == (0.0, 1)

    def test_full_circle_first_mode(self):
        spec, bars = certified_spectrum(MetricCircleNumeric.constant(TWO_PI), 1.5)
        assert [m for _, m in spec.entries] == [1, 2]
        assert spec.entries[1][0] == pytest.approx(1.0, abs=bars[1])

    def test_variable_density_depends_only_on_length(self):
        # a 1D circle is isometric to the round circle of its length
        theta = np.linspace(0, TWO_PI, 64, endpoint=False)
        bumpy = 0.2 + 0.05 * np.sin(theta) + 0.02 * np.cos(3 * theta)
        c = MetricCircleNumeric(bumpy)
        L = c.length
        lam1 = (TWO_PI / L) ** 2
        spec, bars = certified_spectrum(c, 1.2 * lam1)
        assert [m for _, m in spec.entries] == [1, 2]
        assert spec.entries[1][0] == pytest.approx(
            lam1, abs=max(bars[1], 1e-6 * lam1))

    def test_full_circle_third_mode(self):
        spec, bars = certified_spectrum(MetricCircleNumeric.constant(TWO_PI), 9.5)
        assert [m for _, m in spec.entries] == [1, 2, 2, 2]
        for (lam, _), exact, bar in zip(spec.entries, [0.0, 1.0, 4.0, 9.0],
                                        bars):
            assert abs(lam - exact) <= bar <= 1e-6 * max(1.0, exact)

    def test_performs_no_eigensolve(self, monkeypatch):
        import coneh.eigensolver as es

        def forbidden(*args):
            raise AssertionError("certified_spectrum ran the discretization")
        monkeypatch.setattr(es, "assemble", forbidden)
        monkeypatch.setattr(es, "eigenvalues", forbidden)
        spec, bars = certified_spectrum(MetricCircleNumeric.constant(TWO_PI), 1e4)
        assert len(spec.entries) == len(bars) == 101

    def test_rejects_nonpositive_lambda_max(self):
        with pytest.raises(InvalidArgument):
            certified_spectrum(MetricCircleNumeric.constant(math.pi), -1.0)

    @pytest.mark.parametrize("X", [RoundSphere(2), Circle(math.pi),
                                   Circle(TWO_PI).spectrum_upto(50.0)])
    def test_closed_forms_and_tables_carry_no_bars(self, X):
        spec, bars = certified_spectrum(X, 20.0)
        assert bars is None
        assert spec.entries == X.spectrum_upto(20.0).entries


@st.composite
def densities(draw):
    """Positive densities of total length <= 2*pi, with a spectral range
    holding one to four nonzero modes."""
    n = draw(st.integers(4, 64))
    dens = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    modes = draw(st.integers(1, 4))
    return dens, modes


class TestClosedFormProperties:
    @settings(max_examples=25, deadline=None)
    @given(densities())
    def test_bars_bound_exact_spectrum_and_match_oracle(self, case):
        dens, modes = case
        c = MetricCircleNumeric(dens)
        x = Fraction(math.fsum(dens)) / len(dens)  # L / (2*pi), exactly
        lam_max = float((modes + Fraction(1, 2)) ** 2 / x ** 2)
        spec, bars = certified_spectrum(c, lam_max)
        assert len(bars) == len(spec.entries) == modes + 1
        assert spec.entries[0] == (0.0, 1) and bars[0] == 0.0
        for j, ((lam, mult), bar) in enumerate(zip(spec.entries, bars)):
            assert mult == (1 if j == 0 else 2)
            assert abs(Fraction(lam) - Fraction(j) ** 2 / x ** 2) <= bar
            assert bar <= 1e-6 * max(1.0, lam)
        # the discretization oracle: two-level Richardson at m = 256 / 512
        # agrees within its O(h^2) difference
        count = 2 * modes + 1
        coarse = eigenvalues(assemble(c, 256), count)
        fine = eigenvalues(assemble(c, 512), count)
        for j, (lam, _) in enumerate(spec.entries[1:], start=1):
            for idx in (2 * j - 1, 2 * j):
                diff = fine[idx] - coarse[idx]
                assert abs(fine[idx] + diff / 3.0 - lam) <= abs(diff)


@pytest.fixture(scope="module")
def X():
    return MetricCircleNumeric.constant(math.pi)


class TestMetricCircleNumeric:
    def test_counting_matches_closed_form(self, X):
        assert X.counting(17.0) == 5
        assert X.counting(16.0) == 5
        assert X.counting_left(16.0) == 3
        assert X.counting_left(10.0) == 3
        assert X.measure() == pytest.approx(math.pi, rel=1e-15)

    def test_resonance_detection(self, X):
        hit, beta, _ = X.is_resonant(2.0)
        assert hit and beta == pytest.approx(2.0, abs=1e-12)
        miss, _, _ = X.is_resonant(3.0)
        assert not miss

    def test_error_bars_exposed(self, X):
        spec = X.spectrum_upto(17.0)
        bars = X.error_bars(spec)
        assert len(bars) == 3 and bars[0] == 0.0
        assert all(0 < b <= 1e-13 * lam
                   for (lam, _), b in zip(spec.entries[1:], bars[1:]))

    def test_growth_report_from_numeric_spectrum(self, X):
        from coneh import hk_bounds
        rep = hk_bounds(X, 2, 3.0)
        assert rep.exact == 3 and not rep.resonant

    def test_certified_everywhere(self):
        X = MetricCircleNumeric.constant(math.pi)
        assert X.certified_bound() == math.inf
        assert X.counting(1e12) == 1 + 2 * 10 ** 6 // 2

    def test_accepts_every_metric_circle_length(self):
        # lengths up to 2*pi*(1 + 1e-12) are admitted, past Circle's bound
        X = MetricCircleNumeric.constant(TWO_PI * (1.0 + 1e-12))
        assert X.measure() == X.length > TWO_PI + 1e-15
        lam1 = X.spectrum_upto(2.0).entries[1][0]
        assert lam1 < 1.0
        assert X.counting(lam1) == 3 and X.counting_left(lam1) == 1


class TestDensityFiles:
    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "density.json"
        samples = [0.5, 0.6, 0.55, 0.5, 0.45, 0.4, 0.45, 0.5]
        path.write_text(json.dumps(samples))
        c = load_density(str(path))
        assert c.density == tuple(samples)

    def test_csv_rows_sorted_by_index(self, tmp_path):
        path = tmp_path / "density.csv"
        path.write_text("# theta_index, a_value\n2,0.7\n0,0.5\n1,0.6\n3,0.8\n")
        c = load_density(str(path))
        assert c.density == (0.5, 0.6, 0.7, 0.8)

    @pytest.mark.parametrize("text, message", [
        # once read as four uniform samples of a circle of length pi
        ("0,0.5\n0,0.5\n5,0.5\n-3,0.5\n", "row 2: theta index 0 is repeated"),
        ("0,0.5\n1,0.5\n-1,0.5\n2,0.5\n3,0.5\n",
         "row 3: theta index -1 is negative"),
        ("# theta_index, a_value\n0,0.5\n1,0.5\n3,0.5\n4,0.5\n",
         "theta index 2 is missing"),
        ("1,0.5\n2,0.5\n3,0.5\n4,0.5\n", "theta index 0 is missing"),
    ])
    def test_csv_indices_are_each_index_once(self, tmp_path, text, message):
        path = tmp_path / "density.csv"
        path.write_text(text)
        with pytest.raises(InvalidArgument) as info:
            load_density(str(path))
        assert str(info.value) == f"{path}: {message}"

    def test_rejects_malformed_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0.5,extra\n")
        with pytest.raises(InvalidArgument):
            load_density(str(path))

    def test_rejects_non_array_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"density\": [1, 2]}")
        with pytest.raises(InvalidArgument):
            load_density(str(path))
