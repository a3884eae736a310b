"""The counting core shared by every cross-section, against brute force.

Each cross-section is a level table; counting, left counting, resonance
lookup and the Cesaro sums are written once on top of it.  These tests
compare them with linear scans over the `spectrum_upto` entries, and the
Cesaro sums with the per-order walk of `tests/oracles.py`.
"""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coneh import (Circle, ExplicitSpectrum, InvalidArgument, NumericFailure,
                   ResolutionInsufficient, RoundSphere,
                   eigenvalue_from_exponent, exponent_from_eigenvalue,
                   hk_staircase, spectra)
from coneh.eigensolver import MetricCircle

from .oracles import cesaro_offset_walk, per_order_total

TWO_PI = 2.0 * math.pi
RTOL = 4.0 * sys.float_info.epsilon  # eigenvalues this close count as equal


def random_spectrum(n, seed=12, size=200):
    rng = np.random.default_rng(seed)
    mults = rng.integers(1, 4, size - 1).tolist()
    lams = np.cumsum(rng.uniform(0.1, 5.0, size - 1)).tolist()
    return ExplicitSpectrum(n, [0.0, *lams], [1, *mults], lams[-1] + 100.0, 5.0)


CROSS_SECTIONS = (
    [pytest.param(RoundSphere(d), id=f"sphere{d}") for d in range(1, 6)]
    + [pytest.param(Circle(TWO_PI * p / q), id=f"circle{p}/{q}")
       for p, q in [(1, 1), (1, 2), (1, 3), (2, 3), (5, 7)]]
    + [pytest.param(random_spectrum(3, size=400), id="explicit")])


def brute_counts(X, lam):
    """(N, N_left) by a linear scan over the entries of spectrum_upto."""
    entries = X.spectrum_upto(1000.0).entries
    return (sum(m for ev, m in entries if ev <= lam * (1.0 + RTOL)),
            sum(m for ev, m in entries if ev < lam * (1.0 - RTOL)))


def probes(X, rng):
    """Random lambdas, every eigenvalue, and the floats on either side."""
    eigs = [ev for ev, _ in X.spectrum_upto(500.0).entries]
    near = [np.nextafter(ev, side) for ev in eigs for side in (-1.0, 1000.0)]
    return [float(v) for v in [*rng.uniform(0.0, 500.0, 50), *eigs, *near]
            if v >= 0.0]


@pytest.mark.parametrize("X", CROSS_SECTIONS)
def test_counting_matches_brute_force(X):
    lams = probes(X, np.random.default_rng(5))
    for lam in lams:
        count, left = X.counting(lam), X.counting_left(lam)
        assert type(count) is int and type(left) is int
        assert (count, left) == brute_counts(X, lam), lam
    # the array forms answer the whole list in one lookup each
    batch = zip(X.count_array(np.array(lams)).tolist(),
                X.count_left_array(np.array(lams)).tolist())
    assert list(batch) == [brute_counts(X, lam) for lam in lams]


@pytest.mark.parametrize("lams, error, message", [
    ([5.0, -1.0, math.nan], InvalidArgument, "nonnegative"),
    ([5.0, math.inf, -1.0], InvalidArgument, "finite"),
    ([5.0, 1e9, -1.0], ResolutionInsufficient, "certified bound"),
])
def test_count_arrays_report_first_bad_entry(lams, error, message):
    X = random_spectrum(3)
    for count in (X.count_array, X.count_left_array):
        with pytest.raises(error, match=message):
            count(np.array(lams))


@pytest.mark.parametrize("X", CROSS_SECTIONS)
@pytest.mark.parametrize("tol", [1e-9, 0.3, 2.0])
def test_is_resonant_matches_nearest_search(X, tol):
    n = X.ambient_dim
    rng = np.random.default_rng(9)
    exps = X.resonant_set_upto(25.0)[0].tolist()
    for k in [*rng.uniform(0.0, 25.0, 40), *exps,
              *(b + 1e-10 for b in exps), *(b + 0.5 for b in exps)]:
        window = k + max(tol, 1.0)
        if eigenvalue_from_exponent(window, n) > X.certified_bound():
            window = exponent_from_eigenvalue(X.certified_bound(), n)
        candidates = X.resonant_set_upto(window)[0].tolist()
        best = min(candidates, key=lambda b: abs(k - b))
        dist = abs(k - best)
        assert X.is_resonant(k, tol) == (dist <= tol, best, dist), k


@pytest.mark.parametrize("X", CROSS_SECTIONS)
@pytest.mark.parametrize("tol", [1e-9, 2.0])
def test_growth_counts_match_the_three_lookups(X, tol):
    # hk_bounds reads all three from one level lookup
    n = X.ambient_dim
    exps = X.resonant_set_upto(25.0)[0].tolist()
    for k in [*np.random.default_rng(3).uniform(0.0, 25.0, 40), *exps,
              *(np.nextafter(b, side) for b in exps for side in (0.0, 99.0))]:
        lam = eigenvalue_from_exponent(k, n)
        assert X.growth_counts(k, tol) == (
            X.counting(lam), X.counting_left(lam), X.is_resonant(k, tol)), k


def test_growth_counts_fail_as_the_three_lookups():
    X = random_spectrum(3)
    top = exponent_from_eigenvalue(X.certified_bound(), 3)
    for k, tol in [(top + 1.0, 1e-9), (top - 0.1, 0.5), (2.0, -1.0)]:
        with pytest.raises(Exception) as expected:
            lam = eigenvalue_from_exponent(k, 3)
            X.counting(lam), X.counting_left(lam), X.is_resonant(k, tol)
        with pytest.raises(expected.type, match=re.escape(str(expected.value))):
            X.growth_counts(k, tol)


@pytest.mark.parametrize("n", [2, 3])
def test_resonant_set_keeps_its_top_resonance(n):
    X = random_spectrum(n)
    for lam, _ in X.entries:
        _, eigs = X.resonant_set_upto(exponent_from_eigenvalue(lam, n))
        assert eigs[-1] == lam


def test_staircase_keeps_step_at_resonant_k_max():
    X = random_spectrum(2)
    # entries whose exponent maps back below the eigenvalue
    cases = [(lam, m) for lam, m in X.entries[1:]
             if eigenvalue_from_exponent(exponent_from_eigenvalue(lam, 2), 2) < lam]
    assert cases
    for lam, mult in cases[:5]:
        k_max = exponent_from_eigenvalue(lam, 2)
        last = hk_staircase(X, 2, k_max)[-1]
        assert (last.k_lo, last.k_hi) == (k_max, k_max)
        assert (last.h, last.jump) == (X.counting(lam), mult)


CESARO_CASES = [(Circle(TWO_PI), 2, 100_000.3), (RoundSphere(5), 6, 10_000.5)]


@pytest.mark.parametrize("X,n,k", CESARO_CASES)
def test_cesaro_total_matches_per_order_loop(X, n, k):
    delta = X.cesaro_offset(k)
    assert delta == 0.25
    total = X.cesaro_total(k)
    assert type(total) is int
    assert total == per_order_total(X, n, k, delta)
    if n == 6:
        assert total > 2 ** 63  # past int64: the sum must not wrap


# spectrum files walk the orders through count_array; the walk run on a
# sphere or a circle must give its closed form
@pytest.mark.parametrize("X,n,k", CESARO_CASES)
def test_cesaro_total_across_block_boundaries(X, n, k, monkeypatch):
    total = X.cesaro_total(k)
    monkeypatch.setattr(spectra, "LEVEL_BLOCK", 997)
    assert spectra.CrossSection.cesaro_total(X, k) == total


def test_cesaro_blocks_on_both_sides_of_the_int64_guard(monkeypatch):
    X, n, k = RoundSphere(5), 6, 10_000.5  # a total past 2**63
    blocks, exact_sum = [], spectra._exact_sum

    def recorded(counts):
        blocks.append(counts.size * int(counts.max()) < 2 ** 63)
        return exact_sum(counts)
    monkeypatch.setattr(spectra, "_exact_sum", recorded)
    monkeypatch.setattr(spectra, "LEVEL_BLOCK", 997)
    total = spectra.CrossSection.cesaro_total(X, k)
    # early blocks are summed in int64, late ones as Python ints
    assert True in blocks and False in blocks
    assert type(total) is int
    assert total == per_order_total(X, n, k, X.cesaro_offset(k))


def test_floor_sum_matches_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(300):
        n, m = int(rng.integers(0, 60)), int(rng.integers(1, 40))
        a, b = (int(v) for v in rng.integers(-100, 100, 2))
        assert spectra._floor_sum(n, m, a, b) == sum(
            (a * i + b) // m for i in range(n)), (n, m, a, b)


def _circle(p, q):
    return Circle(TWO_PI * p / q)


def _repeated_gaps(n, gaps, mults):
    """A spectrum file whose exponents step by the given gaps, certified
    two orders past its last exponent."""
    betas = np.cumsum([0.0, *gaps])
    top = float(betas[-1]) + 2.0
    return ExplicitSpectrum(n, eigenvalue_from_exponent(betas, n),
                            [1, *mults], top * (top + n - 2.0), 3.0)


# circles 2*pi*p/q with q <= 12, and those with 4 | p drawn on purpose:
# there the orders i + 1/4 fall on resonances
CESARO_SECTIONS = st.one_of(
    st.integers(1, 6).map(RoundSphere),
    st.integers(1, 12).flatmap(
        lambda q: st.integers(1, q).filter(lambda p: math.gcd(p, q) == 1)
        .map(lambda p: _circle(p, q))),
    st.sampled_from([(4, 5), (4, 7), (4, 9), (8, 9), (4, 11), (8, 11)])
    .map(lambda pq: _circle(*pq)),
    st.just(spectra.MetricCircleNumeric(MetricCircle((0.9, 0.3, 0.5, 0.7)))),
    st.integers(2, 4).flatmap(lambda n: st.integers(1, 40).flatmap(
        lambda size: st.builds(
            _repeated_gaps, st.just(n),
            st.lists(st.sampled_from([0.125, 0.25, 0.5, 0.75, 1.0]),
                     min_size=size, max_size=size),
            # 2**60 per level takes the sum past int64
            st.lists(st.sampled_from([1, 2, 3, 2 ** 60]),
                     min_size=size, max_size=size)))))


@settings(max_examples=150, deadline=None)
@given(X=CESARO_SECTIONS, frac=st.floats(0.0, 1.0))
def test_cesaro_total_matches_the_per_order_oracle(X, frac):
    n = X.ambient_dim
    top = (exponent_from_eigenvalue(X.certified_bound(), n) - 2.0
           if isinstance(X, ExplicitSpectrum) else 300.0)
    k = frac * top
    delta = X.cesaro_offset(k)
    assert delta == cesaro_offset_walk(X, k)
    total = X.cesaro_total(k)
    assert type(total) is int
    assert total == per_order_total(X, n, k, delta)
    # the offset only misses ties within the rounding margin, but on these
    # exponents a tie is exact or far from every order: none is resonant
    assert not any(X.is_resonant(i + delta)[0] for i in range(int(k)))


@pytest.mark.parametrize("p, delta", [(4, 0.125), (8, 0.0625)])
def test_cesaro_offset_misses_the_resonances_of_circles(p, delta):
    # on x = 4/9 the exponents 9j/4 take the orders i + 1/4 (2.25 at j = 1);
    # on x = 8/9 the exponents 9j/8 take i + 1/4 (j = 2) and i + 1/8 (j = 1)
    X, k = _circle(p, 9), 150.3
    assert X.cesaro_offset(k) == delta
    assert not any(X.is_resonant(i + delta)[0] for i in range(int(k)))
    assert X.cesaro_total(k) == per_order_total(X, 2, k, delta)
    assert X.is_resonant(2.25)[0]


def test_cesaro_offset_halves_past_a_file_tie():
    # integer exponents, and 699.25 and 800.125 on the orders i + 1/4 and
    # i + 1/8: the offset halves twice
    exps = sorted([*range(1000), 699.25, 800.125])
    X = ExplicitSpectrum(2, [b * b for b in exps],
                         [1 if b == 0 else 2 for b in exps], 1100.0 ** 2, TWO_PI)
    assert X.cesaro_offset(1050.0) == cesaro_offset_walk(X, 1050.0) == 0.0625
    assert X.cesaro_offset(750.0) == 0.125  # 800.125 lies past the orders
    assert X.cesaro_total(1050.0) == per_order_total(X, 2, 1050.0, 0.0625)


def test_cesaro_offset_fails_past_its_last_halving():
    # exponents j (1 + 2**-20): the order 2**(20-m) + 2**-m is the exponent
    # of j = 2**(20-m), for every m <= 20 once the orders pass 2**18
    X = _circle(2 ** 20, 2 ** 20 + 1)
    with pytest.raises(NumericFailure, match=r"2\*\*-20 puts a growth order"):
        X.cesaro_offset(600_000.5)
    assert cesaro_offset_walk(X, 600_000.5) is None
    # below 2**18 orders the first tie, at j = 2**18, lies past them
    assert X.cesaro_offset(200_000.5) == 0.25


# the circles 2*pi*p/q (q <= 12) and spheres of growth-sweep, at its orders
@pytest.mark.parametrize("X", [
    *(Circle(TWO_PI * p / q) for q, p in [(1, 1), (2, 1), (3, 2), (7, 3),
                                          (11, 10), (12, 1), (12, 7)]),
    *(RoundSphere(d) for d in range(1, 6)),
    # a metric circle is counted as the round circle of its length
    spectra.MetricCircleNumeric(MetricCircle((1.0, 0.3, 2.0, 0.7)))], ids=repr)
@pytest.mark.parametrize("k", [0.3, 1.0, 2.5, 40.0, 1999.7, 99_500.3, 999_500.3])
def test_closed_form_cesaro_offset_matches_the_walk(X, k):
    assert X.cesaro_offset(k) == cesaro_offset_walk(X, k)


class _NoList(np.ndarray):
    """An array that fails where it would be summed as Python ints."""

    def tolist(self):
        raise AssertionError("summed as Python ints")


@pytest.mark.parametrize("values, total", [
    ([3, 0, 5], 8),
    ([2 ** 62 - 1, 2 ** 62 - 1], 2 ** 63 - 2),
    ([2 ** 62, 2 ** 62], 2 ** 63),  # wraps to -2**63 in int64
    ([2 ** 63 - 1], 2 ** 63 - 1),
    ([2 ** 63 - 1, 1], 2 ** 63),
    ([2 ** 64, 1], 2 ** 64 + 1),  # object dtype
])
def test_exact_sum_is_exact_on_both_sides_of_the_guard(values, total):
    counts = spectra._exact_array(values)
    fits = counts.dtype == np.int64 and len(values) * max(values) < 2 ** 63
    if fits:  # the int64 path, or the spy raises
        counts = counts.view(_NoList)
    result = spectra._exact_sum(counts)
    assert type(result) is int and result == total


def test_counts_past_int64_stay_exact():
    l = 10 ** 7
    count = RoundSphere(3).counting(float(l * (l + 2)))
    assert count == (l + 1) * (l + 2) * (2 * l + 3) // 6 > 2 ** 63


@pytest.mark.parametrize("X", [Circle(TWO_PI), RoundSphere(3)])
def test_rejects_lambda_past_resolvable_levels(X):
    with pytest.raises(InvalidArgument):
        X.counting(1e300)
