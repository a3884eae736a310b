import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coneh import (Circle, ExplicitSpectrum, InvalidArgument,
                   MetricCircleNumeric, NumericFailure, ResolutionInsufficient,
                   RoundSphere, eigenvalue_from_exponent, load_spectrum,
                   spectrum_from_json, spectra)
from coneh.eigensolver import MetricCircle

from . import oracles

TWO_PI = 2.0 * math.pi


def explicit(n, entries, bound, measure=1.0):
    """ExplicitSpectrum from (eigenvalue, multiplicity) pairs."""
    eigs, mults = zip(*entries)
    return ExplicitSpectrum(n, eigs, mults, bound, measure)


class TestSpectrumUpto:
    def test_round_sphere_2(self):
        # dims of harmonic polynomials in R^3 of degrees 0, 1, 2
        spec = RoundSphere(2).spectrum_upto(7.0)
        assert spec.entries == ((0.0, 1), (2.0, 3), (6.0, 5))

    def test_full_circle(self):
        spec = Circle(TWO_PI).spectrum_upto(4.5)
        assert spec.entries == ((0.0, 1), (1.0, 2), (4.0, 2))

    def test_half_circle(self):
        spec = Circle(math.pi).spectrum_upto(17.0)
        assert spec.entries == ((0.0, 1), (4.0, 2), (16.0, 2))

    def test_rejects_nonpositive_lambda_max(self):
        with pytest.raises(InvalidArgument):
            Circle(math.pi).spectrum_upto(0.0)


    def test_level_ceiling(self, monkeypatch):
        # checked from the level lookup, before any table is built
        monkeypatch.setattr(spectra, "_MAX_LEVELS", 5)
        X = Circle(TWO_PI)
        assert len(X.spectrum_upto(16.0).entries) == 5
        with pytest.raises(NumericFailure, match="needs 6 levels, past 5"):
            X.spectrum_upto(25.0)
        assert X.resonant_set_upto(3.5)[0].tolist() == [0.0, 1.0, 2.0, 3.0]
        with pytest.raises(NumericFailure, match="needs 6 levels, past 5"):
            X.resonant_set_upto(4.5)


class TestCounting:
    def test_sphere(self):
        assert RoundSphere(2).counting(6.0) == 9

    def test_circle_constant_only(self):
        assert Circle(TWO_PI).counting(0.0) == 1

    def test_half_circle(self):
        assert Circle(math.pi).counting(5.0) == 3

    def test_left_excludes_eigenvalue(self):
        assert Circle(TWO_PI).counting_left(4.0) == 3
        assert RoundSphere(2).counting_left(6.0) == 4
        assert Circle(math.pi).counting_left(5.0) == 3

    def test_jump_equals_multiplicity(self):
        for X in (RoundSphere(2), RoundSphere(4), Circle(math.pi)):
            spec = X.spectrum_upto(60.0)
            for lam, mult in spec.entries:
                assert X.counting(lam) - X.counting_left(lam) == mult

    def test_circle_closed_form_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            L = float(rng.uniform(0.2, TWO_PI))
            lam = float(rng.uniform(1e-3, 1e4))
            X = Circle(L)
            # skip the measure-zero eigenvalue coincidences
            j = L * math.sqrt(lam) / TWO_PI
            if abs(j - round(j)) < 1e-9:
                continue
            assert X.counting(lam) == 1 + 2 * int(j)

    def test_sphere_matches_harmonic_polynomial_dim(self):
        from coneh import euclidean_hk
        for n in range(2, 7):
            X = RoundSphere(n - 1)
            for k in range(0, 51):
                assert X.counting(k * (k + n - 2)) == euclidean_hk(n, k)


class TestMeasure:
    def test_values(self):
        assert RoundSphere(2).measure() == pytest.approx(4.0 * math.pi, rel=1e-15)
        assert Circle(math.pi).measure() == math.pi
        assert RoundSphere(1).measure() == pytest.approx(TWO_PI, rel=1e-15)

    def test_high_dimensional_sphere(self):
        # |S^d| = (d + 1) w_(d+1); math.gamma overflows past d = 342
        for d in (5, 342, 343, 400, 430):
            assert RoundSphere(d).measure() == pytest.approx(
                (d + 1) * oracles.unit_ball_volume(d + 1), rel=1e-12)
        with pytest.raises(NumericFailure, match="outside the float range"):
            RoundSphere(1000).measure()

    def test_dimension_ceiling(self):
        RoundSphere(spectra._MAX_SPHERE_DIM)
        with pytest.raises(NumericFailure, match="1001 is past 1000"):
            RoundSphere(spectra._MAX_SPHERE_DIM + 1)


class TestResonances:
    def test_full_circle_set(self):
        exps, _ = Circle(TWO_PI).resonant_set_upto(2.5)
        assert exps.tolist() == [0.0, 1.0, 2.0]

    def test_sphere_set(self):
        exps, _ = RoundSphere(2).resonant_set_upto(2.2)
        assert exps.tolist() == [0.0, 1.0, 2.0]

    def test_half_circle_set(self):
        assert Circle(math.pi).resonant_set_upto(1.9)[0].tolist() == [0.0]

    def test_members_map_back(self):
        X = RoundSphere(3)
        exps, _ = X.resonant_set_upto(6.0)
        spec = X.spectrum_upto(eigenvalue_from_exponent(6.0, X.ambient_dim))
        eigs = {lam for lam, _ in spec.entries}
        for beta in exps.tolist():
            assert eigenvalue_from_exponent(beta, X.ambient_dim) in eigs
        assert len(exps) == len(spec.entries)

    def test_is_resonant(self):
        X = Circle(TWO_PI)
        hit, beta, dist = X.is_resonant(2.0, 1e-9)
        assert hit and beta == 2.0
        miss, beta, dist = X.is_resonant(2.5, 1e-9)
        assert not miss and beta in (2.0, 3.0) and dist == 0.5

    def test_is_resonant_near_sphere_eigenvalue(self):
        hit, beta, _ = RoundSphere(2).is_resonant(0.999999, 1e-3)
        assert hit and beta == 1.0


class TestSpectrumType:
    def test_rejects_unsorted(self):
        with pytest.raises(InvalidArgument, match="strictly increasing"):
            explicit(2, ((0.0, 1), (4.0, 2), (1.0, 2)), 10.0)

    def test_rejects_missing_zero(self):
        with pytest.raises(InvalidArgument, match="must be 0"):
            explicit(2, ((1.0, 1),), 10.0)

    def test_rejects_nonsimple_zero(self):
        with pytest.raises(InvalidArgument, match="simple"):
            explicit(2, ((0.0, 2), (1.0, 2)), 10.0)

    def test_rejects_entry_beyond_bound(self):
        with pytest.raises(InvalidArgument, match="truncation"):
            explicit(2, ((0.0, 1), (11.0, 2)), 10.0)


class TestExplicitSpectrum:
    def test_counting_and_bound(self):
        X = ExplicitSpectrum(3, [0.0, 2.0, 6.0], [1, 3, 5], 10.0, 4.0 * math.pi)
        assert X.counting(6.0) == 9
        assert X.counting_left(6.0) == 4
        assert X.measure() == 4.0 * math.pi
        with pytest.raises(ResolutionInsufficient) as err:
            X.counting(11.0)
        assert err.value.certified_bound == 10.0

    def test_rejects_nonpositive_measure(self):
        with pytest.raises(InvalidArgument):
            ExplicitSpectrum(2, [0.0], [1], 1.0, 0.0)


class TestJsonInterchange:
    DOC = {"ambient_dim": 2, "measure": math.pi,
           "entries": [{"lambda": 0.0, "mult": 1}, {"lambda": 4.0, "mult": 2}],
           "truncation_bound": 10.0}

    def test_round_trip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.DOC))
        X = load_spectrum(str(path))
        assert X.counting(5.0) == 3
        assert X.to_json() == self.DOC

    def test_rejects_bad_entry_with_index(self, tmp_path):
        doc = dict(self.DOC)
        doc["entries"] = [{"lambda": 0.0, "mult": 1}, {"lambda": 4.0}]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidArgument, match="entry 1"):
            load_spectrum(str(path))

    def test_rejects_unsorted_with_location(self, tmp_path):
        doc = dict(self.DOC)
        doc["entries"] = [{"lambda": 0.0, "mult": 1},
                          {"lambda": 4.0, "mult": 2},
                          {"lambda": 1.0, "mult": 2}]
        path = tmp_path / "unsorted.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidArgument, match=r"unsorted.json.*entry 2"):
            load_spectrum(str(path))

    def test_rejects_broken_json_with_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"ambient_dim\": 2,\n  oops\n}")
        with pytest.raises(InvalidArgument, match=r"broken.json:3"):
            load_spectrum(str(path))


def write_entries(path, entries, measure=5.0, bound=None, n=3):
    bound = entries[-1][0] + 10.0 if bound is None else bound
    path.write_text(json.dumps({
        "ambient_dim": n, "measure": measure, "truncation_bound": bound,
        "entries": [{"lambda": lam, "mult": m} for lam, m in entries]}))
    return str(path)


def random_entries(seed, size):
    rng = np.random.default_rng(seed)
    lams = np.cumsum(rng.uniform(1e-3, 50.0, size - 1)).tolist()
    mults = rng.integers(1, 40, size - 1).tolist()
    return [(0.0, 1), *zip(lams, mults)]


class TestArrayLoader:
    """load_spectrum reads the columns as arrays; it must build the same
    level table as the ExplicitSpectrum constructor from the same entries."""

    @pytest.mark.parametrize("entries", [
        *[random_entries(seed, size)
          for seed, size in [(1, 1), (2, 2), (3, 50), (4, 3000)]],
        # cumulative multiplicity just below, at and past 2**63
        [(0.0, 1), (1.0, 2 ** 62), (2.0, 2 ** 62 - 2)],
        [(0.0, 1), (1.0, 2 ** 62), (2.0, 2 ** 62 - 1)],
        [(0.0, 1), (1.0, 2 ** 62), (2.5, 2 ** 62), (7.0, 3)],
        [(0.0, 1), (1.0, 2 ** 63 + 1), (2.0, 5)],
        [(0.0, 1), (3.0, 10 ** 30), (4.0, 2)],
    ])
    def test_matches_spectrum_constructor(self, tmp_path, entries):
        loaded = load_spectrum(write_entries(tmp_path / "s.json", entries))
        bound = entries[-1][0] + 10.0
        built = explicit(3, entries, bound, 5.0)
        for attr in ("_eigs", "_cum"):
            a, b = getattr(loaded, attr), getattr(built, attr)
            assert a.dtype == b.dtype and a.tolist() == b.tolist()
        cum = list(itertools.accumulate(m for _, m in entries))
        assert loaded._cum.tolist() == [0, *cum]
        assert loaded._cum.dtype == (np.int64 if cum[-1] < 2 ** 63 else object)
        assert loaded._eigs.tolist() == [lam for lam, _ in entries] + [math.inf]
        lams = np.random.default_rng(0).uniform(0.0, bound, 200)
        lams = np.concatenate((lams, [lam for lam, _ in entries]))
        for count in ("count_array", "count_left_array"):
            assert (getattr(loaded, count)(lams).tolist()
                    == getattr(built, count)(lams).tolist())
        assert (loaded.ambient_dim, loaded.certified_bound(), loaded.measure()) \
            == (3, bound, 5.0)
        assert loaded.entries == built.entries
        assert loaded.to_json() == built.to_json()
        assert loaded.spectrum_upto(bound).to_json() == \
            built.spectrum_upto(bound).to_json()

    def test_integral_float_multiplicity_reads_as_int(self, tmp_path):
        X = load_spectrum(write_entries(tmp_path / "s.json",
                                        [(0.0, 1.0), (2.0, 3.0)]))
        assert X.entries == ((0.0, 1), (2.0, 3))
        assert type(X.entries[1][1]) is int

    def test_grouped_spectrum_is_built_lazily(self, tmp_path):
        # only the level arrays are kept; grouped entries are built per call
        state = {"_ambient_dim", "_bound", "_measure", "_eigs", "_cum"}
        X = load_spectrum(write_entries(tmp_path / "s.json", random_entries(5, 20)))
        assert vars(X).keys() == state
        X.counting(30.0), X.ambient_dim, X.certified_bound(), X.entries
        assert vars(X).keys() == state


#: One broken rule per case: (entries, bound, message); each names entry 2.
BROKEN_ENTRIES = [
    ([(0.0, 1), (1.0, 2), (-1.0, 2)], 10.0, "negative eigenvalue"),
    ([(0.0, 1), (4.0, 2), (4.0, 2)], 10.0, "strictly increasing"),
    ([(0.0, 1), (4.0, 2), (1.0, 2)], 10.0, "strictly increasing"),
    ([(0.0, 1), (1.0, 2), (2.0, 0)], 10.0, "positive integer"),
    ([(0.0, 1), (1.0, 2), (2.0, -3)], 10.0, "positive integer"),
    ([(0.0, 1), (1.0, 2), (2.0, 2.5)], 10.0, "positive integer"),
    ([(0.0, 1), (1.0, 2), (2.0, math.nan)], 10.0, "positive integer"),
    ([(0.0, 1), (1.0, 2), (2.0, math.inf)], 10.0, "positive integer"),
    ([(0.0, 1), (1.0, 2), (11.0, 2)], 10.0, "exceeds truncation"),
    ([(0.0, 1), (1.0, 2), (math.inf, 2)], 10.0, "exceeds truncation"),
    ([(0.0, 1), (1.0, 2), (math.nan, 2)], 10.0, "must be finite"),
    # the first broken entry is named, with the first rule it breaks
    ([(0.0, 1), (1.0, 2), (-1.0, 0), (0.5, 0)], 10.0, "negative eigenvalue"),
    ([(0.0, 1), (1.0, 2), (math.nan, 2), (-1.0, 2)], 10.0, "must be finite"),
]


class TestValidationRules:
    @pytest.mark.parametrize("entries, bound, message", BROKEN_ENTRIES)
    def test_spectrum_names_entry(self, entries, bound, message):
        with pytest.raises(InvalidArgument, match=f"entry 2: .*{message}"):
            explicit(2, entries, bound)

    @pytest.mark.parametrize("entries, bound, message", BROKEN_ENTRIES)
    def test_file_names_entry_and_path(self, tmp_path, entries, bound, message):
        path = write_entries(tmp_path / "rules.json", entries, bound=bound)
        with pytest.raises(InvalidArgument,
                           match=f"rules.json: entry 2: .*{message}"):
            load_spectrum(path)

    @pytest.mark.parametrize("value", [True, False, None, "2", [2], {"m": 2}])
    def test_file_multiplicity_must_be_a_number(self, tmp_path, value):
        path = write_entries(tmp_path / "m.json", [(0.0, 1), (1.0, value)])
        with pytest.raises(InvalidArgument, match="m.json: entry 1: 'mult'"):
            load_spectrum(path)

    @pytest.mark.parametrize("value", [None, "abc", "4.0", True, 10 ** 400])
    def test_file_eigenvalue_must_be_a_number(self, tmp_path, value):
        path = write_entries(tmp_path / "l.json", [(0.0, 1), (value, 2)],
                             bound=10.0)
        with pytest.raises(InvalidArgument, match="l.json: entry 1: 'lambda'"):
            load_spectrum(path)

    @pytest.mark.parametrize("entry", [5, None, [4.0, 2], {"lambda": 4.0}])
    def test_file_entry_must_be_an_object(self, tmp_path, entry):
        path = tmp_path / "e.json"
        path.write_text(json.dumps({
            "ambient_dim": 2, "measure": 1.0, "truncation_bound": 10.0,
            "entries": [{"lambda": 0.0, "mult": 1}, entry]}))
        with pytest.raises(InvalidArgument, match="e.json: entry 1 must have"):
            load_spectrum(str(path))

    @pytest.mark.parametrize("change, message", [
        ({"entries": 5}, "'entries' must be a list"),
        ({"ambient_dim": 2.5}, "'ambient_dim' must be an integer"),
        ({"ambient_dim": "2"}, "'ambient_dim' must be an integer"),
        ({"ambient_dim": 1}, "ambient_dim must be >= 2"),
        ({"measure": math.nan}, "'measure' must be a finite number"),
        ({"measure": math.inf}, "'measure' must be a finite number"),
        ({"measure": 0.0}, "measure must be positive"),
        ({"truncation_bound": math.nan}, "'truncation_bound' must be a finite"),
        ({"truncation_bound": -math.inf}, "'truncation_bound' must be a finite"),
        ({"entries": []}, "spectrum must contain at least lambda_0"),
    ])
    def test_file_header(self, tmp_path, change, message):
        path = tmp_path / "h.json"
        path.write_text(json.dumps({
            "ambient_dim": 2, "measure": 1.0, "truncation_bound": 10.0,
            "entries": [{"lambda": 0.0, "mult": 1}]} | change))
        with pytest.raises(InvalidArgument, match=f"h.json: {message}"):
            load_spectrum(str(path))

    def test_file_must_hold_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(InvalidArgument, match="list.json: .*JSON object"):
            load_spectrum(str(path))

    @pytest.mark.parametrize("bound", [math.nan, math.inf])
    def test_spectrum_rejects_non_finite_bound(self, bound):
        with pytest.raises(InvalidArgument, match="truncation bound"):
            explicit(2, ((0.0, 1),), bound)

    @pytest.mark.parametrize("measure", [math.nan, math.inf, -1.0])
    def test_explicit_spectrum_rejects_bad_measure(self, measure):
        with pytest.raises(InvalidArgument, match="measure"):
            ExplicitSpectrum(2, [0.0], [1], 1.0, measure)


class TestCircleBounds:
    def test_rejects_overlong_circle(self):
        with pytest.raises(InvalidArgument):
            Circle(TWO_PI + 0.1)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(InvalidArgument):
            Circle(0.0)


def random_explicit(levels):
    """An ExplicitSpectrum from (gap, multiplicity) pairs above lambda_0 = 0."""
    lams = np.cumsum([gap for gap, _ in levels]).tolist()
    return ExplicitSpectrum(3, [0.0, *lams], [1, *(m for _, m in levels)],
                            lams[-1] + 1.0, 2.5)


CROSS_SECTIONS = st.one_of(
    st.integers(1, 6).map(RoundSphere),
    st.floats(0.1, TWO_PI).map(Circle),
    # samples of at most 1 keep the length within 2*pi
    st.lists(st.floats(0.05, 1.0), min_size=4, max_size=64).map(
        lambda a: MetricCircleNumeric(MetricCircle(tuple(a)))),
    st.lists(st.tuples(st.floats(1e-3, 50.0), st.integers(1, 10 ** 6)),
             min_size=1, max_size=60).map(random_explicit),
)


class TestTruncationRoundTrip:
    """A truncation is itself a cross-section: written as JSON and read
    back, it counts as the spectrum it came from on [0, lambda_max]."""

    @settings(max_examples=200, deadline=None)
    @given(X=CROSS_SECTIONS, frac=st.floats(1e-3, 1.0),
           probes=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    def test_counts_survive_json(self, X, frac, probes):
        lam_max = frac * min(X.certified_bound(), 1e4)
        doc = json.loads(json.dumps(X.spectrum_upto(lam_max).to_json()))
        Y = spectrum_from_json(doc)
        lams = [p * lam_max for p in probes] + [
            lam for lam, _ in Y.entries if lam <= lam_max]
        for count in ("count_array", "count_left_array"):
            assert (getattr(Y, count)(lams).tolist()
                    == getattr(X, count)(lams).tolist())

    def test_keeps_an_eigenvalue_a_rounding_above_lambda_max(self):
        X = Circle(TWO_PI)
        lam_max = float(np.nextafter(1.0, 0.0))
        Y = X.spectrum_upto(lam_max)
        assert Y.entries == ((0.0, 1), (1.0, 2))
        assert Y.certified_bound() == 1.0
        assert Y.counting(lam_max) == X.counting(lam_max) == 3
