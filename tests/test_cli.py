import json
import math
import subprocess
import sys
import time
import warnings

import pytest

from coneh import spectra
from coneh.cli import (EXIT_OK, EXIT_RESOLUTION, EXIT_USAGE,
                       EXIT_VERIFICATION, build_parser, main,
                       parse_cross_section)
from coneh.spectra import Circle, ExplicitSpectrum, RoundSphere

TWO_PI = 2.0 * math.pi
MAX_FLOAT = repr(sys.float_info.max)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def _argv_id(argv):
    """A test id per subcommand, telling `hk --k-max` from `hk --k`."""
    return argv[0] + ("-k-max" if "--k-max" in argv else "")


@pytest.fixture
def harmonic_file(tmp_path):
    doc = {"n": 2, "constant": 0.0, "modes": [
        {"alpha": 1.0, "c": 1.0, "mode_id": 1},
        {"alpha": 2.0, "c": 0.5, "mode_id": 4}]}
    path = tmp_path / "harmonic.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def spectrum_file(tmp_path):
    doc = {"ambient_dim": 2, "measure": math.pi, "truncation_bound": 20.0,
           "entries": [{"lambda": 0.0, "mult": 1},
                       {"lambda": 4.0, "mult": 2},
                       {"lambda": 16.0, "mult": 2}]}
    path = tmp_path / "spectrum.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestCrossSectionGrammar:
    def test_sphere(self):
        assert parse_cross_section("sphere:2") == RoundSphere(2)

    def test_circle(self):
        assert parse_cross_section("circle:3.14") == Circle(3.14)

    def test_spectrum_file(self, spectrum_file):
        X = parse_cross_section(f"spectrum:{spectrum_file}")
        assert isinstance(X, ExplicitSpectrum) and X.counting(5.0) == 3

    def test_rejects_unknown_kind(self):
        from coneh import InvalidArgument
        with pytest.raises(InvalidArgument):
            parse_cross_section("torus:1")
        with pytest.raises(InvalidArgument):
            parse_cross_section("sphere")


class TestReports:
    def test_count_report_shape(self, capsys):
        code, doc = run_json(capsys, "count", "--cross-section", "sphere:2",
                             "--lambda", "6")
        assert code == EXIT_OK
        assert doc["schema"] == "coneh/1"
        assert "version" in doc and "config" in doc
        assert doc["counts"] == [{"lambda": 6.0, "count": 9, "count_left": 4}]

    def test_metric_circle_spectrum_report(self, capsys, tmp_path):
        path = tmp_path / "full_circle.json"
        path.write_text(json.dumps([1.0] * 64))
        code, doc = run_json(capsys, "spectrum", "--cross-section",
                             f"metric-circle:{path}", "--lambda-max", "9.5")
        assert code == EXIT_OK
        spec = doc["spectrum"]
        assert [e["mult"] for e in spec["entries"]] == [1, 2, 2, 2]
        assert len(spec["error_bars"]) == 4
        for e, exact, bar in zip(spec["entries"], [0.0, 1.0, 4.0, 9.0],
                                 spec["error_bars"]):
            assert abs(e["lambda"] - exact) <= bar <= 1e-6 * max(1.0, exact)

    def test_spectrum_report(self, capsys):
        code, doc = run_json(capsys, "spectrum", "--cross-section",
                             "circle:3.141592653589793", "--lambda-max", "17")
        assert code == EXIT_OK
        entries = doc["spectrum"]["entries"]
        assert [(e["lambda"], e["mult"]) for e in entries] == [
            (0.0, 1), (4.0, 2), (16.0, 2)]

    def test_hk_report(self, capsys):
        code, doc = run_json(capsys, "hk", "--cross-section", "sphere:2",
                             "--n", "3", "--k", "2.5")
        assert code == EXIT_OK
        rep = doc["growth_report"]
        assert rep["exact"] == 9 and not rep["resonant"]

    def test_exponent_zero_is_no_resonance(self, capsys):
        # below lambda_1 only the constants qualify: h_k = 1 exactly
        code, doc = run_json(capsys, "hk", "--cross-section", "sphere:2",
                             "--n", "3", "--k", "1e-10")
        assert code == EXIT_OK
        assert doc["growth_report"] == {
            "k": 1e-10, "n": 3, "lower": 1, "upper": 1, "exact": 1,
            "resonant": False, "nearest_resonance": 0.0}
        # so the pointwise ratio is taken at k, not at k + 1e-9
        for cs, n, k, ratio in [("sphere:3", "4", "1e-100", 1e300),
                                ("circle:3", "2", "1e-300", 1e300)]:
            code, doc = run_json(capsys, "asymptotic", "--cross-section", cs,
                                 "--n", n, "--k", k)
            assert code == EXIT_OK
            (row,) = doc["table"]
            assert row["pointwise_ratio"] == pytest.approx(ratio, rel=1e-12)

    #: S^2's levels 0-4 (exponents 0-4 at n = 3), certified up to 30
    CLIPPED = {"ambient_dim": 3, "measure": 4.0 * math.pi,
               "truncation_bound": 30.0,
               "entries": [{"lambda": l * (l + 1.0), "mult": 2 * l + 1}
                           for l in range(5)]}

    @pytest.mark.parametrize("k", ["4.4", "4.9"])
    def test_resonance_window_stops_at_the_certified_bound(
            self, capsys, tmp_path, k):
        # the bound 30 has the exponent 5 < k + 1: the window reads
        # certified levels only
        path = tmp_path / "clipped.json"
        path.write_text(json.dumps(self.CLIPPED))
        code, doc = run_json(capsys, "hk", "--cross-section",
                             f"spectrum:{path}", "--n", "3", "--k", k)
        assert code == EXIT_OK
        rep = doc["growth_report"]
        assert (rep["resonant"], rep["nearest_resonance"], rep["exact"]) == (
            False, 4.0, 25)

    def test_resonance_window_past_the_certified_bound(self, capsys,
                                                       tmp_path):
        # k + 1e-9 passes the exponent 5 of the bound
        path = tmp_path / "clipped.json"
        path.write_text(json.dumps(self.CLIPPED))
        code, doc = run_json(capsys, "hk", "--cross-section",
                             f"spectrum:{path}", "--n", "3", "--k", "5.0")
        assert code == EXIT_RESOLUTION
        assert doc["error"]["type"] == "ResolutionInsufficient"
        assert doc["error"]["certified_bound"] == 30.0

    def test_hk_staircase(self, capsys):
        code, doc = run_json(capsys, "hk", "--cross-section",
                             "circle:6.283185307179586", "--n", "2",
                             "--k-max", "2.5")
        assert code == EXIT_OK
        assert [s["h"] for s in doc["staircase"]] == [1, 3, 5]

    def test_weyl_report(self, capsys):
        code, doc = run_json(capsys, "weyl", "--cross-section", "sphere:2",
                             "--n", "3", "--lambda", "10000")
        assert code == EXIT_OK
        assert abs(doc["weyl"][0]["ratio"] - 1.0) < 0.03

    def test_asymptotic_report(self, capsys):
        code, doc = run_json(capsys, "asymptotic", "--cross-section",
                             "circle:6.283185307179586", "--n", "2",
                             "--k", "100.5")
        assert code == EXIT_OK
        assert doc["pointwise_limit"] == pytest.approx(2.0, rel=1e-12)
        assert doc["table"][0]["pointwise_deviation"] < 0.02

    def test_collapsed_report(self, capsys):
        code, doc = run_json(capsys, "collapsed", "--cross-section",
                             "circle:3.141592653589793", "--n", "3",
                             "--m", "2", "--k", "1.5")
        assert code == EXIT_OK
        assert doc["collapsed_report"]["limit_ratio"] == 1.0

    def test_frequency_report(self, capsys, harmonic_file):
        code, doc = run_json(capsys, "frequency", "--harmonic", harmonic_file,
                             "--s", "0.5", "1.0", "2.0")
        assert code == EXIT_OK
        row = doc["table"][1]
        assert row["I"] == pytest.approx(1.25, rel=1e-12)
        assert all(r["residual"] <= 1e-8 for r in doc["identity_residuals"])

    def test_three_circles_report(self, capsys, harmonic_file):
        code, doc = run_json(capsys, "three-circles", "--harmonic",
                             harmonic_file, "--k", "2.0", "--s", "1.0", "2.0")
        assert code == EXIT_OK
        assert all(v["satisfied"] for v in doc["three_circles"])

    def test_functionals_past_the_float_range(self, capsys, tmp_path):
        # exponents 200 and 1: I, D and J overflow at s = 10, U and the
        # identity residual must not
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({"n": 2, "modes": [
            {"alpha": 200.0, "c": 1.0, "mode_id": 1},
            {"alpha": 1.0, "c": 1.0, "mode_id": 2}]}))
        code, doc = run_json(capsys, "frequency", "--harmonic", str(path),
                             "--s", "1", "10")
        assert code == EXIT_OK
        top = doc["table"][1]
        assert top["I"] == top["D"] == top["J"] == math.inf
        assert abs(top["U"] - 200.0) <= 1e-9
        assert doc["identity_residuals"][0]["residual"] <= 1e-8
        code, doc = run_json(capsys, "three-circles", "--harmonic", str(path),
                             "--k", "200", "--s", "10")
        assert code == EXIT_OK
        verdict = doc["three_circles"][0]
        assert math.isfinite(verdict["ratio"]) and verdict["satisfied"]

    def test_j_and_ratio_past_the_divisor_range(self, capsys, tmp_path):
        # 2 alpha + n overflows for alpha = 1e308: J is about 5e-309, and
        # the doubling ratio 2^(2 alpha) is inf, not NaN
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 2, "modes": [
            {"alpha": 1e308, "c": 1.0, "mode_id": 1}]}))
        code, out = run(capsys, "frequency", "--harmonic", str(path),
                        "--s", "1")
        doc = json.loads(out, parse_constant=pytest.fail)
        assert code == EXIT_OK
        assert doc["table"][0]["J"] == pytest.approx(5e-309, rel=1e-10, abs=0)
        code, out = run(capsys, "three-circles", "--harmonic", str(path),
                        "--k", "1e308", "--s", "1")
        verdict = json.loads(out)["three_circles"][0]
        assert code == EXIT_OK
        assert verdict["ratio"] == verdict["bound"] == math.inf
        assert verdict["satisfied"]

    def test_three_circles_order_past_the_float_range(self, capsys,
                                                       harmonic_file):
        code, doc = run_json(capsys, "three-circles", "--harmonic",
                             harmonic_file, "--k", "600", "--s", "1")
        assert code == EXIT_OK
        verdict = doc["three_circles"][0]
        assert verdict["bound"] == math.inf and verdict["satisfied"]
        assert math.isfinite(verdict["ratio"])

    def test_verify_grid_report(self, capsys):
        code, doc = run_json(capsys, "verify-grid", "--mode", "1", "1", "1",
                             "--resolutions", "32", "64", "128")
        assert code == EXIT_OK
        assert doc["order_in_contract"]
        assert 1.8 <= doc["fitted_order"] <= 2.2


class TestFormatsAndDeterminism:
    def test_csv_output(self, capsys):
        code, out = run(capsys, "count", "--cross-section", "sphere:2",
                        "--lambda", "6", "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "lambda,count,count_left"
        assert lines[1] == "6.0,9,4"

    #: (argv, rows of the JSON report, documented CSV columns) per table
    TABLES = [
        (["spectrum", "--cross-section", "circle:3", "--lambda-max", "20"],
         lambda doc: doc["spectrum"]["entries"], ["lambda", "mult"]),
        (["hk", "--cross-section", "sphere:2", "--n", "3", "--k-max", "3"],
         lambda doc: doc["staircase"], ["k_lo", "k_hi", "h"]),
        (["weyl", "--cross-section", "sphere:2", "--n", "3",
          "--lambda", "100", "1e4"],
         lambda doc: doc["weyl"], ["lambda", "ratio", "limit", "deviation"]),
        (["asymptotic", "--cross-section", "circle:3", "--n", "2",
          "--k", "2.5", "40.5"],
         lambda doc: doc["table"],
         ["k", "pointwise_ratio", "pointwise_deviation", "cesaro_ratio",
          "cesaro_deviation"]),
        (["frequency", "--harmonic", "{harmonic}", "--s", "0.5", "1", "2"],
         lambda doc: doc["table"], ["s", "I", "D", "U", "J"]),
        (["three-circles", "--harmonic", "{harmonic}", "--k", "2",
          "--s", "1", "2"],
         lambda doc: doc["three_circles"], ["s", "ratio", "bound", "satisfied"]),
        (["verify-grid", "--mode", "1", "1", "1"],
         lambda doc: [{"resolution": m, "residual_max": r} for m, r in zip(
             doc["config"]["resolutions"], doc["residual_max_norms"])],
         ["resolution", "residual_max"]),
    ]

    @pytest.mark.parametrize("argv, rows, header", TABLES,
                             ids=[_argv_id(argv) for argv, *_ in TABLES])
    def test_csv_is_the_json_table(self, capsys, harmonic_file, argv, rows,
                                   header):
        argv = [a.format(harmonic=harmonic_file) for a in argv]
        code, doc = run_json(capsys, *argv)
        assert code == EXIT_OK
        code, out = run(capsys, *argv, "--format", "csv")
        assert code == EXIT_OK
        want = [header] + [[repr(row[h]) if isinstance(row[h], float)
                            else str(row[h]) for h in header]
                           for row in rows(doc)]
        assert [line.split(",") for line in out.splitlines()] == want

    @pytest.mark.parametrize("argv", [
        ["hk", "--cross-section", "sphere:2", "--n", "3", "--k", "2.5"],
        ["collapsed", "--cross-section", "sphere:1", "--n", "3", "--m", "2",
         "--k", "1.5"],
        ["selftest"],
    ], ids=["hk-k", "collapsed", "selftest"])
    def test_reports_without_a_table_print_json_under_csv(self, capsys,
                                                           argv):
        code, out = run(capsys, *argv)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["config"]["format"] == "json"
        code, csv_out = run(capsys, *argv, "--format", "csv")
        assert code == EXIT_OK
        doc["config"]["format"] = "csv"
        assert csv_out == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_csv_of_a_failed_verdict(self, capsys):
        # the wrong exponent for the mode number: the order check fails,
        # and the residual table is still printed
        with pytest.warns(UserWarning, match="non-monotone"):
            code, out = run(capsys, "verify-grid", "--mode", "1.5", "2", "1",
                            "--format", "csv")
        assert code == EXIT_VERIFICATION
        lines = out.splitlines()
        assert lines[0] == "resolution,residual_max"
        assert [line.split(",")[0] for line in lines[1:]] == [
            "32", "64", "128"]
        assert all(float(line.split(",")[1]) > 0 for line in lines[1:])

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out = run(capsys, "count", "--cross-section", "sphere:2",
                        "--lambda", "6", "--output", str(path))
        assert code == EXIT_OK and out == ""
        doc = json.loads(path.read_text())
        assert doc["counts"][0]["count"] == 9
        assert doc["config"] == {"cross_section": "sphere:2", "format": "json",
                                 "lam": [6.0], "lambda": [6.0]}

    def test_byte_identical_reruns(self, capsys):
        argv = ("hk", "--cross-section", "circle:3.141592653589793",
                "--n", "2", "--k", "2.5")
        _, out1 = run(capsys, *argv)
        _, out2 = run(capsys, *argv)
        assert out1 == out2


class TestConfigEcho:
    """The whole `config` object of one argv per subcommand: every parsed
    option but --output, unset ones left out, --lambda as `lam` and
    `lambda`."""

    CASES = [
        (["spectrum", "--cross-section", "circle:3", "--lambda-max", "20"],
         {"cross_section": "circle:3", "format": "json", "lambda_max": 20.0}),
        (["count", "--cross-section", "sphere:2", "--lambda", "2", "6"],
         {"cross_section": "sphere:2", "format": "json", "lam": [2.0, 6.0],
          "lambda": [2.0, 6.0]}),
        (["hk", "--cross-section", "sphere:2", "--n", "3", "--k", "2.5"],
         {"cross_section": "sphere:2", "format": "json", "n": 3, "k": 2.5}),
        (["hk", "--cross-section", "sphere:2", "--n", "3", "--k-max", "3"],
         {"cross_section": "sphere:2", "format": "json", "n": 3,
          "k_max": 3.0}),
        (["weyl", "--cross-section", "sphere:2", "--n", "3",
          "--lambda", "100"],
         {"cross_section": "sphere:2", "format": "json", "n": 3,
          "lam": [100.0], "lambda": [100.0]}),
        (["asymptotic", "--cross-section", "circle:3", "--n", "2",
          "--k", "2.5", "40.5"],
         {"cross_section": "circle:3", "format": "json", "n": 2,
          "k": [2.5, 40.5]}),
        (["collapsed", "--cross-section", "sphere:1", "--n", "3", "--m", "2",
          "--k", "1.5"],
         {"cross_section": "sphere:1", "format": "json", "n": 3, "m": 2,
          "k": 1.5}),
        (["frequency", "--harmonic", "{harmonic}", "--s", "0.5", "1"],
         {"harmonic": "{harmonic}", "format": "json", "s": [0.5, 1.0]}),
        (["three-circles", "--harmonic", "{harmonic}", "--k", "2",
          "--s", "1", "2"],
         {"harmonic": "{harmonic}", "format": "json", "k": 2.0,
          "s": [1.0, 2.0]}),
        (["verify-grid", "--mode", "1", "1", "1"],
         {"mode": [1.0, 1.0, 1.0], "length": TWO_PI, "window": [0.5, 1.5],
          "resolutions": [32, 64, 128], "format": "json"}),
        (["selftest"], {"seed": 42, "format": "json"}),
    ]

    @pytest.mark.parametrize("argv, config", CASES,
                             ids=[_argv_id(argv) for argv, _ in CASES])
    def test_config_echoes_the_parsed_options(self, capsys, harmonic_file,
                                              argv, config):
        code, doc = run_json(
            capsys, *(a.format(harmonic=harmonic_file) for a in argv))
        assert code == EXIT_OK
        assert doc["config"] == {
            key: value.format(harmonic=harmonic_file)
            if isinstance(value, str) else value
            for key, value in config.items()}


class TestInProcessReuse:
    """`main` reuses one parser, and `load_spectrum` keeps the last parse:
    neither may carry anything from one call into the next."""

    def test_reused_parser_shares_no_state(self, capsys):
        assert build_parser() is build_parser()
        argv = ("verify-grid", "--mode", "1", "1", "1")
        first, second = run(capsys, *argv), run(capsys, *argv)
        assert first[0] == EXIT_OK and second == first
        assert run(capsys, "verify-grid", "--mode", "1", "1")[0] == EXIT_USAGE
        assert run(capsys, *argv) == first
        doc = json.loads(first[1])
        assert doc["config"]["window"] == [0.5, 1.5]
        assert doc["config"]["resolutions"] == [32, 64, 128]

    def test_one_parse_per_file_text(self, capsys, monkeypatch,
                                     spectrum_file):
        parses, from_json = [], spectra.spectrum_from_json

        def counted(doc, source):
            parses.append(source)
            return from_json(doc, source)
        monkeypatch.setattr(spectra, "spectrum_from_json", counted)
        monkeypatch.setattr(spectra, "_last_load", None)
        argv = ("count", "--cross-section", f"spectrum:{spectrum_file}",
                "--lambda", "5")
        outs = [run(capsys, *argv) for _ in range(5)]
        assert parses == [spectrum_file]
        assert outs == [(EXIT_OK, outs[0][1])] * 5


class TestExitCodes:
    def test_usage_error_on_bad_cross_section(self, capsys):
        code, doc = run_json(capsys, "count", "--cross-section", "torus:1",
                             "--lambda", "6")
        assert code == EXIT_USAGE
        assert doc["error"]["type"] == "InvalidArgument"

    @pytest.mark.parametrize("cs", ["sphere:abc", "sphere:2.5", "circle:abc"])
    def test_usage_error_on_malformed_number(self, capsys, cs):
        code, doc = run_json(capsys, "hk", "--cross-section", cs, "--n", "3",
                             "--k", "2")
        assert code == EXIT_USAGE
        assert doc["error"]["type"] == "InvalidArgument"
        assert doc["error"]["exit_code"] == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["count", "--cross-section", "circle:3", "--lambda", "nan"],
        ["count", "--cross-section", "circle:3", "--lambda", "inf"],
        ["hk", "--cross-section", "sphere:2", "--n", "3", "--k", "nan"],
        ["hk", "--cross-section", "sphere:2", "--n", "3", "--k", "1e308"],
        ["asymptotic", "--cross-section", "circle:3", "--n", "2", "--k", "inf"],
        ["weyl", "--cross-section", "circle:3", "--n", "2", "--lambda", "nan"],
        ["frequency", "--harmonic", "HARMONIC", "--s", "nan", "2"],
        ["three-circles", "--harmonic", "HARMONIC", "--k", "nan", "--s", "1"],
        ["three-circles", "--harmonic", "HARMONIC", "--k", "2", "--s", "inf"],
        # the largest float lies past level 2**53; widening it by the
        # equality tolerance must not overflow on the way
        ["count", "--cross-section", "circle:3", "--lambda", MAX_FLOAT],
        ["count", "--cross-section", "sphere:2", "--lambda", MAX_FLOAT],
        ["weyl", "--cross-section", "sphere:2", "--n", "3",
         "--lambda", MAX_FLOAT],
    ])
    def test_usage_error_on_non_finite_input(self, capsys, harmonic_file,
                                             argv):
        argv = [harmonic_file if a == "HARMONIC" else a for a in argv]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, doc = run_json(capsys, *argv)
        assert code == EXIT_USAGE
        assert doc["schema"] == "coneh/1"
        assert doc["error"]["type"] == "InvalidArgument"
        assert doc["error"]["exit_code"] == EXIT_USAGE

    def test_spectrum_file_certified_to_the_largest_float(self, capsys,
                                                          tmp_path):
        # the lookup's probe past lambda must stop at the largest float,
        # or the lookup reads past the end of the table
        path = tmp_path / "top.json"
        path.write_text(json.dumps({
            "ambient_dim": 2, "measure": 1.0,
            "truncation_bound": sys.float_info.max,
            "entries": [{"lambda": 0.0, "mult": 1},
                        {"lambda": 4.0, "mult": 2}]}))
        cs = f"spectrum:{path}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            count = run_json(capsys, "count", "--cross-section", cs,
                             "--lambda", MAX_FLOAT)
            spectrum = run_json(capsys, "spectrum", "--cross-section", cs,
                                "--lambda-max", MAX_FLOAT)
        assert count[0] == spectrum[0] == EXIT_OK
        assert count[1]["counts"][0]["count"] == 3
        assert [e["mult"] for e in spectrum[1]["spectrum"]["entries"]] == [1, 2]

    def test_spectrum_file_exponents_past_max_over_4(self, capsys, tmp_path):
        # the exponent of 1e308 is about 1e154: 4 lambda passes the largest
        # float, and the root must not overflow on the way
        path = tmp_path / "top.json"
        path.write_text(json.dumps({
            "ambient_dim": 3, "measure": 1.0,
            "truncation_bound": sys.float_info.max,
            "entries": [{"lambda": 0.0, "mult": 1},
                        {"lambda": 2.0, "mult": 3},
                        {"lambda": 1e308, "mult": 2}]}))
        cs = f"spectrum:{path}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stairs = run_json(capsys, "hk", "--cross-section", cs, "--n", "3",
                              "--k-max", "1.2e154")
            single = run_json(capsys, "hk", "--cross-section", cs, "--n", "3",
                              "--k", "5e153")
        assert stairs[0] == single[0] == EXIT_OK
        assert [(s["k_lo"], s["h"]) for s in stairs[1]["staircase"]] == [
            (0.0, 1), (1.0, 4), (1e154, 6)]
        assert single[1]["growth_report"]["upper"] == 4

    @pytest.mark.parametrize("argv", [
        ["verify-grid", "--mode", "1", "1", "1", "--length", "-1"],
        ["verify-grid", "--mode", "1", "1", "1", "--length", "inf"],
        ["verify-grid", "--mode", "1", "1", "1", "--window", "0.5", "inf"],
        ["verify-grid", "--mode", "1", "1", "0"],
        ["verify-grid", "--mode", "1", "1.5", "1"],
        ["verify-grid", "--mode", "1", "1", "1", "--resolutions",
         "-1", "-2", "-4"],
        ["selftest", "--seed", "-1"],
    ])
    def test_usage_error_on_invalid_grid_or_seed(self, capsys, argv):
        code, doc = run_json(capsys, *argv)
        assert code == EXIT_USAGE
        assert doc["schema"] == "coneh/1"
        assert doc["error"]["type"] == "InvalidArgument"
        assert doc["error"]["exit_code"] == EXIT_USAGE

    @pytest.mark.parametrize("change, entry", [
        ({"entries": [{"lambda": 0.0, "mult": 1}, 5]}, 1),
        ({"entries": [{"lambda": 0.0, "mult": 1}, {"lambda": None, "mult": 2}]}, 1),
        ({"entries": [{"lambda": 0.0, "mult": 1}, {"lambda": "abc", "mult": 2}]}, 1),
        ({"entries": [{"lambda": 0.0, "mult": 1}, {"lambda": 4.0, "mult": 2.5}]}, 1),
        ({"entries": [{"lambda": 0.0, "mult": 1}, {"lambda": 4.0, "mult": True}]}, 1),
        ({"entries": [{"lambda": 0.0, "mult": 1}, {"lambda": 4.0, "mult": 2},
                      {"lambda": math.nan, "mult": 2}]}, 2),
        ({"entries": 5}, None),
        ({"truncation_bound": math.nan}, None),
        ({"truncation_bound": math.inf}, None),
        ({"measure": math.nan}, None),
    ])
    def test_usage_error_on_malformed_spectrum_file(self, capsys, tmp_path,
                                                    change, entry):
        doc = {"ambient_dim": 2, "measure": math.pi, "truncation_bound": 20.0,
               "entries": [{"lambda": 0.0, "mult": 1}]} | change
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        code, doc = run_json(capsys, "count", "--cross-section",
                             f"spectrum:{path}", "--lambda", "1e9", "5")
        assert code == EXIT_USAGE
        assert doc["schema"] == "coneh/1"
        assert doc["error"]["type"] == "InvalidArgument"
        assert doc["error"]["exit_code"] == EXIT_USAGE
        assert str(path) in doc["error"]["message"]
        if entry is not None:
            assert f"entry {entry}" in doc["error"]["message"]

    @pytest.mark.parametrize("modes, mode", [
        ([{"alpha": "abc", "c": 1.0, "mode_id": 1}], 0),
        ([{"alpha": 1.0, "c": 1.0, "mode_id": 1},
          {"alpha": math.nan, "c": 1.0, "mode_id": 2}], 1),
        ([{"alpha": 1.0, "c": math.inf, "mode_id": 1}], 0),
        ([{"alpha": 1.0, "c": 1.0, "mode_id": 1},
          {"alpha": -2.0, "c": 1.0, "mode_id": 2}], 1),
        ([{"alpha": 1.0, "c": 1.0, "mode_id": 1}, {"alpha": 2.0}], 1),
        (5, None),
        (None, None),
    ])
    def test_usage_error_on_malformed_harmonic_file(self, capsys, tmp_path,
                                                    modes, mode):
        doc = {"n": 2} if modes is None else {"n": 2, "modes": modes}
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        for argv in (["frequency", "--s", "1", "2"],
                     ["three-circles", "--k", "3", "--s", "1"]):
            code, doc = run_json(capsys, *argv, "--harmonic", str(path))
            assert code == EXIT_USAGE
            assert doc["schema"] == "coneh/1"
            assert doc["error"]["type"] == "InvalidArgument"
            assert doc["error"]["exit_code"] == EXIT_USAGE
            assert str(path) in doc["error"]["message"]
            if mode is not None:
                assert f"mode {mode}" in doc["error"]["message"]

    def test_usage_error_on_harmonic_file_syntax(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 2, "modes": [')
        code, doc = run_json(capsys, "frequency", "--harmonic", str(path),
                             "--s", "1")
        assert code == EXIT_USAGE
        assert doc["error"]["type"] == "InvalidArgument"
        assert str(path) in doc["error"]["message"]

    @pytest.mark.parametrize("name, text, where", [
        ("string.json", '[0.5, 0.5, "x", 0.5]', "sample 2"),
        ("quoted.json", '[0.5, 0.5, "x", 0.5]',
         'quoted.json: sample 2 must be a finite number, got "x"'),
        ("nan.json", "[0.5, 0.5, NaN, 0.5]", "sample 2"),
        ("huge.json", "[0.5, 1e400, 0.5, 0.5]", "sample 1"),
        ("bool.json", "[0.5, 0.5, 0.5, true]", "sample 3"),
        ("syntax.json", "[0.5, 0.5,", ":1:11:"),
        ("value.csv", "0,0.5\n1,abc\n2,0.5\n3,0.5\n", "row 2"),
        ("index.csv", "0,0.5\nx,0.5\n2,0.5\n3,0.5\n", "row 2"),
        ("float-index.csv", "0,0.5\n1.5,0.5\n", "row 2"),
        ("nan.csv", "0,0.5\n1,0.5\n2,nan\n", "row 3"),
        ("inf.csv", "# theta_index, a_value\n0,0.5\n1,inf\n", "row 3"),
        ("negative.json", "[0.5, -1, 0.5, 0.5]", "sample 1"),
        ("zero.csv", "0,0.5\n1,0.5\n2,0\n3,0.5\n", "sample 2"),
        ("short.json", "[0.5, 0.5]", "at least 4"),
        ("long.csv", "0,2\n1,2\n2,2\n3,2\n", "exceeds 2*pi"),
        # the sample sum passes the float range
        ("overflow.json", "[1e308, 1e308, 1e308, 1e308]",
         "total length inf exceeds 2*pi"),
        ("field.csv", "0," + "5" * 200_000 + "\n", "field larger"),
    ])
    def test_usage_error_on_malformed_density_file(self, capsys, tmp_path,
                                                   name, text, where):
        path = tmp_path / name
        path.write_text(text)
        code, doc = run_json(capsys, "count", "--cross-section",
                             f"metric-circle:{path}", "--lambda", "1.0")
        assert code == EXIT_USAGE
        assert doc["schema"] == "coneh/1"
        assert doc["error"]["type"] == "InvalidArgument"
        assert doc["error"]["exit_code"] == EXIT_USAGE
        assert str(path) in doc["error"]["message"]
        assert where in doc["error"]["message"]

    @pytest.mark.parametrize("argv", [
        ["verify-grid", "--mode", "1e308", "1", "1"],
        ["frequency", "--harmonic", "HUGE", "--s", "1", "10"],
        ["verify-grid", "--mode", "1", "1", "1", "--length", "1e-300",
         "--resolutions", "4", "8", "16"],
        # the theta spacing L / m underflows to 0
        ["verify-grid", "--mode", "1", "1", "1", "--length", "5e-324",
         "--resolutions", "4", "8", "16"],
        # alpha = L / 2 underflows to 0, and the limits with it
        ["asymptotic", "--cross-section", "circle:5e-324", "--n", "2",
         "--k", "3.5"],
        ["weyl", "--cross-section", "circle:5e-324", "--n", "2",
         "--lambda", "4"],
    ])
    def test_numeric_failure_past_the_float_range(self, capsys, tmp_path,
                                                  argv):
        # alpha = 1e308 overflows r^alpha on the grid and alpha * log s in
        # the log weights, L = 1e-300 overflows the theta stencil, and
        # L = 5e-324 takes the asymptotic limits below the float range; the
        # report must not print NaN, and no numpy warning precedes it
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 2, "modes": [
            {"alpha": 1e308, "c": 1.0, "mode_id": 1},
            {"alpha": 1.0, "c": 1.0, "mode_id": 2}]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(capsys, *[str(path) if a == "HUGE" else a
                                      for a in argv])
        doc = json.loads(out, parse_constant=pytest.fail)
        assert code == EXIT_VERIFICATION
        assert doc["schema"] == "coneh/1"
        assert doc["error"]["type"] == "NumericFailure"
        assert doc["error"]["exit_code"] == EXIT_VERIFICATION

    @pytest.mark.parametrize("argv, unscaled", [
        # a true harmonic with a subnormal coefficient: the order is that of
        # c = 1, though the residuals underflow
        (["--mode", "1", "1", "1e-320"], ["--mode", "1", "1", "1"]),
        # a window far below 1: the order is that of the window times 1e299
        (["--mode", "1", "1", "1", "--window", "1e-300", "1e-299"],
         ["--mode", "1", "1", "1", "--window", "0.1", "1"]),
    ])
    def test_verify_grid_is_scale_free(self, capsys, argv, unscaled):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["verify-grid", *argv])
        out, err = capsys.readouterr()
        assert err == ""
        doc = json.loads(out, parse_constant=pytest.fail)
        assert code == EXIT_OK and doc["order_in_contract"]
        assert 1.8 <= doc["fitted_order"] <= 2.2
        assert all(map(math.isfinite, doc["residual_max_norms"]))
        want = run_json(capsys, "verify-grid", *unscaled)[1]["fitted_order"]
        assert doc["fitted_order"] == pytest.approx(want, abs=1e-9)

    def test_verify_grid_length_past_the_float_range(self, capsys):
        # (2 pi / L)^2 underflows to 0, so r phi is not harmonic on this
        # cone: a finite verdict, with no numpy warning on the way.  The
        # residual is about g_0 / r at the node next to r_min, so it grows
        # with m, and the non-monotone warning is the only one
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["verify-grid", "--mode", "1", "1", "1",
                         "--length", "1e308", "--resolutions", "4", "8", "16"])
        out, err = capsys.readouterr()
        assert [w.category for w in caught] == [UserWarning]
        assert "non-monotone" in str(caught[0].message)
        assert err == ""
        doc = json.loads(out, parse_constant=pytest.fail)
        assert code == EXIT_VERIFICATION and not doc["order_in_contract"]
        assert all(map(math.isfinite, doc["residual_max_norms"]))
        assert math.isfinite(doc["fitted_order"])

    def test_verify_grid_mode_below_the_float_range(self, capsys):
        # r^1e308 underflows on [0.1, 0.5]: the residuals read 0, and the
        # order is fitted on the window scaled to end at 1, not on log 0
        with pytest.warns(UserWarning, match="non-monotone"):
            code, out = run(capsys, "verify-grid", "--mode", "1e308", "1",
                            "1", "--window", "0.1", "0.5")
        doc = json.loads(out, parse_constant=pytest.fail)
        assert code == EXIT_VERIFICATION and not doc["order_in_contract"]
        assert doc["residual_max_norms"] == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("kind", [
        "missing", "directory", "utf16", "deep", "digits"])
    @pytest.mark.parametrize("role", [
        "harmonic", "spectrum", "density.json", "density.csv"])
    def test_usage_error_on_unreadable_file(self, capsys, tmp_path, kind,
                                            role):
        path = tmp_path / ("input.csv" if role == "density.csv"
                           else "input.json")
        if kind == "directory":
            path.mkdir()
        elif kind == "utf16":
            path.write_bytes(b"\xff\xfe[\x001\x00]\x00")
        elif kind == "deep":
            path.write_text("[" * 100_000)
        elif kind == "digits":
            path.write_text("[" + "1" * 5000 + "]")
        argv = (["frequency", "--harmonic", str(path), "--s", "1"]
                if role == "harmonic" else
                ["count", "--cross-section", f"{role.split('.')[0]}:{path}",
                 "--lambda", "1"])
        code, doc = run_json(capsys, *[a.replace("density:", "metric-circle:")
                                       for a in argv])
        assert code == EXIT_USAGE
        assert doc["error"]["type"] == "InvalidArgument"
        assert doc["error"]["exit_code"] == EXIT_USAGE
        assert str(path) in doc["error"]["message"]

    @pytest.mark.parametrize("target", ["directory", "missing/report.json"])
    def test_usage_error_on_unwritable_output(self, capsys, tmp_path, target):
        (tmp_path / "directory").mkdir()
        path = tmp_path / target
        code, doc = run_json(capsys, "count", "--cross-section", "sphere:2",
                             "--lambda", "6", "--output", str(path))
        assert code == EXIT_USAGE
        assert doc["error"]["type"] == "InvalidArgument"
        assert doc["error"]["exit_code"] == EXIT_USAGE
        assert str(path) in doc["error"]["message"]

    @pytest.mark.parametrize("argv, size", [
        (["asymptotic", "--cross-section", "circle:1", "--n", "2",
          "--k", "1e12"], "1000000000000 orders"),
        (["asymptotic", "--cross-section", "sphere:3", "--n", "4",
          "--k", "2e7"], "20000000 orders"),
        (["hk", "--cross-section", "circle:6.283185307179586", "--n", "2",
          "--k-max", "1e12"], "1000000000002 levels"),
        (["spectrum", "--cross-section", "circle:6.283185307179586",
          "--lambda-max", "1e18"], "1000000001 levels"),
        (["spectrum", "--cross-section", "sphere:2", "--lambda-max", "1e18"],
         "1000000000 levels"),
        (["verify-grid", "--mode", "1", "1", "1", "--resolutions",
          "2048", "4096", "8192"], "67108864 points"),
        (["count", "--cross-section", "sphere:100000", "--lambda", "1"],
         "sphere dimension 100000 is past"),
        # the measure before any level count, and levels times d bounded
        (["spectrum", "--cross-section", "sphere:1000", "--lambda-max", "1e7"],
         "the measure of S^1000"),
        (["spectrum", "--cross-section", "sphere:400", "--lambda-max", "1e12"],
         "999801 levels, past 10485"),
        (["hk", "--cross-section", "sphere:400", "--n", "401",
          "--k-max", "1e6"], "levels, past 10485"),
    ])
    def test_numeric_failure_past_a_resource_ceiling(self, capsys, argv,
                                                      size):
        start = time.perf_counter()
        code, doc = run_json(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert code == EXIT_VERIFICATION
        assert doc["error"]["type"] == "NumericFailure"
        assert doc["error"]["exit_code"] == EXIT_VERIFICATION
        assert size in doc["error"]["message"]

    @pytest.mark.parametrize("cs, n", [("sphere:2", 3),
                                       ("circle:6.283185307179586", 2)])
    def test_cesaro_sum_at_the_order_ceiling(self, capsys, cs, n):
        k = 16777215.5  # 2**24 - 1 orders
        code, doc = run_json(capsys, "asymptotic", "--cross-section", cs,
                             "--n", str(n), "--k", repr(k))
        assert code == EXIT_OK
        row = doc["table"][0]
        K = int(k)
        # sphere:2 counts (l + 1)**2 through level l, circle:2*pi 2l + 1
        total = K * (K + 1) * (2 * K + 1) // 6 if n == 3 else K * K
        assert row["cesaro_ratio"] == pytest.approx(total / k ** n, rel=1e-15)
        if n == 3:
            X = parse_cross_section(cs)
            assert X.cesaro_total(k) == total
        code, doc = run_json(capsys, "asymptotic", "--cross-section", cs,
                             "--n", str(n), "--k", "16777217")
        assert code == EXIT_VERIFICATION
        assert doc["error"]["type"] == "NumericFailure"
        assert "needs 16777217 orders, past 16777216" in doc["error"]["message"]

    @pytest.mark.parametrize("argv, error", [
        (["weyl", "--cross-section", "sphere:4", "--n", "5",
          "--lambda", "1e-300"], "the Weyl ratio at lambda = 1e-300"),
        (["asymptotic", "--cross-section", "sphere:3", "--n", "4",
          "--k", "1e-300"], "the pointwise ratio at k = 1e-300"),
        (["asymptotic", "--cross-section", "circle:3", "--n", "2",
          "--k", "1e-300", "2.5"], None),
        (["weyl", "--cross-section", "sphere:400", "--n", "401",
          "--lambda", "10"], "the Weyl limit"),
        (["hk", "--cross-section", "sphere:400", "--n", "401", "--k", "2.5"],
         None),
        (["hk", "--cross-section", "sphere:1000", "--n", "1001",
          "--k", "1e12"], "more than 4300 digits"),
        (["hk", "--cross-section", "sphere:1000", "--n", "1001",
          "--k", "1e12", "--format", "csv"], "more than 4300 digits"),
        # every eigenvalue past level 0 overflows to inf on these circles
        *(([cmd, "--cross-section", cs, *rest], None)
          for cs in ["circle:1e-300", "circle:5e-324", "metric-circle:TINY"]
          for cmd, *rest in [["hk", "--n", "2", "--k", "3.5"],
                             ["hk", "--n", "2", "--k-max", "5"],
                             ["count", "--lambda", "1", "4"],
                             ["spectrum", "--lambda-max", "9"],
                             ["asymptotic", "--n", "2", "--k", "3.5", "100.5"]]
          if (cs, cmd) != ("circle:5e-324", "asymptotic")),
    ])
    def test_tiny_or_high_dimensional_input(self, capsys, tmp_path, argv,
                                            error):
        # each once ended in OverflowError from a float ** or math.gamma,
        # or in ValueError from printing an h_k of some 12000 digits, or
        # printed a numpy overflow warning
        tiny = tmp_path / "tiny.json"
        tiny.write_text(json.dumps([1e-300] * 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(capsys, *[a.replace("TINY", str(tiny))
                                      for a in argv])
        doc = json.loads(out, parse_constant=pytest.fail)
        assert doc["schema"] == "coneh/1"
        if error is None:
            assert code == EXIT_OK and "error" not in doc
        else:
            assert code == EXIT_VERIFICATION
            assert doc["error"]["type"] == "NumericFailure"
            assert error in doc["error"]["message"]

    def test_high_dimensional_spectrum_within_the_ceiling(self, capsys):
        code, doc = run_json(capsys, "spectrum", "--cross-section",
                             "sphere:400", "--lambda-max", "1e7")
        assert code == EXIT_OK
        entries = doc["spectrum"]["entries"]
        assert len(entries) == 2970
        assert entries[1] == {"lambda": 400.0, "mult": 401}

    def test_count_reports_first_bad_lambda(self, capsys):
        # the whole list is looked up at once; the error is still the one
        # of its first bad entry
        code, doc = run_json(capsys, "count", "--cross-section", "circle:3",
                             "--lambda", "5", "-1", "nan")
        assert code == EXIT_USAGE
        assert "nonnegative" in doc["error"]["message"]

    def test_usage_error_on_unknown_flag(self, capsys):
        code = main(["count", "--cross-section", "sphere:2"])
        capsys.readouterr()
        assert code == EXIT_USAGE

    def test_usage_error_on_missing_file(self, capsys):
        code = main(["frequency", "--harmonic", "/nonexistent.json",
                     "--s", "1.0"])
        capsys.readouterr()
        assert code == EXIT_USAGE

    def test_resolution_insufficient(self, capsys, spectrum_file):
        code, doc = run_json(capsys, "count", "--cross-section",
                             f"spectrum:{spectrum_file}", "--lambda", "100")
        assert code == EXIT_RESOLUTION
        assert doc["error"]["type"] == "ResolutionInsufficient"
        assert doc["error"]["certified_bound"] == 20.0

    def test_verification_failure_on_cap_violation(self, capsys,
                                                   harmonic_file):
        code, doc = run_json(capsys, "three-circles", "--harmonic",
                             harmonic_file, "--k", "1.5", "--s", "1.0")
        assert code == EXIT_VERIFICATION
        assert doc["error"]["type"] == "PreconditionViolation"

    def test_verify_grid_failure_on_non_harmonic_mode(self, capsys):
        # wrong exponent for the mode number: residual does not shrink at
        # second order, so the order check must fail
        with pytest.warns(UserWarning, match="non-monotone"):
            code, doc = run_json(capsys, "verify-grid", "--mode",
                                 "1.5", "2", "1",
                                 "--resolutions", "32", "64", "128")
        assert code == EXIT_VERIFICATION
        assert not doc["order_in_contract"]


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "coneh", "count", "--cross-section",
             "sphere:2", "--lambda", "6"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["counts"][0]["count"] == 9

    def test_version_flag(self, capsys):
        code = main(["--version"])
        out = capsys.readouterr().out
        assert code == 0 and out.strip()
