"""Tests of the benchmark's output checks: each passes coneh's real output
and rejects a perturbed copy of it.

    python3 -m pytest bench/test_checks.py
"""

import copy
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks as C  # noqa: E402
import workloads as W  # noqa: E402


def cli(tmp_path, *argv):
    code, doc, _ = W.run_op(W.Op("test", None, list(argv)), tmp_path / "out.json")
    return code, doc


def rejects(check, *args):
    with pytest.raises(C.Wrong):
        check(*args)


def test_geometry_against_known_values():
    assert C.sphere_area(1) == pytest.approx(2 * math.pi)
    assert C.sphere_area(2) == pytest.approx(4 * math.pi)
    assert C.sphere_area(3) == pytest.approx(2 * math.pi ** 2)
    assert C.ball_volume(3) == pytest.approx(4 * math.pi / 3)
    for n in range(2, 7):
        for l in range(12):
            assert C.harmonic_dim(n, l) == sum(C.sphere_multiplicity(n, j)
                                               for j in range(l + 1))


@pytest.mark.parametrize("cs,model,k", [
    ("sphere:2", C.SphereModel(2), 2.3),
    ("sphere:4", C.SphereModel(4), 7.3),
    (W._circle(Fraction(1, 3)), C.CircleModel(Fraction(1, 3)), 7.3),
])
def test_hk_upper_off_by_two(tmp_path, cs, model, k):
    code, doc = cli(tmp_path, "hk", "--cross-section", cs, "--n", str(model.n),
                    "--k", repr(k))
    C.check_hk(doc, model, k)
    for field in ("upper", "lower", "exact"):
        bad = copy.deepcopy(doc)
        bad["growth_report"][field] += 2
        rejects(C.check_hk, bad, model, k)
    bad = copy.deepcopy(doc)
    bad["growth_report"]["nearest_resonance"] += 1
    rejects(C.check_hk, bad, model, k)


def test_circle_resonance_fault_is_recognised(tmp_path):
    x, k = Fraction(1, 2), 26.0
    model = C.CircleModel(x)
    code, doc = cli(tmp_path, "hk", "--cross-section", W._circle(x), "--n", "2",
                    "--k", repr(k))
    assert model.count(C.exact_eigenvalue(k, 2)) == 27
    try:
        C.check_hk(doc, model, k)
    except C.Wrong:
        assert C.hk_misses_resonant_space(doc, model, k)
    # a correct report is not mistaken for the fault
    fixed = copy.deepcopy(doc)
    fixed["growth_report"]["upper"] = 27
    C.check_hk(fixed, model, k)
    assert not C.hk_misses_resonant_space(fixed, model, k)


def test_staircase_rejects_wrong_jump_and_gap(tmp_path):
    model, k_max = C.SphereModel(2), 6.5
    code, doc = cli(tmp_path, "hk", "--cross-section", "sphere:2", "--n", "3",
                    "--k-max", repr(k_max))
    C.check_staircase(doc, model, k_max)
    bad = copy.deepcopy(doc)
    bad["staircase"][3]["h"] -= 5
    bad["staircase"][3]["jump"] -= 5
    rejects(C.check_staircase, bad, model, k_max)
    bad = copy.deepcopy(doc)
    bad["staircase"][2]["k_hi"] += 0.5
    rejects(C.check_staircase, bad, model, k_max)
    bad = copy.deepcopy(doc)
    del bad["staircase"][4]
    rejects(C.check_staircase, bad, model, k_max)


def test_count_weyl_collapsed(tmp_path):
    model = C.CircleModel(Fraction(3, 7))
    cs = W._circle(Fraction(3, 7))
    lams = [3.3, 100.7, 1234.5]
    code, doc = cli(tmp_path, "count", "--cross-section", cs, "--lambda",
                    *W._fmt(lams))
    C.check_count(doc, model, lams)
    bad = copy.deepcopy(doc)
    bad["counts"][1]["count"] += 2
    rejects(C.check_count, bad, model, lams)

    code, doc = cli(tmp_path, "weyl", "--cross-section", cs, "--n", "2",
                    "--lambda", *W._fmt(lams))
    C.check_weyl(doc, model, lams)
    bad = copy.deepcopy(doc)
    bad["weyl"][2]["ratio"] *= 1.01
    rejects(C.check_weyl, bad, model, lams)
    bad = copy.deepcopy(doc)
    bad["weyl"][0]["deviation"] = 2 * model.weyl_bound(lams[0])
    rejects(C.check_weyl, bad, model, lams)

    code, doc = cli(tmp_path, "collapsed", "--cross-section", "sphere:3",
                    "--n", "4", "--m", "4", "--k", "5.5")
    C.check_collapsed(doc, C.SphereModel(3), 5.5)
    bad = copy.deepcopy(doc)
    bad["collapsed_report"]["upper"] += 2
    rejects(C.check_collapsed, bad, C.SphereModel(3), 5.5)


@pytest.mark.parametrize("cs,model", [
    ("sphere:2", C.SphereModel(2)), ("sphere:5", C.SphereModel(5)),
    (W._circle(Fraction(5, 8)), C.CircleModel(Fraction(5, 8)))])
def test_asymptotic_rejects_wrong_ratios(tmp_path, cs, model):
    ks = [12.3, 345.7]
    code, doc = cli(tmp_path, "asymptotic", "--cross-section", cs,
                    "--n", str(model.n), "--k", *W._fmt(ks))
    C.check_asymptotic(doc, model, ks)
    for field in ("pointwise_ratio", "cesaro_ratio"):
        bad = copy.deepcopy(doc)
        bad["table"][1][field] *= 1.01
        rejects(C.check_asymptotic, bad, model, ks)
    bad = copy.deepcopy(doc)
    bad["cesaro_limit"] *= 2
    rejects(C.check_asymptotic, bad, model, ks)


def test_explicit_spectrum_count(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "spectrum.json"
    model = W.write_spectrum(rng, path, entries=200)
    lams = [0.5, model.lams[50] + 0.01, model.lams[150] - 0.01]
    code, doc = cli(tmp_path, "count", "--cross-section", f"spectrum:{path}",
                    "--lambda", *W._fmt(lams))
    C.check_count(doc, model, lams)
    bad = copy.deepcopy(doc)
    bad["counts"][2]["count_left"] -= 2
    rejects(C.check_count, bad, model, lams)


def test_metric_spectrum_rejects_short_bars(tmp_path):
    rng = np.random.default_rng(5)
    dens = W.smooth_density(rng, 0.6)
    path = tmp_path / "density.json"
    path.write_text(json.dumps(dens))
    model = C.metric_circle_model(dens)
    lam = (1.5 / float(model.x)) ** 2
    code, doc = cli(tmp_path, "spectrum", "--cross-section",
                    f"metric-circle:{path}", "--lambda-max", repr(lam))
    C.check_metric_spectrum(doc, model, lam)
    true = (1 / float(model.x)) ** 2
    bad = copy.deepcopy(doc)
    err = abs(bad["spectrum"]["entries"][1]["lambda"] - true)
    bad["spectrum"]["error_bars"][1] = err / 2
    bad["spectrum"]["entries"][1]["lambda"] = true + 2 * err + 1e-9
    rejects(C.check_metric_spectrum, bad, model, lam)
    bad = copy.deepcopy(doc)
    bad["spectrum"]["error_bars"][1] = 2e-6 * true
    rejects(C.check_metric_spectrum, bad, model, lam)
    bad = copy.deepcopy(doc)
    bad["spectrum"]["entries"][1]["mult"] = 1
    rejects(C.check_metric_spectrum, bad, model, lam)
    bad = copy.deepcopy(doc)
    del bad["spectrum"]["entries"][1], bad["spectrum"]["error_bars"][1]
    rejects(C.check_metric_spectrum, bad, model, lam)


def test_metric_cap_fault_is_recognised():
    doc = {"error": {"type": "ResolutionInsufficient", "exit_code": 2}}
    assert C.metric_cap_not_certified(2, doc)
    assert not C.metric_cap_not_certified(0, {"spectrum": {}})


def test_selftest_rejects_failed_check():
    doc = {"seed": 42, "all_passed": True,
           "checks": [{"name": "a", "passed": True}]}
    C.check_selftest(doc, 42)
    bad = copy.deepcopy(doc)
    bad["checks"][0]["passed"] = False
    rejects(C.check_selftest, bad, 42)


def _harmonic(tmp_path, n, alpha, c):
    path = tmp_path / "u.json"
    W._harmonic(path, n, alpha, c)
    return path


def test_frequency_rejects_non_monotone_u(tmp_path):
    alpha, c, n = np.array([0.7, 3.1, 9.4]), np.array([2.0, -1.5, 0.3]), 3
    svals = [0.1, 0.5, 2.0, 9.0]
    path = _harmonic(tmp_path, n, alpha, c)
    code, doc = cli(tmp_path, "frequency", "--harmonic", str(path),
                    "--s", *W._fmt(svals))
    C.check_frequency(code, doc, alpha, c, n, svals)
    bad = copy.deepcopy(doc)
    t = bad["table"]
    t[1]["U"], t[2]["U"] = t[2]["U"], t[1]["U"]
    rejects(C.check_frequency, code, bad, alpha, c, n, svals)
    bad = copy.deepcopy(doc)
    bad["table"][3]["U"] = 9.5
    rejects(C.check_frequency, code, bad, alpha, c, n, svals)
    bad = copy.deepcopy(doc)
    bad["identity_residuals"][0]["residual"] = 1e-7
    rejects(C.check_frequency, code, bad, alpha, c, n, svals)
    bad = copy.deepcopy(doc)
    bad["table"][2]["I"] *= 1 + 1e-6
    rejects(C.check_frequency, code, bad, alpha, c, n, svals)


def test_own_quadrature_reproduces_the_identity():
    rng = np.random.default_rng(9)
    alpha, c = rng.uniform(0.05, 20, 64), rng.uniform(-10, 10, 64)
    for r, s in ((0.01, 1.0), (0.3, 30.0), (1.0, 100.0)):
        exact = C.log_functional(alpha, c, s) - C.log_functional(alpha, c, r)
        assert abs(C.log_height_increment(alpha, c, r, s) - exact) < 1e-10


def test_three_circles_rejects_ratio_above_bound(tmp_path):
    alpha, c, n, k = np.array([1.2, 4.0]), np.array([1.0, 0.5]), 2, 4.0
    svals = [0.5, 3.0]
    path = _harmonic(tmp_path, n, alpha, c)
    code, doc = cli(tmp_path, "three-circles", "--harmonic", str(path),
                    "--k", repr(k), "--s", *W._fmt(svals))
    C.check_three_circles(code, doc, alpha, c, n, k, svals)
    bad = copy.deepcopy(doc)
    bad["three_circles"][1]["ratio"] = 1.5 * bad["three_circles"][1]["bound"]
    rejects(C.check_three_circles, code, bad, alpha, c, n, k, svals)
    # two modes stay below the bound, so they cannot pass as saturated
    rejects(C.check_three_circles, code, doc, alpha, c, n, k, svals, True)


def test_overflow_fault_is_recognised(tmp_path):
    n, alpha, c = W.OVERFLOW_HARMONIC
    path = _harmonic(tmp_path, n, alpha, c)
    code, doc = cli(tmp_path, "three-circles", "--harmonic", str(path),
                    "--k", "200", "--s", "10")
    try:
        C.check_three_circles(code, doc, alpha, c, n, 200.0, [10.0])
    except C.Wrong:
        assert C.functionals_overflowed(code, doc)
    assert not C.functionals_overflowed(0, {"three_circles": [{"ratio": 2.0}]})


def test_verify_grid_rejects_wrong_order(tmp_path):
    res = [32, 64, 128]
    code, doc = cli(tmp_path, "verify-grid", "--mode", "2.0", "2", "1.0",
                    "--resolutions", *map(str, res))
    C.check_verify_grid(code, doc, res, harmonic=True)
    bad = copy.deepcopy(doc)
    bad["fitted_order"] = 1.5
    rejects(C.check_verify_grid, code, bad, res, True)
    rejects(C.check_verify_grid, code, doc, res, False)
    code, doc = cli(tmp_path, "verify-grid", "--mode", "2.7", "2", "1.0",
                    "--resolutions", *map(str, res))
    C.check_verify_grid(code, doc, res, harmonic=False)


def test_grid_j_rejects_error_beyond_bound():
    from coneh import gridcheck

    L, alpha, c, j = 2 * math.pi * 0.5, np.array([2.0, 4.0]), np.array([1.0, 0.7]), [1, 2]
    r_min, r_max, m_r, s = 0.005, 1.1, 512, 1.0
    grid = gridcheck.ConeGrid(L, r_min, r_max, W.sample_circle_harmonic(
        L, alpha, c, j, r_min, r_max, m_r, 64))
    value = gridcheck.grid_J(grid, s)
    C.check_grid_j(value, alpha, c, r_min, r_max, m_r, s)
    tol = C.grid_j_tolerance(alpha, c, r_min, r_max, m_r, s)
    rejects(C.check_grid_j, value + 2 * tol, alpha, c, r_min, r_max, m_r, s)
