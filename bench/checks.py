"""Output checks for the benchmark, computed apart from coneh.

Every expected value comes from an independent computation (closed forms
in exact integer or rational arithmetic, the benchmark's own counting
search, its own Gauss-Legendre quadrature) or from a bound the method must
satisfy.  No check compares against a stored copy of coneh's output.

A check returns None when the output is right and raises `Wrong` when it
is not.  The `*_fault`-style predicates (`hk_misses_resonant_space`,
`metric_cap_not_certified`, `functionals_overflowed`) recognise the known
faults that the benchmark keeps as failed operations; see README.md.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

import numpy as np


class Wrong(Exception):
    """An output of coneh disagrees with the independent computation."""


def expect(cond: bool, msg: str):
    if not cond:
        raise Wrong(msg)


def close(got, want, rtol: float, atol: float = 0.0) -> bool:
    return (isinstance(got, (int, float)) and math.isfinite(got)
            and abs(got - want) <= atol + rtol * abs(want))


def expect_close(got, want, rtol: float, what: str, atol: float = 0.0):
    expect(close(got, want, rtol, atol), f"{what}: got {got!r}, want {want!r}")


# -- geometry, computed without coneh's formulas ------------------------------

def sphere_area(d: int) -> float:
    """|S^d| by the recursion |S^d| = 2*pi/(d-1) * |S^(d-2)|."""
    area = 2.0 if d % 2 == 0 else 2.0 * math.pi
    for k in range(2 if d % 2 == 0 else 3, d + 1, 2):
        area *= 2.0 * math.pi / (k - 1)
    return area


def ball_volume(m: int) -> float:
    return sphere_area(m - 1) / m


def harmonic_dim(n: int, l: int) -> int:
    """Dimension of harmonic polynomials of degree <= l on R^n: P_l + P_(l-1)."""
    if l < 0:
        return 0
    return math.comb(n + l - 1, n - 1) + (math.comb(n + l - 2, n - 1) if l else 0)


def sphere_multiplicity(n: int, l: int) -> int:
    """Dimension of degree-l harmonic polynomials on R^n: P_l - P_(l-2)."""
    return math.comb(n + l - 1, n - 1) - (
        math.comb(n + l - 3, n - 1) if l >= 2 else 0)


# -- cross-section models: N(lam), resonances and limits ---------------------

class SphereModel:
    """The unit sphere S^d, cross-section of R^(d+1)."""

    rtol = 0.0

    def __init__(self, d: int):
        self.d, self.n = d, d + 1
        self.measure = sphere_area(d)
        self.pointwise_limit = 2.0 / math.factorial(d)
        self.cesaro_limit = 2.0 / math.factorial(d + 1)
        self.weyl_limit = 2.0 / math.factorial(d)

    def degree(self, lam, strict=False) -> int:
        """Largest l with l*(l+d-1) <= lam (< lam when strict); -1 if none."""
        lam = Fraction(lam)
        l = max(int(math.isqrt(max(int(lam), 0))), 0)
        ok = (lambda v: v < lam) if strict else (lambda v: v <= lam)
        while ok((l + 1) * (l + self.d)):
            l += 1
        while l >= 0 and not ok(l * (l + self.d - 1)):
            l -= 1
        return l

    def count(self, lam, strict=False) -> int:
        return harmonic_dim(self.n, self.degree(lam, strict))

    def resonances_near(self, k: float) -> list[float]:
        return [float(math.floor(k)), float(math.floor(k) + 1)]

    def is_resonance(self, beta: float) -> bool:
        return beta >= 0 and beta == round(beta)

    def pointwise_bound(self, k: float) -> float:
        d = self.d
        return self.pointwise_limit * max((1 + d / k) ** d - 1,
                                          1 - (1 - 1 / k) ** d)

    def cesaro_interval(self, k: float) -> tuple[float, float]:
        K, d = math.floor(k), self.d
        total = math.comb(K + d, d + 1) + math.comb(K + d - 1, d + 1)
        exact = float(Fraction(total) / Fraction(k) ** self.n)
        return exact, exact

    def cesaro_bound(self, k: float) -> float:
        d = self.d
        return self.cesaro_limit * max((1 + d / k) ** (d + 1) - 1,
                                       1 - (1 - 2 / k) ** (d + 1))

    def weyl_bound(self, lam: float) -> float:
        s, d = math.sqrt(lam), self.d
        return max((1 + d / s) ** d - 1, 1 - (1 - (d + 1) / (2 * s)) ** d)


class CircleModel:
    """A circle of length 2*pi*x, x = L/(2*pi) in (0, 1]; eigenvalues (j/x)^2."""

    def __init__(self, x, rtol: float = 1e-12):
        self.x = Fraction(x)
        self.n = 2
        #: relative tolerance on a reported resonance (numeric spectra are
        #: only known to within their certified bars)
        self.rtol = rtol
        self.measure = 2.0 * math.pi * float(self.x)
        self.pointwise_limit = 2.0 * float(self.x)
        self.cesaro_limit = float(self.x)
        self.weyl_limit = 2.0 * float(self.x)

    def index(self, lam, strict=False) -> int:
        """Largest j with (j/x)^2 <= lam (< lam when strict); -1 if none."""
        lam = Fraction(lam)
        if lam < 0 or (strict and lam == 0):
            return -1
        y = lam * self.x * self.x
        j = math.isqrt(math.floor(y))
        if strict and j * j == y:
            j -= 1
        return j

    def count(self, lam, strict=False) -> int:
        j = self.index(lam, strict)
        return 0 if j < 0 else 1 + 2 * j

    def exponent(self, j: int) -> float:
        return float(j / self.x)

    def resonances_near(self, k: float) -> list[float]:
        j = math.floor(Fraction(k) * self.x)
        return [self.exponent(j), self.exponent(j + 1)]

    def is_resonance(self, beta: float) -> bool:
        j = round(beta * float(self.x))
        return abs(beta - self.exponent(j)) <= self.rtol * max(1.0, beta)

    def pointwise_bound(self, k: float) -> float:
        return 1.0 / k

    def cesaro_interval(self, k: float) -> tuple[float, float]:
        # h(beta) = 1 + 2*floor(beta*x) lies in [2*beta*x - 1, 2*beta*x + 1];
        # the sampling offset delta lies in (0, 1/4].
        K, x = math.floor(k), float(self.x)
        lo = (x * K * (K - 1) - K) / k ** 2
        hi = (x * (K * (K - 1) + K / 2) + K) / k ** 2
        return lo, hi

    def cesaro_bound(self, k: float) -> float:
        lo, hi = self.cesaro_interval(k)
        return max(abs(lo - self.cesaro_limit), abs(hi - self.cesaro_limit))

    def weyl_bound(self, lam: float) -> float:
        return 1.0 / (math.sqrt(lam) * self.weyl_limit)


class SpectrumModel:
    """An explicit grouped spectrum, counted by its own cumulative search."""

    rtol = 1e-12

    def __init__(self, n: int, lams, mults, measure: float, bound: float):
        self.n, self.measure, self.bound = n, measure, bound
        self.lams = list(lams)
        self.cum = list(np.cumsum(mults, dtype=np.int64).tolist())
        self.weyl_limit = measure * ball_volume(n - 1) / (2 * math.pi) ** (n - 1)

    def count(self, lam, strict=False) -> int:
        lam = float(lam)
        i = (bisect.bisect_left if strict else bisect.bisect_right)(self.lams, lam)
        return self.cum[i - 1] if i else 0

    def exponent(self, lam: float) -> float:
        n = self.n
        return ((2.0 - n) + math.sqrt((n - 2.0) ** 2 + 4.0 * lam)) / 2.0

    def resonances_near(self, k: float) -> list[float]:
        i = bisect.bisect_right(self.lams, k * (k + self.n - 2))
        return [self.exponent(self.lams[j]) for j in (i - 1, i)
                if 0 <= j < len(self.lams)]

    def is_resonance(self, beta: float) -> bool:
        lam = beta * (beta + self.n - 2)
        i = bisect.bisect_left(self.lams, lam)
        return any(abs(self.exponent(self.lams[j]) - beta)
                   <= self.rtol * max(1.0, beta)
                   for j in (i - 1, i) if 0 <= j < len(self.lams))


def exact_eigenvalue(k: float, n: int) -> Fraction:
    k = Fraction(k)
    return k * (k + n - 2)


# -- growth reports ------------------------------------------------------------

def check_hk(doc: dict, model, k: float):
    rep = doc["growth_report"]
    n = model.n
    lam = exact_eigenvalue(k, n)
    upper, left = model.count(lam), model.count(lam, strict=True)
    resonant = upper != left
    expect(rep["k"] == k and rep["n"] == n, f"hk echo {rep['k']}, {rep['n']}")
    expect(rep["upper"] == upper, f"hk upper at k={k}: got {rep['upper']}, "
                                  f"want N({float(lam)}) = {upper}")
    expect(rep["lower"] == max(1, left),
           f"hk lower at k={k}: got {rep['lower']}, want {max(1, left)}")
    expect(rep["resonant"] == resonant,
           f"hk resonant at k={k}: got {rep['resonant']}")
    expect(rep["exact"] == (None if resonant else upper),
           f"hk exact at k={k}: got {rep['exact']}")
    beta = rep["nearest_resonance"]
    expect(model.is_resonance(beta), f"hk nearest_resonance {beta} is no resonance")
    best = min(abs(k - b) for b in model.resonances_near(k) if b <= k + 1.0)
    expect(abs(k - beta) <= best + (model.rtol + 1e-12) * max(1.0, k),
           f"hk nearest_resonance {beta} is not the nearest to k={k}")


def hk_misses_resonant_space(doc: dict, model, k: float) -> bool:
    """Fault signature: at a resonant k, upper omits the resonant eigenspace."""
    rep = doc.get("growth_report", {})
    lam = exact_eigenvalue(k, model.n)
    left = model.count(lam, strict=True)
    return model.count(lam) != left and rep.get("upper") == left


def check_staircase(doc: dict, model: SphereModel, k_max: float):
    """Steps are contiguous, h is monotone and each jump is the multiplicity.

    Staircases are checked on spheres, whose resonances are the integers.
    """
    steps = doc["staircase"]
    n = model.n
    expect(len(steps) == 1 + math.floor(k_max),
           f"staircase has {len(steps)} steps, want {1 + math.floor(k_max)}")
    expect(steps[0]["k_lo"] == 0.0 and steps[0]["h"] == 1
           and steps[0]["jump"] == 0, f"staircase start {steps[0]}")
    expect(steps[-1]["k_hi"] == k_max, f"staircase end {steps[-1]}")
    for a, b in zip(steps, steps[1:]):
        expect(a["k_hi"] == b["k_lo"], f"staircase gap between {a} and {b}")
        expect(b["h"] >= a["h"], f"staircase not monotone at {b}")
    for l, s in enumerate(steps[1:], start=1):
        expect(s["k_lo"] == l, f"staircase step {s} is not at the resonance {l}")
        expect(s["h"] == harmonic_dim(n, l), f"staircase h at {s}, "
                                             f"want {harmonic_dim(n, l)}")
        expect(s["jump"] == sphere_multiplicity(n, l),
               f"staircase jump {s['jump']} at {l}, want the multiplicity "
               f"{sphere_multiplicity(n, l)}")


def check_count(doc: dict, model, lams: list[float]):
    rows = doc["counts"]
    expect(len(rows) == len(lams), "count row number")
    for row, lam in zip(rows, lams):
        expect(row["lambda"] == lam, f"count echo {row['lambda']}")
        expect(row["count"] == model.count(lam),
               f"N({lam}): got {row['count']}, want {model.count(lam)}")
        expect(row["count_left"] == model.count(lam, strict=True),
               f"N-({lam}): got {row['count_left']}")


def check_weyl(doc: dict, model, lams: list[float]):
    rows = doc["weyl"]
    n = model.n
    expect(len(rows) == len(lams), "weyl row number")
    for row, lam in zip(rows, lams):
        ratio = model.count(lam) * lam ** (-(n - 1) / 2.0)
        expect_close(row["ratio"], ratio, 1e-12, f"weyl ratio at {lam}")
        expect_close(row["limit"], model.weyl_limit, 1e-12, "weyl limit")
        expect_close(row["deviation"],
                     abs(row["ratio"] - row["limit"]) / row["limit"], 1e-12,
                     f"weyl deviation at {lam}", atol=1e-15)
        if hasattr(model, "weyl_bound"):
            expect(row["deviation"] <= model.weyl_bound(lam) + 1e-12,
                   f"weyl deviation {row['deviation']} beyond the "
                   f"O(lambda^-1/2) bound {model.weyl_bound(lam)}")


def check_collapsed(doc: dict, model, k: float):
    rep = doc["collapsed_report"]
    n = m = model.n
    lam = exact_eigenvalue(k, m)
    expect(rep["lower"] == max(1, model.count(lam, strict=True))
           and rep["upper"] == model.count(lam),
           f"collapsed m=n at k={k}: ({rep['lower']}, {rep['upper']}) "
           f"differs from h_k")
    expect(rep["m"] == m and rep["n"] == n, "collapsed echo")
    expect_close(rep["V"], model.measure, 1e-12, "collapsed V")
    expect_close(rep["limit_ratio"],
                 2.0 * model.measure / (math.factorial(m) * ball_volume(m)),
                 1e-12, "collapsed limit_ratio")


def check_asymptotic(doc: dict, model, ks: list[float]):
    n = model.n
    expect_close(doc["pointwise_limit"], model.pointwise_limit, 1e-12,
                 "pointwise limit")
    expect_close(doc["cesaro_limit"], model.cesaro_limit, 1e-12, "Cesaro limit")
    rows = doc["table"]
    expect(len(rows) == len(ks), "asymptotic row number")
    for row, k in zip(rows, ks):
        expect(row["k"] == k, f"asymptotic echo {row['k']}")
        ratio = model.count(exact_eigenvalue(k, n)) * k ** (1 - n)
        expect_close(row["pointwise_ratio"], ratio, 1e-12,
                     f"pointwise ratio at k={k}")
        expect_close(row["pointwise_deviation"],
                     abs(row["pointwise_ratio"] - doc["pointwise_limit"]),
                     0, f"pointwise deviation at k={k}", atol=1e-15)
        expect(row["pointwise_deviation"] <= model.pointwise_bound(k) + 1e-12,
               f"pointwise deviation {row['pointwise_deviation']} beyond "
               f"the O(1/k) bound {model.pointwise_bound(k)} at k={k}")
        lo, hi = model.cesaro_interval(k)
        c = row["cesaro_ratio"]
        expect(lo * (1 - 1e-12) <= c <= hi * (1 + 1e-12),
               f"Cesaro ratio {c} outside [{lo}, {hi}] at k={k}")
        expect_close(row["cesaro_deviation"], abs(c - doc["cesaro_limit"]), 0,
                     f"Cesaro deviation at k={k}", atol=1e-15)
        expect(row["cesaro_deviation"] <= model.cesaro_bound(k) + 1e-12,
               f"Cesaro deviation beyond the O(1/k) bound at k={k}")


# -- metric circles ------------------------------------------------------------

def metric_circle_model(density) -> CircleModel:
    """L = 2*pi*mean(density), the periodic rectangle rule, summed exactly."""
    return CircleModel(Fraction(math.fsum(density)) / len(density))


def check_metric_spectrum(doc: dict, model: CircleModel, lam_max: float):
    spec = doc["spectrum"]
    entries, bars = spec["entries"], spec["error_bars"]
    expect(len(bars) == len(entries), "one error bar per entry")
    expect(spec["truncation_bound"] == lam_max, "truncation bound echo")
    expect_close(spec["measure"], model.measure, 1e-12, "measure")
    want = model.index(lam_max) + 1
    expect(len(entries) == want,
           f"{len(entries)} eigenvalue groups <= {lam_max}, want {want}")
    for j, (ent, bar) in enumerate(zip(entries, bars)):
        true = float(Fraction(j) ** 2 / model.x ** 2)
        expect(ent["mult"] == (1 if j == 0 else 2),
               f"multiplicity {ent['mult']} of group {j}")
        expect(bar <= 1e-6 * max(1.0, true),
               f"bar {bar} of group {j} exceeds 1e-6*max(1, lambda)")
        # 1e-13 * lambda covers the rounding of L, a sum of the samples
        err = abs(ent["lambda"] - true)
        expect(err <= bar + 1e-13 * true,
               f"eigenvalue {ent['lambda']} of group {j} is {err:.3g} from "
               f"(2*pi*j/L)^2 = {true}, beyond its bar {bar}")


def check_selftest(doc: dict, seed: int):
    expect(doc["seed"] == seed, "selftest seed echo")
    failed = [c["name"] for c in doc["checks"] if not c["passed"]]
    expect(doc["all_passed"] is True and not failed and doc["checks"],
           f"selftest failed checks {failed}")


def metric_cap_not_certified(code: int, doc: dict) -> bool:
    """Fault signature: ResolutionInsufficient at the resolution cap."""
    return code == 2 and doc.get("error", {}).get("type") == "ResolutionInsufficient"


# -- frequency functionals -----------------------------------------------------

def log_functional(alpha, c, s, weight=None) -> float:
    """log of sum c_i^2 * weight_i * s^(2 alpha_i), by log-sum-exp."""
    logs = np.log(c * c) + 2.0 * alpha * math.log(s)
    if weight is not None:
        logs = logs + np.log(weight)
    top = logs.max()
    return float(top + math.log(np.exp(logs - top).sum()))


def frequency(alpha, c, s) -> np.ndarray:
    """U = D/I at each radius in s, from log-sum-exp weights."""
    logs = np.log(c * c) + 2.0 * alpha * np.log(np.atleast_1d(s))[:, None]
    w = np.exp(logs - logs.max(axis=1, keepdims=True))
    return (w @ alpha) / w.sum(axis=1)


_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)


def log_height_increment(alpha, c, r: float, s: float, panels: int = 128) -> float:
    """Integral of 2 U(t)/t over [r, s] by composite Gauss-Legendre in log t."""
    edges = np.linspace(math.log(r), math.log(s), panels + 1)
    half = np.diff(edges)[:, None] / 2.0
    x = (edges[:-1, None] + half) + half * _GL_X[None, :]
    u = frequency(alpha, c, np.exp(x.ravel())).reshape(x.shape)
    return float(np.sum(2.0 * u * half * _GL_W[None, :]))


def _check_log_value(got, want_log: float, what: str):
    if want_log > math.log(np.finfo(float).max):
        expect(got == math.inf, f"{what}: got {got}, want overflow to inf")
    else:
        expect(close(got, math.exp(want_log), 1e-9), f"{what}: got {got}, "
                                                     f"want {math.exp(want_log)}")


def check_frequency(code: int, doc: dict, alpha, c, n: int, svals):
    alpha, c = np.asarray(alpha, float), np.asarray(c, float)
    expect(code == 0, f"frequency exited {code}")
    table = doc["table"]
    expect([row["s"] for row in table] == list(svals), "frequency s echo")
    lo, hi = float(alpha.min()), float(alpha.max())
    prev = -math.inf
    for row in table:
        s = row["s"]
        _check_log_value(row["I"], log_functional(alpha, c, s), f"I({s})")
        _check_log_value(row["D"], log_functional(alpha, c, s, alpha), f"D({s})")
        _check_log_value(row["J"], log_functional(alpha, c, s,
                                                  1.0 / (2.0 * alpha + n)), f"J({s})")
        u = row["U"]
        expect_close(u, float(frequency(alpha, c, s)[0]), 1e-9, f"U({s})")
        expect(lo * (1 - 1e-12) <= u <= hi * (1 + 1e-12),
               f"U({s}) = {u} outside the exponent range [{lo}, {hi}]")
        expect(u >= prev * (1 - 1e-12), f"U decreases at s = {s}: {prev} -> {u}")
        prev = u
    pairs = [(a, b) for a, b in zip(svals, svals[1:]) if a < b]
    res = doc["identity_residuals"]
    expect(len(res) == len(pairs), "one identity residual per interval")
    log_i = {row["s"]: log_functional(alpha, c, row["s"]) for row in table}
    for row, (a, b) in zip(res, pairs):
        expect(row["r"] == a and row["s"] == b, "identity interval echo")
        expect(0.0 <= row["residual"] <= 1e-8,
               f"identity residual {row['residual']} on [{a}, {b}] above 1e-8")
        gl = log_height_increment(alpha, c, a, b)
        expect(abs(log_i[b] - log_i[a] - gl) <= 1e-8,
               f"log I({b}) - log I({a}) differs from the quadrature of 2U/t "
               f"by {abs(log_i[b] - log_i[a] - gl):.3g}")
    gamma = doc["sharp_growth_order"]
    expect(gamma["gamma"] == hi and gamma["min_exponent"] == lo,
           "sharp growth order")


def functionals_overflowed(code: int, doc: dict) -> bool:
    """Fault signature: I/D/U/J overflow and the run exits 3."""
    if code != 3:
        return False
    if doc.get("error", {}).get("type") == "NumericFailure":
        return True
    return any(not math.isfinite(row["ratio"])
               for row in doc.get("three_circles", ()))


def check_three_circles(code: int, doc: dict, alpha, c, n: int, k: float,
                        svals, saturated: bool = False):
    alpha, c = np.asarray(alpha, float), np.asarray(c, float)
    expect(code == 0, f"three-circles exited {code}")
    rows = doc["three_circles"]
    expect([row["s"] for row in rows] == list(svals), "three-circles s echo")
    bound = 2.0 ** (2.0 * k)
    w = 1.0 / (2.0 * alpha + n)
    for row in rows:
        s = row["s"]
        want = math.exp(log_functional(alpha, c, s, w)
                        - log_functional(alpha, c, s / 2.0, w))
        expect_close(row["bound"], bound, 1e-12, f"three-circles bound at {s}")
        expect_close(row["ratio"], want, 1e-9, f"doubling ratio at s = {s}")
        expect(row["ratio"] <= bound * (1 + 1e-12) and row["satisfied"] is True,
               f"doubling ratio {row['ratio']} above 4^k = {bound}")
        if saturated:
            expect_close(row["ratio"], bound, 1e-9,
                         f"single mode at the cap must saturate at s = {s}")


# -- grid verification ---------------------------------------------------------

def check_verify_grid(code: int, doc: dict, resolutions, harmonic: bool):
    order = doc["fitted_order"]
    res = doc["residual_max_norms"]
    expect(len(res) == len(resolutions), "one residual per resolution")
    slope = float(np.polyfit(np.log(1.0 / np.asarray(resolutions, float)),
                             np.log(res), 1)[0])
    expect_close(order, slope, 1e-9, "fitted order against the residuals",
                 atol=1e-12)
    if harmonic:
        expect(code == 0 and doc["order_in_contract"] is True
               and 1.8 <= order <= 2.2,
               f"true harmonic: order {order}, exit {code}")
        expect(all(b < a for a, b in zip(res, res[1:])),
               f"true harmonic: residuals not decreasing {res}")
    else:
        expect(code == 3 and doc["order_in_contract"] is False
               and not 1.8 <= order <= 2.2,
               f"non-harmonic control: order {order}, exit {code}")


def grid_j_tolerance(alpha, c, r_min: float, r_max: float, m_r: int,
                     s: float) -> float:
    """Trapezoid O(h^2) bound plus the exact excised-tip share, over s^2.

    The integrand in r is f(r) = sum c_i^2 r^(2 alpha_i + 1) (the theta rule
    is exact for the band-limited u^2), so |f''| is bounded by its terms at
    the ends of the window.
    """
    alpha, c = np.asarray(alpha, float), np.asarray(c, float)
    h = (r_max - r_min) / (m_r - 1)
    f2 = np.sum(c * c * (2 * alpha + 1) * 2 * alpha
                * np.maximum(r_min ** (2 * alpha - 1), r_max ** (2 * alpha - 1)))
    trap = ((s - r_min) / 12.0 + h / 8.0) * h * h * f2
    tip = np.sum(c * c * r_min ** (2 * alpha + 2) / (2 * alpha + 2))
    return float((trap + tip) / s ** 2)


def check_grid_j(value: float, alpha, c, r_min, r_max, m_r, s):
    alpha, c = np.asarray(alpha, float), np.asarray(c, float)
    want = float(np.sum(c * c / (2 * alpha + 2) * s ** (2 * alpha)))
    tol = grid_j_tolerance(alpha, c, r_min, r_max, m_r, s) + 1e-12 * want
    expect(abs(value - want) <= tol,
           f"grid_J {value} differs from the closed form {want} by "
           f"{abs(value - want):.3g}, beyond O(h^2) + tip = {tol:.3g}")
