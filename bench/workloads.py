"""Seeded inputs and operations of the three benchmark workloads.

An operation is one `coneh.cli.main(argv)` call, or one direct `grid_J`
call, together with the check of its output.  A workload builder writes
its input files into a scratch directory and returns the operations of
one round; every round repeats the same operations.  Queries are drawn
away from resonances, where the answer would hinge on the last bit of a
float; resonant queries appear only as the fixed fault operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
import traceback
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import coneh.cli
import numpy as np
from coneh import gridcheck

import checks as C


@dataclass
class Op:
    """One operation: CLI argv (or a direct call) plus its output check.

    `check(code, output)` raises checks.Wrong on a wrong output.  `fault`,
    for a known fault kept as a failed operation, recognises the fault's
    output; such an operation counts as failed, not as wrong.
    """

    label: str
    check: Callable
    argv: list[str] | None = None
    call: Callable | None = None
    fault: Callable | None = None


def run_op(op, out: Path):
    """Run one operation; returns (exit code, parsed output, seconds).

    An exception escaping coneh is returned as exit code -1 with its
    traceback, so the check reports it as a wrong output.
    """
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        t0 = time.perf_counter()
        try:
            if op.call is not None:
                value = op.call()
                return 0, value, time.perf_counter() - t0
            code = coneh.cli.main([*op.argv, "--output", str(out)])
        except Exception:
            return -1, {"traceback": traceback.format_exc()}, time.perf_counter() - t0
        dt = time.perf_counter() - t0
    # reports go to --output; error objects are written to stdout
    text = out.read_text() if out.exists() else stdout.getvalue()
    try:
        doc = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError:
        doc = {"unparsed": text + stderr.getvalue()}
    return code, doc, dt


def _exit0(fn, *args):
    def check(code, doc):
        C.expect(code == 0, f"exit code {code}: {str(doc)[:400]}")
        fn(doc, *args)
    return check


def _fmt(values) -> list[str]:
    return [repr(float(v)) for v in values]


def _clear(model, k: float, eps: float = 1e-6) -> bool:
    """No eigenvalue of the model lies between the orders k - eps and k + eps."""
    n = model.n
    return (model.count(C.exact_eigenvalue(k - eps, n))
            == model.count(C.exact_eigenvalue(k + eps, n)))


def _order(rng, model, lo: float, hi: float, eps: float = 1e-6) -> float:
    while True:
        k = float(rng.uniform(lo, hi))
        if _clear(model, k, eps):
            return k


def _lambdas(rng, model, lo: float, hi: float, count: int) -> list[float]:
    out = []
    while len(out) < count:
        lam = float(rng.uniform(lo, hi))
        if model.count(lam * (1 - 1e-9)) == model.count(lam * (1 + 1e-9)):
            out.append(lam)
    return out


# -- growth-sweep ---------------------------------------------------------------

def _queries(rng, cs: str, model, k_hi: float, lam_hi: float,
             asymptotic: bool = True) -> list[Op]:
    """hk, count, weyl, collapsed and asymptotic queries on one cross-section."""
    n = str(model.n)
    ops = []
    for _ in range(8):
        k = _order(rng, model, 0.05, k_hi)
        ops.append(Op(f"hk {cs} k={k}", _exit0(C.check_hk, model, k),
                      ["hk", "--cross-section", cs, "--n", n, "--k", repr(k)]))
    for _ in range(2):
        lams = _lambdas(rng, model, 0.0, lam_hi, 4)
        ops.append(Op(f"count {cs}", _exit0(C.check_count, model, lams),
                      ["count", "--cross-section", cs, "--lambda", *_fmt(lams)]))
    lams = _lambdas(rng, model, lam_hi / 20, lam_hi, 3)
    ops.append(Op(f"weyl {cs}", _exit0(C.check_weyl, model, lams),
                  ["weyl", "--cross-section", cs, "--n", n,
                   "--lambda", *_fmt(lams)]))
    for _ in range(2):
        k = _order(rng, model, 0.05, k_hi)
        ops.append(Op(f"collapsed {cs} k={k}", _exit0(C.check_collapsed, model, k),
                      ["collapsed", "--cross-section", cs, "--n", n, "--m", n,
                       "--k", repr(k)]))
    if asymptotic:
        ks = [_order(rng, model, a, 2 * a) for a in (10.0, 100.0, 1000.0)]
        ops.append(_asymptotic(cs, model, ks))
    return ops


def _asymptotic(cs: str, model, ks: list[float]) -> Op:
    return Op(f"asymptotic {cs} k={ks}", _exit0(C.check_asymptotic, model, ks),
              ["asymptotic", "--cross-section", cs, "--n", str(model.n),
               "--k", *_fmt(ks)])


def _circle(x: Fraction) -> str:
    return f"circle:{2 * math.pi * x.numerator / x.denominator!r}"


def write_spectrum(rng, path: Path, entries: int = 100_000) -> C.SpectrumModel:
    """A grouped spectrum of a 2-dimensional cross-section (n = 3).

    Gaps scale with the multiplicity so that N(lam) follows Weyl's law
    N ~ measure * lam / (4 pi).
    """
    measure = float(rng.uniform(2 * math.pi, 4 * math.pi))
    mults = np.concatenate([[1], rng.integers(1, 4, entries - 1)])
    gaps = mults[1:] * (4 * math.pi / measure) * rng.uniform(0.5, 1.5, entries - 1)
    lams = np.concatenate([[0.0], np.cumsum(gaps)]).tolist()
    bound = lams[-1] + 0.25 * float(gaps[-1])
    doc = {"ambient_dim": 3, "measure": measure, "truncation_bound": bound,
           "entries": [{"lambda": lam, "mult": int(m)}
                       for lam, m in zip(lams, mults)]}
    path.write_text(json.dumps(doc))
    return C.SpectrumModel(3, lams, mults.tolist(), measure, bound)


#: Fault 1: resonant orders k on circles of length 2*pi*p/q, where
#: 2*pi*j/L rounds above k and N(k^2) loses the resonant pair.
CIRCLE_RESONANCE_FAULTS = [(Fraction(1, 1), 13.0), (Fraction(1, 2), 26.0),
                           (Fraction(1, 3), 15.0), (Fraction(2, 3), 27.0)]


def growth_sweep(rng, work: Path) -> list[Op]:
    ops = []
    for d in range(1, 6):
        model, cs = C.SphereModel(d), f"sphere:{d}"
        ops += _queries(rng, cs, model, 40.0, 2000.0)
        for _ in range(2):
            k_max = _order(rng, model, 2.0, 30.0)
            ops.append(Op(f"staircase {cs} k_max={k_max}",
                          _exit0(C.check_staircase, model, k_max),
                          ["hk", "--cross-section", cs, "--n", str(d + 1),
                           "--k-max", repr(k_max)]))
    for _ in range(6):
        q = int(rng.integers(1, 13))
        x = Fraction(int(rng.integers(1, q + 1)), q)
        ops += _queries(rng, _circle(x), C.CircleModel(x), 40.0, 2000.0)

    path = work / "spectrum.json"
    model = write_spectrum(rng, path)
    # is_resonant certifies one order past k, so stay below the bound
    k_cap = model.exponent(model.bound) - 2.0
    ops += _queries(rng, f"spectrum:{path}", model, k_cap, model.lams[-1],
                    asymptotic=False)

    # The Cesaro sums of these rows are linear in k and dominate wall_s.
    flat_plane = C.CircleModel(1)
    ops.append(_asymptotic(_circle(Fraction(1)), flat_plane,
                           [_order(rng, flat_plane, 999_000.0, 1_000_000.0)]))
    r3 = C.SphereModel(2)
    ops.append(_asymptotic("sphere:2", r3, [_order(rng, r3, 99_000.0, 100_000.0)]))

    for x, k in CIRCLE_RESONANCE_FAULTS:
        model = C.CircleModel(x)
        ops.append(Op(f"hk {_circle(x)} k={k} (fault 1)",
                      _exit0(C.check_hk, model, k),
                      ["hk", "--cross-section", _circle(x), "--n", "2",
                       "--k", repr(k)],
                      fault=lambda code, doc, m=model, k=k:
                      code == 0 and C.hk_misses_resonant_space(doc, m, k)))
    return ops


# -- metric-circle-certify ------------------------------------------------------

def smooth_density(rng, x: float, samples: int = 64) -> list[float]:
    """A positive density exp(trigonometric polynomial) with mean x."""
    theta = np.arange(samples) * 2 * math.pi / samples
    log_a = sum(rng.uniform(-0.3, 0.3) * np.cos(m * theta)
                + rng.uniform(-0.3, 0.3) * np.sin(m * theta) for m in (1, 2, 3))
    a = np.exp(log_a)
    return (a * (x / a.mean())).tolist()


def metric_circle_certify(rng, work: Path) -> list[Op]:
    """Certification cost depends only on the number of modes below lambda
    (the discrete spectrum scales with 1/L^2), so each query sits in a fixed
    band: band 0 holds only lambda = 0, band 1 one pair (solves up to
    m = 2048), and selftest and the fault solve at the m = 4096 cap."""
    ops = []
    for i, (lo, hi) in enumerate([(0.05, 0.5), (0.5, 0.999)]):
        x = float(rng.uniform(lo, hi))
        dens = smooth_density(rng, x)
        path = work / f"density{i}.json"
        path.write_text(json.dumps(dens))
        model = C.metric_circle_model(dens)
        xm = float(model.x)
        cs = f"metric-circle:{path}"
        for band in (0, 1):
            lam = ((band + float(rng.uniform(0.2, 0.8))) / xm) ** 2
            ops.append(Op(f"spectrum {cs} lambda_max={lam}",
                          _exit0(C.check_metric_spectrum, model, lam),
                          ["spectrum", "--cross-section", cs,
                           "--lambda-max", repr(lam)]))
        # hk certifies up to (k+1)^2, which lies in band 1
        hk_model = C.CircleModel(model.x, rtol=1e-6)
        while True:
            k = float(rng.uniform(1.1, 1.9)) / xm - 1.0
            if k > 0.05 and _clear(hk_model, k, 1e-3):
                break
        ops.append(Op(f"hk {cs} k={k}", _exit0(C.check_hk, hk_model, k),
                      ["hk", "--cross-section", cs, "--n", "2", "--k", repr(k)]))
        lams = [(float(rng.uniform(0.2, 0.8)) / xm) ** 2,
                ((1 + float(rng.uniform(0.2, 0.8))) / xm) ** 2]
        ops.append(Op(f"count {cs}", _exit0(C.check_count, model, lams),
                      ["count", "--cross-section", cs, "--lambda", *_fmt(lams)]))

    ops.append(Op("selftest", _exit0(C.check_selftest, 42),
                  ["selftest", "--seed", "42"]))

    # Fault 2: the full circle, exact spectrum 0, 1, 1, 4, 4, 9, 9.
    path = work / "full_circle.json"
    path.write_text(json.dumps([1.0] * 64))
    ops.append(Op("spectrum full circle lambda_max=9.5 (fault 2)",
                  _exit0(C.check_metric_spectrum, C.CircleModel(1), 9.5),
                  ["spectrum", "--cross-section", f"metric-circle:{path}",
                   "--lambda-max", "9.5"],
                  fault=C.metric_cap_not_certified))
    return ops


# -- frequency-verify -----------------------------------------------------------

def _harmonic(path: Path, n: int, alpha, c) -> None:
    path.write_text(json.dumps({"n": n, "modes": [
        {"alpha": float(a), "c": float(b), "mode_id": i + 1}
        for i, (a, b) in enumerate(zip(alpha, c))]}))


def _frequency_op(path, n, alpha, c, svals, fault=None) -> Op:
    return Op(f"frequency {path.name}",
              lambda code, doc: C.check_frequency(code, doc, alpha, c, n, svals),
              ["frequency", "--harmonic", str(path), "--s", *_fmt(svals)],
              fault=fault)


def _three_circles_op(path, n, alpha, c, k, svals, saturated=False,
                      fault=None) -> Op:
    return Op(f"three-circles {path.name} k={k}",
              lambda code, doc: C.check_three_circles(
                  code, doc, alpha, c, n, k, svals, saturated),
              ["three-circles", "--harmonic", str(path), "--k", repr(k),
               "--s", *_fmt(svals)], fault=fault)


def sample_circle_harmonic(L, alpha, c, j, r_min, r_max, m_r, m_theta):
    """u = sum c_i r^alpha_i phi_i on the annulus grid; phi_i are the
    arclength-orthonormal sqrt(2/L) cos(2 pi j theta / L), sin for odd i."""
    r = np.linspace(r_min, r_max, m_r)[:, None]
    theta = (np.arange(m_theta) * L / m_theta)[None, :]
    u = np.zeros((m_r, m_theta))
    for i, (a, b, jj) in enumerate(zip(alpha, c, j)):
        wave = np.cos if i % 2 == 0 else np.sin
        u += b * r ** a * math.sqrt(2.0 / L) * wave(2 * math.pi * jj * theta / L)
    return u


def _grid_j_op(rng, idx: int) -> Op:
    x = float(rng.uniform(0.25, 1.0))
    L = 2 * math.pi * x
    modes = int(rng.integers(1, 4))
    j = (rng.permutation(3)[:modes] + 1).tolist()
    alpha = np.array([jj / x for jj in j])
    c = rng.uniform(0.5, 2.0, modes)
    s = float(rng.uniform(0.5, 2.0))
    r_min, r_max = 0.01 * s * float(rng.uniform(0.2, 1.0)), s * float(rng.uniform(1.0, 1.2))
    m_r = 1024
    grid = gridcheck.ConeGrid(L, r_min, r_max, sample_circle_harmonic(
        L, alpha, c, j, r_min, r_max, m_r, 64))
    return Op(f"grid_J #{idx} s={s}",
              lambda code, value: C.check_grid_j(value, alpha, c, r_min, r_max,
                                                 m_r, s),
              call=lambda: gridcheck.grid_J(grid, s))


#: Fault 3: exponents 200 and 1 overflow I, D, U and J at s = 10.
OVERFLOW_HARMONIC = (2, [200.0, 1.0], [1.0, 1.0])


def frequency_verify(rng, work: Path) -> list[Op]:
    ops = []
    for i, modes in enumerate([1, 2, 4, 8, 16, 32, 64, 64] * 4):
        n = int(rng.integers(2, 5))
        alpha = rng.uniform(0.05, 20.0, modes)
        c = rng.uniform(0.5, 10.0, modes) * rng.choice([-1.0, 1.0], modes)
        path = work / f"harmonic{i}.json"
        _harmonic(path, n, alpha, c)
        s0 = 10 ** float(rng.uniform(-2.0, 0.0))
        ops.append(_frequency_op(path, n, alpha, c,
                                 [s0 * 10 ** (0.5 * e) for e in range(5)]))
        k = float(alpha.max() + rng.uniform(0.0, 2.0))
        ops.append(_three_circles_op(path, n, alpha, c, k,
                                     10 ** rng.uniform(-2.0, 2.0, 3)))
    for i in range(4):
        n, alpha, c = int(rng.integers(2, 5)), rng.uniform(0.5, 20.0, 1), rng.uniform(0.5, 5.0, 1)
        path = work / f"single{i}.json"
        _harmonic(path, n, alpha, c)
        ops.append(_three_circles_op(path, n, alpha, c, float(alpha[0]),
                                     10 ** rng.uniform(-1.0, 1.0, 2),
                                     saturated=True))

    # Eighteen grid checks up to m = 512 sit between the quick three-circles
    # calls and the quadrature-bound frequency calls, so op_p50_ms is a
    # gridcheck latency; six more run up to m = 1024.
    for i in range(24):
        resolutions = [64, 128, 256, 512] if i < 18 else [128, 256, 512, 1024]
        x = float(rng.uniform(0.25, 1.0))
        jj = int(rng.integers(1, 4))
        harmonic = i % 4 != 3
        alpha = jj / x + (0.0 if harmonic else float(rng.uniform(0.5, 1.5)))
        ops.append(Op(f"verify-grid alpha={alpha} j={jj} L/2pi={x}",
                      lambda code, doc, h=harmonic, res=resolutions:
                      C.check_verify_grid(code, doc, res, h),
                      ["verify-grid", "--mode", repr(alpha), str(jj),
                       repr(float(rng.uniform(0.5, 2.0))),
                       "--length", repr(2 * math.pi * x),
                       "--resolutions", *map(str, resolutions)]))
    ops += [_grid_j_op(rng, i) for i in range(6)]

    n, alpha, c = OVERFLOW_HARMONIC
    path = work / "overflow.json"
    _harmonic(path, n, alpha, c)
    ops.append(_three_circles_op(path, n, alpha, c, 200.0, [10.0],
                                 fault=C.functionals_overflowed))
    ops.append(_frequency_op(path, n, alpha, c, [1.0, 10.0],
                             fault=C.functionals_overflowed))
    return ops


WORKLOADS = {
    "growth-sweep": growth_sweep,
    "metric-circle-certify": metric_circle_certify,
    "frequency-verify": frequency_verify,
}
