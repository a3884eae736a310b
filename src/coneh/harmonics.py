"""Finite mode sums of cone harmonics and their frequency functionals.

A harmonic function on the cone C(X) vanishing at the tip is a sum of
separated modes c * r^alpha * phi(x); for such sums the height functional
I, the (rescaled) Dirichlet energy D, the frequency U = D/I and the ball
average J all have closed forms in the coefficients, and the doubling
(three-circles) inequality J(s) <= 2^(2*cap) * J(s/2) holds for every
sum whose exponents respect the growth cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (DegenerateInput, InvalidArgument, NumericFailure,
                     PreconditionViolation, UnsupportedCrossSection)
from .exponents import eigenvalue_from_exponent, exponent_from_eigenvalue
from .spectra import Circle, CrossSection

#: Absolute quadrature tolerance for the frequency identity integral.
QUAD_TOL = 1e-10
QUAD_MAX_DEPTH = 40


class Mode(NamedTuple):
    alpha: float  # growth exponent, > 0
    c: float      # coefficient
    mode_id: int  # index of the eigenfunction in the spectrum ordering


@dataclass(frozen=True)
class ConeHarmonic:
    """u(x, r) = constant + sum of c_i * r^(alpha_i) * phi_i(x).

    Modes are stored sorted by exponent; the constant (tip value) is kept
    separate so that the normalization u(tip) = 0 is an explicit step.
    """

    n: int
    modes: tuple[Mode, ...]
    constant_term: float = 0.0

    def __post_init__(self):
        if self.n < 2:
            raise InvalidArgument(f"cone dimension must be >= 2, got {self.n}")
        for m in self.modes:
            if m.alpha <= 0:
                raise InvalidArgument(
                    f"mode exponents must be positive, got {m.alpha}")
        object.__setattr__(self, "modes",
                           tuple(sorted(self.modes, key=lambda m: m.alpha)))

    @property
    def active_modes(self) -> tuple[Mode, ...]:
        return tuple(m for m in self.modes if m.c != 0.0)

    def drop_constant(self) -> "ConeHarmonic":
        """Normalize to u(tip) = 0."""
        return ConeHarmonic(self.n, self.modes, 0.0)

    def scaled(self, t: float) -> "ConeHarmonic":
        return ConeHarmonic(self.n, tuple(m._replace(c=t * m.c)
                                          for m in self.modes),
                            t * self.constant_term)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "constant": self.constant_term,
            "modes": [{"alpha": m.alpha, "c": m.c, "mode_id": m.mode_id}
                      for m in self.modes],
        }


def cone_harmonic_from_json(doc: dict) -> ConeHarmonic:
    modes = tuple(Mode(float(m["alpha"]), float(m["c"]), int(m["mode_id"]))
                  for m in doc["modes"])
    return ConeHarmonic(int(doc["n"]), modes, float(doc.get("constant", 0.0)))


def circle_mode(L: float, j: int, kind: str, c: float) -> Mode:
    """A Fourier mode of Circle(L): exponent 2*pi*j/L, mode ids pair up as
    (cos -> 2j-1, sin -> 2j)."""
    if j < 1:
        raise InvalidArgument(f"mode number must be >= 1, got {j}")
    if kind not in ("cos", "sin"):
        raise InvalidArgument(f"kind must be 'cos' or 'sin', got {kind!r}")
    alpha = 2.0 * math.pi * j / L
    return Mode(alpha, c, 2 * j - 1 if kind == "cos" else 2 * j)


def _frequency_modes(u: ConeHarmonic) -> tuple[np.ndarray, np.ndarray]:
    if u.constant_term != 0.0:
        raise InvalidArgument(
            "frequency functionals require the normalization u(tip) = 0; "
            "call drop_constant() first")
    act = u.active_modes
    if not act:
        raise DegenerateInput("all mode coefficients vanish")
    return (np.array([m.alpha for m in act]),
            np.array([m.c for m in act]))


def I(u: ConeHarmonic, s: float) -> float:
    """Cross-sectional height: sum of c_i^2 * s^(2*alpha_i)."""
    if s <= 0:
        raise InvalidArgument(f"s must be positive, got {s}")
    alpha, c = _frequency_modes(u)
    return float(np.sum(c * c * s ** (2.0 * alpha)))


def D(u: ConeHarmonic, s: float) -> float:
    """Rescaled Dirichlet energy: sum of c_i^2 * alpha_i * s^(2*alpha_i)."""
    if s <= 0:
        raise InvalidArgument(f"s must be positive, got {s}")
    alpha, c = _frequency_modes(u)
    return float(np.sum(c * c * alpha * s ** (2.0 * alpha)))


def U(u: ConeHarmonic, s: float) -> float:
    """Frequency D/I; equals the exponent exactly for a single mode, and is
    non-decreasing in s in general."""
    if s <= 0:
        raise InvalidArgument(f"s must be positive, got {s}")
    alpha, c = _frequency_modes(u)
    w = c * c * s ** (2.0 * alpha)
    denom = float(w.sum())
    if denom == 0.0:
        raise NumericFailure(f"height functional underflowed to 0 at s = {s}")
    return float((alpha * w).sum() / denom)


def J(u: ConeHarmonic, s: float) -> float:
    """Ball average of u^2: sum of c_i^2 / (2*alpha_i + n) * s^(2*alpha_i).

    Equals the radial integral of I(r) * r^(n-1) over [0, s] divided by
    s^n, exactly, for every finite mode sum.
    """
    if s <= 0:
        raise InvalidArgument(f"s must be positive, got {s}")
    alpha, c = _frequency_modes(u)
    return float(np.sum(c * c / (2.0 * alpha + u.n) * s ** (2.0 * alpha)))


def _adaptive_simpson(f, a: float, b: float, tol: float, max_depth: int) -> float:
    """Adaptive Simpson with interval bisection and absolute tolerance."""
    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, tol, depth):
        xm = 0.5 * (x0 + x2)
        xl, xr = 0.5 * (x0 + xm), 0.5 * (xm + x2)
        fl, fr = f(xl), f(xr)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        err = left + right - whole
        if abs(err) <= 15.0 * tol:
            return left + right + err / 15.0
        if depth >= max_depth:
            raise NumericFailure(
                f"quadrature did not converge on [{x0}, {x2}]",
                achieved=left + right)
        return (recurse(x0, xm, f0, fl, f1, left, tol / 2.0, depth + 1)
                + recurse(xm, x2, f1, fr, f2, right, tol / 2.0, depth + 1))

    fa, fb = f(a), f(b)
    fm = f(0.5 * (a + b))
    return recurse(a, b, fa, fm, fb, simpson(a, b, fa, fm, fb), tol, 0)


def frequency_identity_check(u: ConeHarmonic, r: float, s: float) -> float:
    """Residual of log I(s) - log I(r) = integral of 2 U(t)/t over [r, s].

    The integral is evaluated by adaptive Simpson quadrature to absolute
    tolerance 1e-10; the residual stays below 1e-8 for moderate mode sums
    (<= 64 modes, exponents <= 20, s/r <= 100).
    """
    if not 0 < r < s:
        raise InvalidArgument(f"need 0 < r < s, got r={r}, s={s}")
    integral = _adaptive_simpson(lambda t: 2.0 * U(u, t) / t,
                                 r, s, QUAD_TOL, QUAD_MAX_DEPTH)
    return abs(math.log(I(u, s)) - math.log(I(u, r)) - integral)


class ThreeCirclesResult(NamedTuple):
    ratio: float
    bound: float
    satisfied: bool


def three_circles_ratio(u: ConeHarmonic, s: float, k: float
                        ) -> ThreeCirclesResult:
    """Doubling ratio J(s)/J(s/2) against the growth-cap bound 2^(2*cap).

    The cap is the largest admissible exponent at growth order k, i.e.
    the exponent of the eigenvalue k(k+n-2), which is k itself.  A single
    mode sitting exactly at the cap saturates the bound.
    """
    if s <= 0:
        raise InvalidArgument(f"s must be positive, got {s}")
    if k <= 0:
        raise InvalidArgument(f"k must be positive, got {k}")
    cap = exponent_from_eigenvalue(eigenvalue_from_exponent(k, u.n), u.n)
    for i, m in enumerate(u.active_modes):
        if m.alpha > cap * (1.0 + 1e-12):
            raise PreconditionViolation(
                f"mode {i} (alpha = {m.alpha}, mode_id = {m.mode_id}) "
                f"exceeds the growth cap {cap}")
    ratio = J(u, s) / J(u, s / 2.0)
    bound = 2.0 ** (2.0 * cap)
    return ThreeCirclesResult(ratio, bound, ratio <= bound * (1.0 + 1e-12))


def sharp_growth_order(u: ConeHarmonic) -> tuple[float, dict]:
    """The sharp growth order gamma: the largest exponent with a nonzero
    coefficient.

    On the cone, membership is exact: u lies in the growth space at gamma
    and outside it at every order gamma - eps, since I(s) grows like
    s^(2*gamma) (witnessed by the top coefficient).
    """
    act = u.active_modes
    if not act:
        raise DegenerateInput("all mode coefficients vanish")
    gamma = act[-1].alpha
    report = {
        "gamma": gamma,
        "top_coefficient": act[-1].c,
        "member_at_gamma": True,
        "member_below_gamma": False,
        "min_exponent": act[0].alpha,
        "frequency_limit_zero": act[0].alpha,
        "frequency_limit_infinity": gamma,
    }
    return gamma, report


def circle_eigenfunction(L: float, mode_id: int, theta):
    """Eigenfunction mode_id >= 1 of Circle(L) at arclength theta (float or
    array): mode_id 2j-1 / 2j is sqrt(2/L) * cos / sin(2*pi*j*theta/L), of
    unit L^2 norm."""
    j = (mode_id + 1) // 2
    arg = 2.0 * math.pi * j * theta / L
    return math.sqrt(2.0 / L) * (np.cos(arg) if mode_id % 2 == 1
                                 else np.sin(arg))


def evaluate(u: ConeHarmonic, X: CrossSection, theta: float, r: float) -> float:
    """Evaluate u at the cone point (theta, r) over a circle cross-section,
    with the eigenfunctions of ``circle_eigenfunction``."""
    if not isinstance(X, Circle):
        raise UnsupportedCrossSection(
            "pointwise evaluation needs explicit eigenfunctions; only "
            "circle cross-sections are supported")
    if r < 0:
        raise InvalidArgument(f"r must be nonnegative, got {r}")
    if r == 0.0:
        return u.constant_term
    return float(sum((m.c * r ** m.alpha
                      * circle_eigenfunction(X.length, m.mode_id, theta)
                      for m in u.modes if m.c != 0.0 and m.mode_id != 0),
                     u.constant_term))
