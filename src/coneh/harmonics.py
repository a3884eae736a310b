"""Finite mode sums of cone harmonics and their frequency functionals.

A harmonic function on the cone C(X) vanishing at the tip is a sum of
separated modes c * r^alpha * phi(x); for such sums the height functional
I, the (rescaled) Dirichlet energy D, the frequency U = D/I and the ball
average J all have closed forms in the coefficients, and the doubling
(three-circles) inequality J(s) <= 2^(2*cap) * J(s/2) holds for every
sum whose exponents respect the growth cap.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (DegenerateInput, InvalidArgument, NumericFailure,
                     PreconditionViolation)
from .spectra import _json_number, _json_object, _read_json


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
        for i, m in enumerate(self.modes):
            if not 0 < m.alpha < math.inf:
                raise InvalidArgument(f"mode {i}: exponent must be positive "
                                      f"and finite, got {m.alpha}")
            if not math.isfinite(m.c):
                raise InvalidArgument(
                    f"mode {i}: coefficient must be finite, got {m.c}")
        object.__setattr__(self, "modes",
                           tuple(sorted(self.modes, key=lambda m: m.alpha)))
        # the functionals' inputs, built once: exponents of the active modes
        # and their log |c|.  alpha stays a strided column of the (alpha, c)
        # table: U's matrix product rounds differently on a contiguous copy.
        alpha, c = np.array([m[:2] for m in self.active_modes],
                            dtype=float).reshape(-1, 2).T
        object.__setattr__(self, "_alpha", alpha)
        object.__setattr__(self, "_log_c", np.log(np.abs(c)))
        # log(2 alpha + n), the divisor of J, also where 2 alpha + n overflows
        with np.errstate(over="ignore"):
            log_div = np.log(2.0 * alpha + self.n)
        object.__setattr__(self, "_log_div", np.where(
            np.isfinite(log_div), log_div,
            math.log(2.0) + np.log(alpha + self.n / 2.0)))

    @property
    def active_modes(self) -> tuple[Mode, ...]:
        return tuple(m for m in self.modes if m.c != 0.0)

    def drop_constant(self) -> "ConeHarmonic":
        """Normalize to u(tip) = 0."""
        return ConeHarmonic(self.n, self.modes, 0.0)


def cone_harmonic_from_json(doc: dict, source: str = "<json>"
                            ) -> ConeHarmonic:
    """Build a ConeHarmonic from the documented JSON layout.

    Layout: {"n": n, "constant": c0, "modes": [{"alpha": a, "c": c,
    "mode_id": i}, ...]}, "constant" optional.  Values are JSON numbers;
    violations are rejected with the source and the mode index.
    """
    try:
        _json_object(doc, "harmonic", ("n", "modes"))
        if not isinstance(doc["modes"], list):
            raise InvalidArgument(
                f"'modes' must be a list, got {json.dumps(doc['modes'])}")
        modes = []
        for i, m in enumerate(doc["modes"]):
            if not (isinstance(m, dict) and set(Mode._fields) <= m.keys()):
                raise InvalidArgument(
                    f"mode {i} must have 'alpha', 'c' and 'mode_id'")
            modes.append(Mode(*(_json_number(m[key], f"mode {i}: '{key}'",
                                             integral=key == "mode_id")
                                for key in Mode._fields)))
        return ConeHarmonic(
            _json_number(doc["n"], "'n'", integral=True), tuple(modes),
            _json_number(doc.get("constant", 0.0), "'constant'"))
    except InvalidArgument as exc:
        raise InvalidArgument(f"{source}: {exc}") from exc


def load_harmonic(path: str) -> ConeHarmonic:
    """Load and validate a cone-harmonic JSON file."""
    return cone_harmonic_from_json(_read_json(path), source=path)


def circle_mode(L: float, j: int, kind: str, c: float) -> Mode:
    """A Fourier mode of Circle(L): exponent 2*pi*j/L, mode ids pair up as
    (cos -> 2j-1, sin -> 2j)."""
    if j < 1:
        raise InvalidArgument(f"mode number must be >= 1, got {j}")
    if kind not in ("cos", "sin"):
        raise InvalidArgument(f"kind must be 'cos' or 'sin', got {kind!r}")
    alpha = 2.0 * math.pi * j / L
    return Mode(alpha, c, 2 * j - 1 if kind == "cos" else 2 * j)


def _log_weights(u: ConeHarmonic, s) -> tuple[np.ndarray, np.ndarray]:
    """Exponents of the active modes and their log weights 2 log|c_i| +
    2 alpha_i log s, one row per radius in s.  Every functional is a
    log-sum-exp or a softmax of these rows, so none overflows early."""
    s = np.asarray(s, dtype=float)
    lo, hi = s.min(), s.max()
    if not 0.0 < lo <= hi < math.inf:
        raise InvalidArgument(f"s must be positive and finite, got {s}")
    if u.constant_term != 0.0:
        raise InvalidArgument(
            "frequency functionals require the normalization u(tip) = 0; "
            "call drop_constant() first")
    if not u._alpha.size:
        raise DegenerateInput("all mode coefficients vanish")
    # weights leave the float range only once alpha |log s| nears it (a
    # product of Python floats, which overflows without a warning); a
    # weight of -inf below a finite top weight is an exact zero term
    if float(u._alpha[-1]) * max(-math.log(lo), math.log(hi)) <= 1e300:
        return u._alpha, 2.0 * (u._log_c + u._alpha * np.log(s)[..., None])
    with np.errstate(over="ignore", invalid="ignore"):
        logw = 2.0 * (u._log_c + u._alpha * np.log(s)[..., None])
    bad = ~np.isfinite(logw.max(axis=-1))
    if bad.any():
        raise NumericFailure("the largest log weight leaves the float "
                             f"range at s = {s[bad][0]}")
    return u._alpha, logw


def _log_sum(logw: np.ndarray) -> np.ndarray:
    top = logw.max(axis=-1)
    return top + np.log(np.exp(logw - top[..., None]).sum(axis=-1))


def _exp(log_f: np.ndarray):
    """exp(log_f), inf past the float range; a float for one radius."""
    with np.errstate(over="ignore"):
        f = np.exp(log_f)
    return float(f) if f.ndim == 0 else f


def I(u: ConeHarmonic, s):
    """Cross-sectional height: sum of c_i^2 * s^(2*alpha_i)."""
    return _exp(_log_sum(_log_weights(u, s)[1]))


def D(u: ConeHarmonic, s):
    """Rescaled Dirichlet energy: sum of c_i^2 * alpha_i * s^(2*alpha_i)."""
    alpha, logw = _log_weights(u, s)
    return _exp(_log_sum(logw + np.log(alpha)))


def U(u: ConeHarmonic, s):
    """Frequency D/I at one radius or an array of radii; equals the
    exponent exactly for a single mode, and is non-decreasing in s."""
    alpha, logw = _log_weights(u, s)
    w = np.exp(logw - logw.max(axis=-1, keepdims=True))
    f = (w @ alpha) / w.sum(axis=-1)
    return float(f) if f.ndim == 0 else f


def J(u: ConeHarmonic, s):
    """Ball average of u^2: sum of c_i^2 / (2*alpha_i + n) * s^(2*alpha_i).

    Equals the radial integral of I(r) * r^(n-1) over [0, s] divided by
    s^n, exactly, for every finite mode sum.
    """
    return _exp(_log_sum(_log_weights(u, s)[1] - u._log_div))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_MAX_ENTRIES = 2 ** 22  # quadrature nodes times modes: 32 MiB per array


def frequency_identity_check(u: ConeHarmonic, r: float, s: float) -> float:
    """Residual of log I(s) - log I(r) = integral of 2 U(t)/t over [r, s].

    The integral is a composite 20-node Gauss-Legendre rule in x = log t on
    max(16, ceil(spread * log(s/r))) panels, spread = alpha_max - alpha_min,
    since the steps of U in x are about 1/(2 * spread) wide.  The residual
    is at rounding level (about 1e-14 for 64 modes, exponents up to 20) and
    finite where I overflows; past 2**22 nodes times modes, NumericFailure
    names the panel count needed.
    """
    if not 0 < r < s < math.inf:
        raise InvalidArgument(f"need 0 < r < s < inf, got r={r}, s={s}")
    alpha, logw = _log_weights(u, [r, s])
    log_i = _log_sum(logw)
    log_r, width = math.log(r), math.log(s) - math.log(r)
    panels = max(16.0, float(np.ceil((alpha.max() - alpha.min()) * width)))
    if panels * _GL_NODES.size * alpha.size > _MAX_ENTRIES:
        raise NumericFailure(
            f"the identity check on [{r}, {s}] needs {panels:.0f} panels for "
            f"{alpha.size} modes, past {_MAX_ENTRIES} node-mode entries")
    half = 0.5 * width / panels
    centres = log_r + half * (2.0 * np.arange(int(panels)) + 1.0)
    nodes = np.exp(centres[:, None] + half * _GL_NODES)
    integral = 2.0 * half * float((U(u, nodes) @ _GL_WEIGHTS).sum())
    return abs(float(log_i[1] - log_i[0]) - integral)


class ThreeCirclesResult(NamedTuple):
    ratio: float
    bound: float
    satisfied: bool


def three_circles_ratio(u: ConeHarmonic, s: float, k: float
                        ) -> ThreeCirclesResult:
    """Doubling ratio J(s)/J(s/2) against the growth-cap bound 2^(2*k).

    The cap is the largest admissible exponent at growth order k, i.e.
    the exponent of the eigenvalue k(k+n-2), which is k itself.  A single
    mode sitting exactly at the cap saturates the bound.  Past the float
    range (k above 512) the bound is reported as inf and the verdict
    compares log ratio with 2 k log 2; the ratio is inf when it too
    overflows.
    """
    if not 0 < k < math.inf:
        raise InvalidArgument(f"k must be positive and finite, got {k}")
    alpha, logw = _log_weights(u, s)
    for i, m in enumerate(u.active_modes):
        if m.alpha > k * (1.0 + 1e-12):
            raise PreconditionViolation(
                f"mode {i} (alpha = {m.alpha}, mode_id = {m.mode_id}) "
                f"exceeds the growth cap {k}")
    log_j = logw - u._log_div
    log_j -= log_j.max()  # at s/2 each row entry drops by 2 alpha log 2
    log_ratio = float(_log_sum(log_j)
                      - _log_sum(log_j - 2.0 * math.log(2.0) * alpha))
    try:
        ratio = math.exp(log_ratio)
    except OverflowError:
        ratio = math.inf
    try:
        bound = 2.0 ** (2.0 * k)
    except OverflowError:  # k past 512: decide in log space
        return ThreeCirclesResult(ratio, math.inf, log_ratio <= (
            2.0 * k * math.log(2.0) + math.log1p(1e-12)))
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


def circle_mode_sum(u: ConeHarmonic, L: float, theta, r):
    """constant + sum of c r^alpha phi(theta) over the active modes, in
    order, on Circle(L); theta and r are floats or broadcasting arrays."""
    return sum((m.c * r ** m.alpha * circle_eigenfunction(L, m.mode_id, theta)
                for m in u.modes if m.c != 0.0 and m.mode_id != 0),
               u.constant_term)

