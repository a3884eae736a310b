"""Cross-sections of Euclidean cones as level tables with one counting core.

A cross-section is a compact metric measure space X whose Laplace spectrum
0 = lambda_0 < lambda_1 <= lambda_2 <= ... drives everything downstream:
the counting function N_X, the resonant exponent set, and the growth
dimension bounds.  Level i of X is its i-th distinct eigenvalue.  Each
variant supplies three vectorised primitives: ``level_eigenvalue(i)``,
``level_count(i)`` (the cumulative multiplicity, exact) and
``level_lookup(lam)``, a closed-form sqrt inverse for ``RoundSphere(d)``
and ``Circle(L)`` (and ``MetricCircleNumeric``, a variable-density circle
counted as the round circle of its length) and ``np.searchsorted`` for
``ExplicitSpectrum``, a user-supplied truncated spectrum.  ``CrossSection``
writes counting, the resonant set and the resonance lookup once on top of
them, and truncates any spectrum to an ``ExplicitSpectrum``.

All types are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, NumericFailure, ResolutionInsufficient
from .exponents import eigenvalue_from_exponent, exponent_from_eigenvalue

#: Default absolute tolerance on beta for resonance detection.  Closed-form
#: spectra are exact; callers using numeric spectra should widen this to
#: cover the certified error bars.
RESONANCE_TOL = 1e-9

#: An eigenvalue within this relative distance of a query lambda counts as
#: equal to it, for every cross-section: the roundings of (2*pi*j/L)^2, of
#: k*(k+n-2) and of a stored float move an exact resonance by a few ulps.
_EQUAL_RTOL = 4.0 * sys.float_info.epsilon

#: Relative error bound of a metric-circle eigenvalue (2*pi*j/L)^2 against
#: the exact (j/x)^2, x the exact mean of the density samples.  The
#: rounding of pi cancels between 2*pi*j and L = 2*pi*fsum(a)/len(a); five
#: roundings of u = eps/2 remain in the ratio and the square adds at most
#: one ulp, about 12u = 6 eps in all.
_ROUNDING_RTOL = 8.0 * sys.float_info.epsilon

#: Levels (or growth orders) per array pass over a level table, so the
#: memory of a pass does not grow with the spectrum or with k.
LEVEL_BLOCK = 1 << 16

#: Levels a spectrum table or a resonant set may hold: 8 MiB per column.
_MAX_LEVELS = 2 ** 20

#: Level-count work a round-sphere table may take, in levels times the
#: dimension d: a level count is a product of d integers, so the work per
#: level grows with d.  The counts of a full table take about 0.5 s up to
#: d = 100, 0.9 s on S^400 (10485 levels) and 1.8 s on S^1000 (4194
#: levels), 2-core x86 host.
_MAX_SPHERE_TABLE_WORK = 2 ** 22

#: Largest round-sphere dimension.  A level count is a product of d big
#: integers: `count` at two lambdas takes about 0.6 ms at d = 1000 and
#: 0.5 s at d = 30000 (2-core x86 host).
_MAX_SPHERE_DIM = 1000

#: Natural logs of the smallest normal float and of the largest float.
_LOG_MIN = math.log(sys.float_info.min)
_LOG_MAX = math.log(sys.float_info.max)


def in_float_range(direct, log, what: str) -> float:
    """A positive value: direct() as written where that is a normal float,
    else exp(log()) from the logs of its factors, where only a factor
    leaves the float range; NumericFailure where the value does."""
    try:
        value = direct()
    except OverflowError:  # a float power, math.gamma, or a huge integer
        value = math.inf
    if sys.float_info.min <= value < math.inf:
        return value
    log_value = log()
    if not _LOG_MIN <= log_value < _LOG_MAX:
        raise NumericFailure(
            f"{what} is exp({log_value:.6g}), outside the float range")
    return math.exp(log_value)


def _exact_array(values) -> np.ndarray:
    """`values` as an array holding each one exactly: a machine-integer
    array when they fit one, Python objects else."""
    arr = np.array(values)
    return arr if arr.dtype.kind in "biu" else np.array(values, dtype=object)


def _check_levels(ambient_dim: int, eigs: np.ndarray, mults: np.ndarray,
                 truncation_bound: float):
    """Validate a spectrum given as eigenvalue and multiplicity columns.

    Every rule is one array pass.  The message names the first entry that
    breaks a rule, with the first rule (in the order below) it breaks.
    """
    if ambient_dim < 2:
        raise InvalidArgument(f"ambient_dim must be >= 2, got {ambient_dim}")
    if not math.isfinite(truncation_bound):
        raise InvalidArgument(
            f"truncation bound must be finite, got {truncation_bound}")
    if not eigs.size:
        raise InvalidArgument("spectrum must contain at least lambda_0 = 0")
    if eigs[0] != 0.0:
        raise InvalidArgument(f"first eigenvalue must be 0, got {eigs[0]}")
    if mults[0] != 1:
        raise InvalidArgument(
            "lambda_0 = 0 must be simple (connected cross-section), "
            f"got multiplicity {mults[0]}")
    prev = np.concatenate(([-math.inf], eigs[:-1]))
    with np.errstate(invalid="ignore"):
        rules = [
            (eigs < 0, "negative eigenvalue {lam}"),
            (eigs <= prev,
             "eigenvalues must be strictly increasing ({lam} after {prev})"),
            (~(mults >= 1) | (np.mod(mults, 1) != 0),
             "multiplicity must be a positive integer, got {mult}"),
            (eigs > truncation_bound,
             "eigenvalue {lam} exceeds truncation bound {bound}"),
            (~np.isfinite(eigs), "eigenvalue must be finite, got {lam}"),
        ]
    bad = np.logical_or.reduce([mask for mask, _ in rules])
    if bad.any():
        i = int(bad.argmax())
        text = next(text for mask, text in rules if mask[i])
        raise InvalidArgument(f"entry {i}: " + text.format(
            lam=float(eigs[i]), prev=float(prev[i]),
            mult=mults[i:i + 1].tolist()[0], bound=truncation_bound))


def _check_level_count(levels: int, what: str, ceiling: float):
    if levels > ceiling:
        raise NumericFailure(f"{what} needs {levels} levels, past {ceiling}")


class CrossSection:
    """A cross-section read as a level table; the counting core lives here."""

    #: dimension n of the cone C(X); the cross-section itself is (n-1)-dim.
    ambient_dim: int

    # -- level primitives, supplied by each variant ---------------------------

    def level_eigenvalue(self, i: np.ndarray) -> np.ndarray:
        """Float eigenvalue of each level i >= 0."""
        raise NotImplementedError

    def level_count(self, i: np.ndarray) -> np.ndarray:
        """Cumulative multiplicity through each level i >= -1, exactly:
        int64 while it fits, Python ints beyond."""
        raise NotImplementedError

    def level_lookup(self, lam: np.ndarray) -> np.ndarray:
        """The largest level whose eigenvalue is <= lam (-1 if none)."""
        raise NotImplementedError

    def certified_bound(self) -> float:
        """Largest eigenvalue up to which the spectrum is certified."""
        raise NotImplementedError

    def measure(self) -> float:
        """The (n-1)-dimensional Hausdorff measure of X."""
        raise NotImplementedError

    def max_levels(self) -> int:
        """Levels a spectrum table or a resonant set of X may hold."""
        return _MAX_LEVELS

    # -- the counting core ------------------------------------------------------

    def _check_certified(self, lam: float):
        if not math.isfinite(lam):
            raise InvalidArgument(f"lambda must be finite, got {lam}")
        if lam < 0:
            raise InvalidArgument(f"lambda must be nonnegative, got {lam}")
        bound = self.certified_bound()
        if lam > bound:
            raise ResolutionInsufficient(
                f"lambda = {lam} exceeds the certified bound {bound}",
                certified_bound=bound)

    def _settle(self, guess: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """Move float level guesses to the largest level with eigenvalue <= lam."""
        if guess.max() >= 2.0 ** 53:
            raise InvalidArgument(
                "lambda lies past level 2**53, where float eigenvalues no "
                "longer tell the levels apart")
        i = guess.astype(np.int64)
        while (up := self.level_eigenvalue(i + 1) <= lam).any():
            i = np.where(up, i + 1, i)
        while (down := (i >= 0) & (
                self.level_eigenvalue(np.maximum(i, 0)) > lam)).any():
            i = np.where(down, i - 1, i)
        return i

    def _check_certified_array(self, lam: np.ndarray):
        """_check_certified on the first entry of lam that fails it."""
        bad = ~(np.isfinite(lam) & (lam >= 0) & (lam <= self.certified_bound()))
        if bad.any():
            self._check_certified(float(lam[bad.argmax()]))

    def count_array(self, lam) -> np.ndarray:
        """N_X at each entry of a float sequence: exact integers, int64 while
        they fit, Python ints beyond."""
        lam = np.asarray(lam, dtype=float)
        self._check_certified_array(lam)
        return self.level_count(self.level_lookup(lam * (1.0 + _EQUAL_RTOL)))

    def count_left_array(self, lam) -> np.ndarray:
        """Eigenvalues strictly below each entry of lam, with multiplicity."""
        lam = np.asarray(lam, dtype=float)
        self._check_certified_array(lam)
        below = np.nextafter(lam * (1.0 - _EQUAL_RTOL), -math.inf)
        return self.level_count(self.level_lookup(below))

    def counting(self, lam: float) -> int:
        """N_X(lam): eigenvalues <= lam counted with multiplicity (index 0 included)."""
        return int(self.count_array([lam])[0])

    def counting_left(self, lam: float) -> int:
        """Eigenvalues strictly below lam, counted with multiplicity."""
        return int(self.count_left_array([lam])[0])

    def spectrum_upto(self, lambda_max: float) -> ExplicitSpectrum:
        """All eigenvalues <= lambda_max, as the level table of the
        truncated spectrum, which counts as this one does on [0, lambda_max].

        An eigenvalue within rounding above lambda_max counts as equal to it
        (see `count_array`), so it is kept and certifies the table up to
        itself."""
        if lambda_max <= 0:
            raise InvalidArgument(f"lambda_max must be positive, got {lambda_max}")
        self._check_certified(lambda_max)
        measure = self.measure()
        top = self.level_lookup(np.array([lambda_max * (1.0 + _EQUAL_RTOL)]))
        _check_level_count(top[0] + 1, f"the spectrum up to {lambda_max}",
                           self.max_levels())
        levels = np.arange(top[0] + 1)
        eigs = self.level_eigenvalue(levels)
        return ExplicitSpectrum(
            self.ambient_dim, eigs, np.diff(self.level_count(levels), prepend=0),
            max(lambda_max, float(eigs[-1])), measure)

    def resonance_blocks(self, beta_max: float, max_levels: float = math.inf):
        """Yield (exponents, eigenvalues) arrays of the resonances in
        [0, beta_max], in level order, LEVEL_BLOCK levels at a time; past
        `max_levels` levels, NumericFailure before the first block."""
        n = self.ambient_dim
        lam_max = eigenvalue_from_exponent(beta_max, n)
        self._check_certified(lam_max)
        # lam_max may round below the eigenvalue whose exponent is beta_max,
        # so the level one past the lookup is read too
        stop = self.level_lookup(np.array([lam_max]))[0] + 2
        _check_level_count(stop, f"the resonant set up to {beta_max}", max_levels)
        for start in range(0, stop, LEVEL_BLOCK):
            lams = self.level_eigenvalue(
                np.arange(start, min(start + LEVEL_BLOCK, stop)))
            betas = exponent_from_eigenvalue(lams, n)
            keep = betas <= beta_max
            yield betas[keep], lams[keep]

    def exponent_gap(self, beta_max: float) -> float:
        """A lower bound on the gap between two distinct resonant exponents
        in [0, beta_max]: the smallest such gap, walked block by block (inf
        for fewer than two), unless a subclass knows it in closed form."""
        gap, prev = math.inf, np.empty(0)
        for betas, _ in self.resonance_blocks(beta_max):
            run = np.concatenate((prev, betas))
            steps = np.diff(run)
            gap = min(gap, float(steps[steps > 0].min(initial=math.inf)))
            prev = run[-1:]
        return gap

    def resonant_set_upto(self, beta_max: float
                          ) -> tuple[np.ndarray, np.ndarray]:
        """(exponents, eigenvalues): every beta in [0, beta_max] with
        beta*(beta+n-2) in the spectrum, beside the stored eigenvalue it
        came from, in level order."""
        exps, lams = zip(*self.resonance_blocks(beta_max, self.max_levels()))
        return np.concatenate(exps), np.concatenate(lams)

    def is_resonant(self, k: float, tol: float = RESONANCE_TOL
                    ) -> tuple[bool, float, float]:
        """Whether k lies within tol of a resonant exponent.

        Returns ``(resonant, nearest_beta, distance)`` so callers can flag
        "exactness not guaranteed" near resonances.  Only the levels on
        either side of k(k+n-2) are read; the one above counts while its
        exponent is at most k + max(tol, 1) and certified.
        """
        window = self._resonance_window(k, tol)
        lam = eigenvalue_from_exponent(k, self.ambient_dim)
        return self._nearest_resonance(
            k, tol, window, self.level_lookup(np.array([lam]))[0])

    def growth_counts(self, k: float, tol: float = RESONANCE_TOL
                      ) -> tuple[int, int, tuple[bool, float, float]]:
        """(counting(lam), counting_left(lam), is_resonant(k, tol)) at
        lam = k(k+n-2), with the checks of the three in their order, from
        one level lookup."""
        lam = eigenvalue_from_exponent(k, self.ambient_dim)
        self._check_certified(lam)
        window = self._resonance_window(k, tol)
        # the probes of count_array, count_left_array and is_resonant
        levels = self.level_lookup(np.array([
            lam * (1.0 + _EQUAL_RTOL),
            np.nextafter(lam * (1.0 - _EQUAL_RTOL), -math.inf), lam]))
        upper, left = self.level_count(levels[:2]).tolist()
        return upper, left, self._nearest_resonance(k, tol, window, levels[2])

    def _resonance_window(self, k: float, tol: float) -> float:
        """The largest exponent `is_resonant` reads at k: k + max(tol, 1), or
        less where the certified spectrum ends before it."""
        if tol < 0:
            raise InvalidArgument(f"tol must be nonnegative, got {tol}")
        if k < 0:
            raise InvalidArgument(f"k must be nonnegative, got {k}")
        n = self.ambient_dim
        window = k + max(tol, 1.0)
        try:
            self._check_certified(eigenvalue_from_exponent(window, n))
        except ResolutionInsufficient:
            self._check_certified(eigenvalue_from_exponent(k + tol, n))
            window = exponent_from_eigenvalue(self.certified_bound(), n)
        return window

    def _nearest_resonance(self, k: float, tol: float, window: float, i: int
                           ) -> tuple[bool, float, float]:
        """`is_resonant` from the level i of k(k+n-2)."""
        n = self.ambient_dim
        below, above = exponent_from_eigenvalue(
            self.level_eigenvalue(np.array([i, i + 1])), n).tolist()
        closer = above <= window and abs(k - above) < abs(k - below)
        beta = above if closer else below
        dist = abs(k - beta)
        return dist <= tol, beta, dist


@dataclass(frozen=True)
class RoundSphere(CrossSection):
    """Unit d-sphere; the cross-section of R^(d+1) = C(S^d).

    Level l has eigenvalue l*(l + d - 1) and the spherical-harmonic
    multiplicity C(l+d, d) - C(l+d-2, d).
    """

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise InvalidArgument(f"sphere dimension must be >= 1, got {self.d}")
        if self.d > _MAX_SPHERE_DIM:
            raise NumericFailure(f"sphere dimension {self.d} is past "
                                 f"{_MAX_SPHERE_DIM}")

    @property
    def ambient_dim(self) -> int:
        return self.d + 1

    def certified_bound(self) -> float:
        return math.inf

    def level_eigenvalue(self, l):
        l = l.astype(float)
        return l * (l + (self.d - 1))

    def level_count(self, l):
        d = self.d
        # the product below stays under 2*(l+d)^d
        if l.size and (int(l.max()) + d) ** d >= 2 ** 62:
            l = l.astype(object)
        # dim of harmonic polynomials of degree <= l in R^(d+1):
        # C(l+d, d) + C(l+d-1, d) = (l+1)...(l+d-1) * (2l+d) / d!
        rising = np.prod(l[:, None] + np.arange(1, d), axis=1)
        return np.maximum(rising * (2 * l + d) // math.factorial(d), 0)

    def level_lookup(self, lam):
        d1 = self.d - 1
        root = np.sqrt(d1 * d1 + 4.0 * np.maximum(lam, 0.0))
        return self._settle(np.floor((root - d1) / 2.0), lam)

    def exponent_gap(self, beta_max: float) -> float:
        return 1.0  # level l has exponent l

    def max_levels(self) -> int:
        return min(_MAX_LEVELS, _MAX_SPHERE_TABLE_WORK // self.d)

    def measure(self) -> float:
        # surface measure of the unit d-sphere
        a = (self.d + 1) / 2.0
        return in_float_range(
            lambda: 2.0 * math.pi ** a / math.gamma(a),
            lambda: math.log(2.0) + a * math.log(math.pi) - math.lgamma(a),
            f"the measure of S^{self.d}")


@dataclass(frozen=True)
class Circle(CrossSection):
    """A circle of circumference L <= 2*pi; cross-section of a 2D cone.

    Level j has eigenvalue (2*pi*j/L)^2, with multiplicity 2 for j >= 1
    (cos/sin pairs).
    """

    length: float

    def __post_init__(self):
        if not 0 < self.length <= 2.0 * math.pi + 1e-15:
            raise InvalidArgument(
                f"circle length must lie in (0, 2*pi], got {self.length}")

    @property
    def ambient_dim(self) -> int:
        return 2

    def certified_bound(self) -> float:
        return math.inf

    def level_eigenvalue(self, j):
        return (2.0 * math.pi * j / self.length) ** 2

    def level_count(self, j):
        return np.maximum(2 * j + 1, 0)

    def exponent_gap(self, beta_max: float) -> float:
        return 2.0 * math.pi / self.length  # level j has exponent 2*pi*j/L

    def level_lookup(self, lam):
        guess = self.length * np.sqrt(np.maximum(lam, 0.0)) / (2.0 * math.pi)
        return self._settle(np.floor(guess), lam)

    def measure(self) -> float:
        return self.length


def _cumulative(mults: np.ndarray) -> np.ndarray:
    """[0, m_0, m_0 + m_1, ...] exactly: int64 while the total fits in it,
    Python ints beyond."""
    # a float total below 2**62 proves the exact one is below 2**63
    if mults.dtype != object and mults.sum(dtype=float) < 2.0 ** 62:
        return np.cumsum(np.append(0, mults), dtype=np.int64)
    cum = np.cumsum(np.array([0, *map(int, mults.tolist())], dtype=object))
    return cum.astype(np.int64) if cum[-1] < 2 ** 63 else cum


class ExplicitSpectrum(CrossSection):
    """A cross-section known only through a truncated spectrum and a measure.

    The spectrum is given as an eigenvalue and a multiplicity column,
    validated once by `_check_levels`: the first level must be (0, 1), the
    constant eigenfunction of a connected cross-section, and
    ``truncation_bound`` certifies that every eigenvalue <= that bound is
    present.  ``CrossSection.spectrum_upto`` returns its truncations as
    this type.  No curvature condition is (or can be) validated from a
    spectrum alone; admissibility as a cone cross-section is the caller's
    responsibility.
    """

    def __init__(self, ambient_dim: int, eigs, mults, truncation_bound: float,
                 measure: float):
        eigs = np.asarray(eigs, dtype=float)
        mults = _exact_array(mults)
        _check_levels(ambient_dim, eigs, mults, truncation_bound)
        if not (math.isfinite(measure) and measure > 0):
            raise InvalidArgument(
                f"measure must be positive and finite, got {measure}")
        self._ambient_dim = ambient_dim
        self._bound = truncation_bound
        self._measure = measure
        # the level past the table reads as inf: nothing there is certified
        self._eigs = np.append(eigs, math.inf)
        self._cum = _cumulative(mults)
        # read-only, so a spectrum `load_spectrum` keeps cannot be changed
        self._eigs.setflags(write=False)
        self._cum.setflags(write=False)

    @property
    def ambient_dim(self) -> int:
        return self._ambient_dim

    @property
    def entries(self) -> tuple[tuple[float, int], ...]:
        """(eigenvalue, multiplicity) per level, as Python floats and ints."""
        return tuple(zip(self._eigs[:-1].tolist(), np.diff(self._cum).tolist()))

    def to_json(self, error_bars: list[float] | None = None) -> dict:
        """The documented spectrum JSON layout (see `spectrum_from_json`)."""
        doc = {
            "ambient_dim": self._ambient_dim,
            "entries": [{"lambda": lam, "mult": m} for lam, m in self.entries],
            "measure": self._measure,
            "truncation_bound": self._bound,
        }
        if error_bars is not None:
            doc["error_bars"] = list(error_bars)
        return doc

    def certified_bound(self) -> float:
        return self._bound

    def level_eigenvalue(self, i):
        return self._eigs[i]

    def level_count(self, i):
        return self._cum[i + 1]

    def level_lookup(self, lam):
        return np.searchsorted(self._eigs, lam, side="right") - 1

    def measure(self) -> float:
        return self._measure


class MetricCircleNumeric(Circle):
    """A variable-density metric circle, counted as the round circle of its length.

    A circle with line element a(theta) dtheta is isometric to the round
    circle of its total length L, so the spectrum is (2*pi*j/L)^2 and the
    only numeric input is L, a sum of the density samples.  Every length
    that ``eigensolver.MetricCircle`` accepts is accepted, up to
    2*pi*(1 + 1e-12), just past the bound ``Circle`` enforces.
    """

    def __init__(self, circle):
        # `circle` is an eigensolver.MetricCircle, which validated its length
        object.__setattr__(self, "length", circle.total_length)
        object.__setattr__(self, "metric_circle", circle)

    def error_bars(self, spectrum: ExplicitSpectrum) -> list[float]:
        """One bar per level of `spectrum`: the float rounding of lambda."""
        return [_ROUNDING_RTOL * lam for lam, _ in spectrum.entries]


# -- spectrum JSON interchange ---------------------------------------------

def _finite_number(value) -> bool:
    """Whether a parsed JSON value is a number that a finite float holds."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _numbers(key: str, values: list, convert) -> np.ndarray:
    """`convert(values)` once every value is a JSON number, else an error
    naming the first entry whose `key` is not a finite number."""
    if set(map(type, values)) <= {int, float}:
        try:
            return convert(values)
        except OverflowError:  # an integer past the float range
            pass
    i = next(i for i, v in enumerate(values) if not _finite_number(v))
    raise InvalidArgument(
        f"entry {i}: '{key}' must be a finite number, got {json.dumps(values[i])}")


def _columns(entries) -> tuple[list, list]:
    """The lambda and mult columns of a spectrum file's 'entries', given as
    a list of {"lambda": x, "mult": k} objects or as one object of two
    equally long lists, {"lambda": [x, ...], "mult": [k, ...]}."""
    if isinstance(entries, dict):
        lams, mults = entries.get("lambda"), entries.get("mult")
        if not (isinstance(lams, list) and isinstance(mults, list)):
            raise InvalidArgument(
                "columnar 'entries' must hold 'lambda' and 'mult' lists")
        if len(lams) != len(mults):
            raise InvalidArgument(f"entry {min(len(lams), len(mults))} "
                                  "must have 'lambda' and 'mult'")
        return lams, mults
    if not isinstance(entries, list):
        raise InvalidArgument("'entries' must be a list or an object of "
                              f"columns, got {json.dumps(entries)}")
    try:
        return ([ent["lambda"] for ent in entries],
                [ent["mult"] for ent in entries])
    except (KeyError, TypeError):
        i = next(i for i, ent in enumerate(entries) if not (
            isinstance(ent, dict) and "lambda" in ent and "mult" in ent))
        raise InvalidArgument(
            f"entry {i} must have 'lambda' and 'mult'") from None


def spectrum_from_json(doc: dict, source: str = "<json>") -> ExplicitSpectrum:
    """Build an ExplicitSpectrum from the documented JSON layout.

    Layout: {"ambient_dim": n, "measure": m, "truncation_bound": L,
    "entries": [{"lambda": x, "mult": k}, ...]}, or the same with the
    entries as columns, "entries": {"lambda": [x, ...], "mult": [k, ...]}.
    The two entry columns are read into arrays and validated by
    `_check_levels`; violations are rejected with the source and the
    offending entry index in the message.
    """
    try:
        if not isinstance(doc, dict):
            raise InvalidArgument("a spectrum document must be a JSON object")
        for key in ("ambient_dim", "measure", "entries", "truncation_bound"):
            if key not in doc:
                raise InvalidArgument(f"missing required key '{key}'")
        dim = doc["ambient_dim"]
        if not (_finite_number(dim) and dim % 1 == 0):
            raise InvalidArgument(
                f"'ambient_dim' must be an integer, got {json.dumps(dim)}")
        for key in ("measure", "truncation_bound"):
            if not _finite_number(doc[key]):
                raise InvalidArgument(
                    f"'{key}' must be a finite number, got {json.dumps(doc[key])}")
        lams, mults = _columns(doc["entries"])
        return ExplicitSpectrum(
            int(dim), _numbers("lambda", lams, lambda v: np.array(v, dtype=float)),
            _numbers("mult", mults, _exact_array),
            float(doc["truncation_bound"]), float(doc["measure"]))
    except InvalidArgument as exc:
        raise InvalidArgument(f"{source}: {exc}") from exc


def _read_bytes(path: str) -> bytes:
    """The raw bytes of the file at `path`; a file that cannot be read is
    InvalidArgument naming the path."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise InvalidArgument(f"{path}: {exc.strerror or exc}") from exc


def _decode(data: bytes, path: str) -> str:
    """`data` read from `path` as `open(path, encoding="utf-8")` reads it:
    UTF-8 with universal newlines; bytes that are not UTF-8 are
    InvalidArgument naming the path."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidArgument(f"{path}: {exc}") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _read_text(path: str) -> str:
    """The UTF-8 text of the file at `path`; a file that cannot be read as
    such is InvalidArgument naming the path."""
    return _decode(_read_bytes(path), path)


def _read_json(path: str):
    """The parsed JSON document at `path`; a document that does not parse
    is InvalidArgument."""
    return _parse_json(_read_text(path), path)


def _parse_json(text: str, path: str):
    """The JSON document `text` read from `path`; a document that does not
    parse is InvalidArgument naming the path."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidArgument(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # long integers, deep nesting
        raise InvalidArgument(f"{path}: {exc}") from exc


#: (bytes, spectrum) of the last spectrum file `load_spectrum` parsed.
_last_load: tuple[bytes, ExplicitSpectrum] | None = None


def load_spectrum(path: str) -> ExplicitSpectrum:
    """Load and validate a spectrum JSON file.

    The file's bytes are read on every call.  The spectrum of the last
    file that parsed is kept beside the bytes it was parsed from, and a
    file read with the same bytes is neither decoded nor parsed again:
    many in-process CLI calls on one file parse it once.  A file with
    other bytes misses, so the kept spectrum cannot go stale, and a file
    that cannot be read, decoded or parsed is not kept, so it fails on
    every call."""
    global _last_load
    data = _read_bytes(path)
    if _last_load is None or _last_load[0] != data:
        doc = _parse_json(_decode(data, path), path)
        _last_load = data, spectrum_from_json(doc, source=path)
    return _last_load[1]
