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
writes counting, spectrum truncation, the resonant set and the resonance
lookup once on top of them.

All types are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, ResolutionInsufficient
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


@dataclass(frozen=True)
class Spectrum:
    """A truncated Laplace spectrum as grouped (eigenvalue, multiplicity) pairs.

    ``truncation_bound`` certifies that every eigenvalue <= that bound is
    present.  The first entry must be (0, 1): the constant eigenfunction of
    a connected cross-section.
    """

    ambient_dim: int
    entries: tuple[tuple[float, int], ...]
    truncation_bound: float

    def __post_init__(self):
        if self.ambient_dim < 2:
            raise InvalidArgument(
                f"ambient_dim must be >= 2, got {self.ambient_dim}")
        if not self.entries:
            raise InvalidArgument("spectrum must contain at least lambda_0 = 0")
        if self.entries[0] != (0.0, 1) and self.entries[0][0] != 0.0:
            raise InvalidArgument(
                f"first eigenvalue must be 0, got {self.entries[0][0]}")
        if self.entries[0][1] != 1:
            raise InvalidArgument(
                "lambda_0 = 0 must be simple (connected cross-section), "
                f"got multiplicity {self.entries[0][1]}")
        prev = -math.inf
        for i, (lam, mult) in enumerate(self.entries):
            if lam < 0:
                raise InvalidArgument(f"entry {i}: negative eigenvalue {lam}")
            if lam <= prev:
                raise InvalidArgument(
                    f"entry {i}: eigenvalues must be strictly increasing "
                    f"({lam} after {prev})")
            if mult < 1 or int(mult) != mult:
                raise InvalidArgument(
                    f"entry {i}: multiplicity must be a positive integer, got {mult}")
            if lam > self.truncation_bound:
                raise InvalidArgument(
                    f"entry {i}: eigenvalue {lam} exceeds truncation bound "
                    f"{self.truncation_bound}")
            prev = lam

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return tuple(lam for lam, _ in self.entries)

    def to_json(self, measure: float | None = None,
                error_bars: list[float] | None = None) -> dict:
        doc = {
            "ambient_dim": self.ambient_dim,
            "entries": [{"lambda": lam, "mult": m} for lam, m in self.entries],
            "truncation_bound": self.truncation_bound,
        }
        if measure is not None:
            doc["measure"] = measure
        if error_bars is not None:
            doc["error_bars"] = list(error_bars)
        return doc


@dataclass(frozen=True)
class ResonantSet:
    """Exponents beta >= 0 with beta*(beta + n - 2) in the spectrum.

    Constructed by inverting each stored eigenvalue through the exponent
    map, so every member maps back onto its eigenvalue exactly.
    """

    ambient_dim: int
    exponents: tuple[float, ...]
    eigenvalues: tuple[float, ...]  # parallel to exponents
    beta_max: float


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

    def count_array(self, lam: np.ndarray) -> np.ndarray:
        """N_X at each entry of a float array: exact integers, int64 while
        they fit, Python ints beyond."""
        for edge in (lam.min(), lam.max()):
            self._check_certified(float(edge))
        return self.level_count(self.level_lookup(lam * (1.0 + _EQUAL_RTOL)))

    def counting(self, lam: float) -> int:
        """N_X(lam): eigenvalues <= lam counted with multiplicity (index 0 included)."""
        return int(self.count_array(np.array([lam]))[0])

    def counting_left(self, lam: float) -> int:
        """Eigenvalues strictly below lam, counted with multiplicity."""
        self._check_certified(lam)
        below = np.nextafter(lam * (1.0 - _EQUAL_RTOL), -math.inf)
        return int(self.level_count(self.level_lookup(np.array([below])))[0])

    def spectrum_upto(self, lambda_max: float) -> Spectrum:
        """All eigenvalues <= lambda_max as a grouped Spectrum."""
        if lambda_max <= 0:
            raise InvalidArgument(f"lambda_max must be positive, got {lambda_max}")
        self._check_certified(lambda_max)
        levels = np.arange(self.level_lookup(np.array([lambda_max]))[0] + 1)
        mults = np.diff(self.level_count(levels), prepend=0)
        entries = zip(self.level_eigenvalue(levels).tolist(), mults.tolist())
        return Spectrum(self.ambient_dim, tuple(entries), lambda_max)

    def resonance_blocks(self, beta_max: float):
        """Yield (exponents, eigenvalues) arrays of the resonances in
        [0, beta_max], in level order, LEVEL_BLOCK levels at a time."""
        n = self.ambient_dim
        lam_max = eigenvalue_from_exponent(beta_max, n)
        self._check_certified(lam_max)
        # lam_max may round below the eigenvalue whose exponent is beta_max,
        # so the level one past the lookup is read too
        stop = self.level_lookup(np.array([lam_max]))[0] + 2
        for start in range(0, stop, LEVEL_BLOCK):
            lams = self.level_eigenvalue(
                np.arange(start, min(start + LEVEL_BLOCK, stop)))
            betas = exponent_from_eigenvalue(lams, n)
            keep = betas <= beta_max
            yield betas[keep], lams[keep]

    def resonant_set_upto(self, beta_max: float) -> ResonantSet:
        """All beta in [0, beta_max] with beta*(beta+n-2) in the spectrum."""
        exps, lams = (tuple(np.concatenate(part).tolist())
                      for part in zip(*self.resonance_blocks(beta_max)))
        return ResonantSet(self.ambient_dim, exps, lams, beta_max)

    def is_resonant(self, k: float, tol: float = RESONANCE_TOL
                    ) -> tuple[bool, float, float]:
        """Whether k lies within tol of a resonant exponent.

        Returns ``(resonant, nearest_beta, distance)`` so callers can flag
        "exactness not guaranteed" near resonances.  Only the levels on
        either side of k(k+n-2) are read; the one above counts while its
        exponent is at most k + max(tol, 1) and certified.
        """
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
        i = self.level_lookup(np.array([eigenvalue_from_exponent(k, n)]))[0]
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

    def measure(self) -> float:
        # surface measure of the unit d-sphere
        d = self.d
        return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


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

    def level_lookup(self, lam):
        guess = self.length * np.sqrt(np.maximum(lam, 0.0)) / (2.0 * math.pi)
        return self._settle(np.floor(guess), lam)

    def measure(self) -> float:
        return self.length


class ExplicitSpectrum(CrossSection):
    """A cross-section known only through a truncated spectrum and a measure.

    No curvature condition is (or can be) validated from a spectrum alone;
    admissibility as a cone cross-section is the caller's responsibility.
    """

    def __init__(self, spectrum: Spectrum, measure: float):
        if measure <= 0:
            raise InvalidArgument(f"measure must be positive, got {measure}")
        self._spectrum = spectrum
        self._measure = measure
        eigs, mults = zip(*spectrum.entries)
        # the level past the table reads as inf: nothing there is certified
        self._eigs = np.array(eigs + (math.inf,))
        cum = [0, *itertools.accumulate(mults)]
        self._cum = np.array(cum, dtype=np.int64 if cum[-1] < 2 ** 63 else object)

    @property
    def ambient_dim(self) -> int:
        return self._spectrum.ambient_dim

    @property
    def spectrum(self) -> Spectrum:
        return self._spectrum

    def certified_bound(self) -> float:
        return self._spectrum.truncation_bound

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

    def error_bars(self, spectrum: Spectrum) -> list[float]:
        """One bar per entry of `spectrum`: the float rounding of lambda."""
        return [_ROUNDING_RTOL * lam for lam, _ in spectrum.entries]


# -- spectrum JSON interchange ---------------------------------------------

def spectrum_from_json(doc: dict, source: str = "<json>") -> ExplicitSpectrum:
    """Build an ExplicitSpectrum from the documented JSON layout.

    Layout: {"ambient_dim": n, "measure": m, "truncation_bound": L,
    "entries": [{"lambda": x, "mult": k}, ...]}.  Violations are rejected
    with the offending entry index in the message.
    """
    for key in ("ambient_dim", "measure", "entries", "truncation_bound"):
        if key not in doc:
            raise InvalidArgument(f"{source}: missing required key '{key}'")
    entries = []
    for i, ent in enumerate(doc["entries"]):
        if "lambda" not in ent or "mult" not in ent:
            raise InvalidArgument(
                f"{source}: entry {i} must have 'lambda' and 'mult'")
        entries.append((float(ent["lambda"]), int(ent["mult"])))
    try:
        spec = Spectrum(int(doc["ambient_dim"]), tuple(entries),
                        float(doc["truncation_bound"]))
    except InvalidArgument as exc:
        raise InvalidArgument(f"{source}: {exc}") from exc
    return ExplicitSpectrum(spec, float(doc["measure"]))


def load_spectrum(path: str) -> ExplicitSpectrum:
    """Load and validate a spectrum JSON file."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidArgument(
                f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return spectrum_from_json(doc, source=path)
