"""Cross-sections of Euclidean cones and their spectral counting functions.

A cross-section is a compact metric measure space X whose Laplace spectrum
0 = lambda_0 < lambda_1 <= lambda_2 <= ... drives everything downstream:
the counting function N_X, the resonant exponent set, and the growth
dimension bounds.  Four concrete variants are provided:

* ``RoundSphere(d)``   -- the unit d-sphere (closed-form spectrum),
* ``Circle(L)``        -- a circle of circumference L <= 2*pi (n = 2),
* ``MetricCircleNumeric`` -- a variable-density circle, counted as the
  round circle of its total length,
* ``ExplicitSpectrum`` -- a user-supplied truncated spectrum plus measure.

All types are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import bisect
import json
import math
import sys
from dataclasses import dataclass

from .errors import InvalidArgument, ResolutionInsufficient
from .exponents import eigenvalue_from_exponent, exponent_from_eigenvalue

#: Default absolute tolerance on beta for resonance detection.  Closed-form
#: spectra are exact; callers using numeric spectra should widen this to
#: cover the certified error bars.
RESONANCE_TOL = 1e-9

#: A computed circle eigenvalue (2*pi*j/L)^2 within this relative distance
#: of a query lambda counts as equal to it: the roundings of that expression
#: and of k*k move an exact resonance by a few ulps.
_EQUAL_RTOL = 4.0 * sys.float_info.epsilon

#: Relative error bound of a metric-circle eigenvalue (2*pi*j/L)^2 against
#: the exact (j/x)^2, x the exact mean of the density samples.  The
#: rounding of pi cancels between 2*pi*j and L = 2*pi*fsum(a)/len(a); five
#: roundings of u = eps/2 remain in the ratio and the square adds at most
#: one ulp, about 12u = 6 eps in all.
_ROUNDING_RTOL = 8.0 * sys.float_info.epsilon


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

    def counting(self, lam: float) -> int:
        """N(lam): number of eigenvalues <= lam, with multiplicity."""
        return sum(m for ev, m in self.entries if ev <= lam)

    def counting_left(self, lam: float) -> int:
        """Number of eigenvalues strictly below lam, with multiplicity."""
        return sum(m for ev, m in self.entries if ev < lam)

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

    def nearest(self, k: float) -> tuple[float, float]:
        """Return (nearest exponent, |k - nearest|)."""
        if not self.exponents:
            return math.nan, math.inf
        best = min(self.exponents, key=lambda b: abs(k - b))
        return best, abs(k - best)


class CrossSection:
    """Common interface of all cross-section variants."""

    #: dimension n of the cone C(X); the cross-section itself is (n-1)-dim.
    ambient_dim: int

    def certified_bound(self) -> float:
        """Largest eigenvalue up to which the spectrum is certified."""
        raise NotImplementedError

    def spectrum_upto(self, lambda_max: float) -> Spectrum:
        """All eigenvalues <= lambda_max as a grouped Spectrum."""
        raise NotImplementedError

    def counting(self, lam: float) -> int:
        """N_X(lam): eigenvalues <= lam counted with multiplicity (index 0 included)."""
        raise NotImplementedError

    def counting_left(self, lam: float) -> int:
        """Eigenvalues strictly below lam, counted with multiplicity."""
        raise NotImplementedError

    def measure(self) -> float:
        """The (n-1)-dimensional Hausdorff measure of X."""
        raise NotImplementedError

    # -- shared machinery ---------------------------------------------------

    def _check_certified(self, lam: float):
        if lam < 0:
            raise InvalidArgument(f"lambda must be nonnegative, got {lam}")
        bound = self.certified_bound()
        if lam > bound:
            raise ResolutionInsufficient(
                f"lambda = {lam} exceeds the certified bound {bound}",
                certified_bound=bound)

    def _ensure_range(self, lam: float):
        """Certify the spectrum up to lam, extending it where possible."""
        self._check_certified(lam)

    def resonant_set_upto(self, beta_max: float) -> ResonantSet:
        """All beta in [0, beta_max] with beta*(beta+n-2) in the spectrum."""
        n = self.ambient_dim
        lam_max = eigenvalue_from_exponent(beta_max, n)
        spec = self.spectrum_upto(lam_max)
        exps, lams = [], []
        for lam, _ in spec.entries:
            beta = exponent_from_eigenvalue(lam, n)
            if beta <= beta_max:
                exps.append(beta)
                lams.append(lam)
        return ResonantSet(n, tuple(exps), tuple(lams), beta_max)

    def is_resonant(self, k: float, tol: float = RESONANCE_TOL
                    ) -> tuple[bool, float, float]:
        """Whether k lies within tol of a resonant exponent.

        Returns ``(resonant, nearest_beta, distance)`` so callers can flag
        "exactness not guaranteed" near resonances.
        """
        if tol < 0:
            raise InvalidArgument(f"tol must be nonnegative, got {tol}")
        if k < 0:
            raise InvalidArgument(f"k must be nonnegative, got {k}")
        n = self.ambient_dim
        # Look one unit past k so the nearest resonance from above is seen,
        # but never past the certified range.
        window = k + max(tol, 1.0)
        try:
            self._ensure_range(eigenvalue_from_exponent(window, n))
        except ResolutionInsufficient:
            self._ensure_range(eigenvalue_from_exponent(k + tol, n))
            window = exponent_from_eigenvalue(self.certified_bound(), n)
        rset = self.resonant_set_upto(window)
        beta, dist = rset.nearest(k)
        return dist <= tol, beta, dist


@dataclass(frozen=True)
class RoundSphere(CrossSection):
    """Unit d-sphere; the cross-section of R^(d+1) = C(S^d).

    Eigenvalues l*(l + d - 1) with the spherical-harmonic multiplicities
    C(l+d, d) - C(l+d-2, d).
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

    def _mult(self, l: int) -> int:
        d = self.d
        sub = math.comb(l + d - 2, d) if l + d - 2 >= 0 else 0
        return math.comb(l + d, d) - sub

    def _lmax(self, lam: float) -> int:
        """Largest l with l*(l + d - 1) <= lam (-1 if none)."""
        if lam < 0:
            return -1
        d1 = self.d - 1
        l = int((-d1 + math.sqrt(d1 * d1 + 4.0 * lam)) / 2.0)
        while (l + 1) * (l + 1 + d1) <= lam:
            l += 1
        while l >= 0 and l * (l + d1) > lam:
            l -= 1
        return l

    def spectrum_upto(self, lambda_max: float) -> Spectrum:
        if lambda_max <= 0:
            raise InvalidArgument(f"lambda_max must be positive, got {lambda_max}")
        entries = []
        l = 0
        while l * (l + self.d - 1) <= lambda_max:
            entries.append((float(l * (l + self.d - 1)), self._mult(l)))
            l += 1
        return Spectrum(self.ambient_dim, tuple(entries), lambda_max)

    def counting(self, lam: float) -> int:
        self._check_certified(lam)
        l = self._lmax(lam)
        if l < 0:
            return 0
        d = self.d
        # cumulative multiplicity = dim of harmonic polynomials of degree <= l
        return math.comb(l + d, d) + math.comb(l + d - 1, d)

    def counting_left(self, lam: float) -> int:
        self._check_certified(lam)
        l = self._lmax(lam)
        if l >= 0 and l * (l + self.d - 1) == lam:
            l -= 1
        if l < 0:
            return 0
        d = self.d
        return math.comb(l + d, d) + math.comb(l + d - 1, d)

    def measure(self) -> float:
        # surface measure of the unit d-sphere
        d = self.d
        return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


@dataclass(frozen=True)
class Circle(CrossSection):
    """A circle of circumference L <= 2*pi; cross-section of a 2D cone.

    Eigenvalues (2*pi*j/L)^2 with multiplicity 2 for j >= 1 (cos/sin pairs).
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

    def _eig(self, j: int) -> float:
        return (2.0 * math.pi * j / self.length) ** 2

    def _jmax(self, bound: float, strict: bool = False) -> int:
        """Largest j with lambda_j <= bound (< bound when strict); -1 if none."""
        if bound < 0 or (strict and bound <= 0):
            return -1
        j = int(self.length * math.sqrt(bound) / (2.0 * math.pi))
        if strict:
            while self._eig(j + 1) < bound:
                j += 1
            while j >= 0 and self._eig(j) >= bound:
                j -= 1
        else:
            while self._eig(j + 1) <= bound:
                j += 1
            while j >= 0 and self._eig(j) > bound:
                j -= 1
        return j

    def spectrum_upto(self, lambda_max: float) -> Spectrum:
        if lambda_max <= 0:
            raise InvalidArgument(f"lambda_max must be positive, got {lambda_max}")
        jmax = self._jmax(lambda_max)
        entries = [(0.0, 1)] + [(self._eig(j), 2) for j in range(1, jmax + 1)]
        return Spectrum(2, tuple(entries), lambda_max)

    def counting(self, lam: float) -> int:
        self._check_certified(lam)
        return 1 + 2 * max(self._jmax(lam * (1.0 + _EQUAL_RTOL)), 0) \
            if lam >= 0 else 0

    def counting_left(self, lam: float) -> int:
        self._check_certified(lam)
        if lam <= 0:
            return 0
        return 1 + 2 * max(self._jmax(lam * (1.0 - _EQUAL_RTOL), strict=True), 0)

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
        self._eigs = [lam for lam, _ in spectrum.entries]
        cum = []
        total = 0
        for _, m in spectrum.entries:
            total += m
            cum.append(total)
        self._cum = cum

    @property
    def ambient_dim(self) -> int:
        return self._spectrum.ambient_dim

    @property
    def spectrum(self) -> Spectrum:
        return self._spectrum

    def certified_bound(self) -> float:
        return self._spectrum.truncation_bound

    def spectrum_upto(self, lambda_max: float) -> Spectrum:
        if lambda_max <= 0:
            raise InvalidArgument(f"lambda_max must be positive, got {lambda_max}")
        self._check_certified(lambda_max)
        entries = tuple((lam, m) for lam, m in self._spectrum.entries
                        if lam <= lambda_max)
        return Spectrum(self.ambient_dim, entries, lambda_max)

    def counting(self, lam: float) -> int:
        self._check_certified(lam)
        i = bisect.bisect_right(self._eigs, lam)
        return self._cum[i - 1] if i > 0 else 0

    def counting_left(self, lam: float) -> int:
        self._check_certified(lam)
        i = bisect.bisect_left(self._eigs, lam)
        return self._cum[i - 1] if i > 0 else 0

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
