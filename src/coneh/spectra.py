"""Cross-sections of Euclidean cones as level tables with one counting core.

A cross-section is a compact metric measure space X whose Laplace spectrum
0 = lambda_0 < lambda_1 <= lambda_2 <= ... drives everything downstream:
the counting function N_X, the resonant exponent set, and the growth
dimension bounds.  Level i of X is its i-th distinct eigenvalue.  Each
variant supplies three vectorised primitives: ``level_eigenvalue(i)``,
``level_count(i)`` (the cumulative multiplicity, exact) and
``level_lookup(lam)``, a closed-form sqrt inverse for ``RoundSphere(d)``
and ``Circle(L)`` (and ``MetricCircleNumeric``, a variable-density circle
built from its density samples and counted as the round circle of its
length) and ``np.searchsorted`` for ``ExplicitSpectrum``, a user-supplied
truncated spectrum.  ``CrossSection`` writes counting, the resonant set,
the resonance lookup and the Cesaro sums once on top of them (spheres and
circles sum in closed form), and truncates any spectrum to an
``ExplicitSpectrum``.  Spectrum, density and harmonic files share one set
of JSON checks.

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

#: The resonance verdict: k is resonant when it lies within this absolute
#: distance of a resonant exponent.  It is the one fixed rule for every
#: cross-section, not a default to widen: each spectrum is a closed form or
#: a table taken as given, and 1e-9 covers the roundings of the exponent map.
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

#: Growth orders per array pass of the Cesaro walk, so the memory of a
#: pass does not grow with k.
LEVEL_BLOCK = 1 << 16

#: Levels a spectrum table or a resonant set may hold: 8 MiB per column.
_MAX_LEVELS = 2 ** 20

#: Big-integer work a round-sphere table may take, in levels times the
#: dimension d: a level count is two binomials of min(l, d) products each.
#: The counts of a full table take about 0.25-0.75 s up to d = 100, 0.9 s
#: on S^400 (10485 levels) and 1.0 s on S^1000 (4194 levels), 2-core x86
#: host.
_MAX_SPHERE_TABLE_WORK = 2 ** 22

#: Largest round-sphere dimension.  One level count near level 2**52 takes
#: about 2 ms at d = 1000 and 0.5 s at d = 30000 (2-core x86 host): its
#: binomials take d big-integer products each.
_MAX_SPHERE_DIM = 1000

#: Shortest circle on which every level j < 2**55 has a finite eigenvalue
#: (2*pi*j/L)^2: 2*pi*2**55/L stays below the square root of the largest
#: float, so the square does not overflow.  `_settle` refuses levels past
#: 2**53.  About 1.7e-137.
_FINITE_LEVELS_LENGTH = (2.0 * math.pi * 2.0 ** 55
                         / math.sqrt(sys.float_info.max))

#: Largest power of two that halves the Cesaro sampling offset: the offset
#: starts at 2**-2 and halves while a sampled order ties with a resonance.
_MIN_OFFSET_EXP = 20

#: Growth orders one Cesaro sum may sample.  Spheres and circles sum in
#: O(1) and O(log K) steps, so on them this bounds what the float checks
#: can certify, not the cost: the orders i - 1 + delta stay exact floats,
#: and the tie margin 8 eps K of `_tie_shift`, which grows with K on
#: circles, stays below 2**-24, under the smallest offset 2**-20.  A
#: spectrum file walks its orders: about 0.5 s at the ceiling on a file
#: of 262145 levels (2-core x86 host).
_MAX_CESARO_ORDERS = 2 ** 24

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


def _upper_probe(lam):
    """The level lookup's probe for N_X(lam): lam widened by _EQUAL_RTOL,
    so that an eigenvalue within rounding above lam counts as equal to it.
    It stops at the largest float, with no overflow warning: no finite
    eigenvalue lies past it, and a table's lookup stays inside the table."""
    with np.errstate(over="ignore"):
        return np.minimum(lam * (1.0 + _EQUAL_RTOL), sys.float_info.max)


def _lower_probe(lam):
    """The level lookup's probe for the eigenvalues strictly below lam: lam
    narrowed by _EQUAL_RTOL and one ulp more, so that an eigenvalue within
    rounding below lam counts as equal to it, not as below it."""
    return np.nextafter(lam * (1.0 - _EQUAL_RTOL), -math.inf)


def sphere_count(d: int, l: int) -> int:
    """C(l+d, d) + C(l+d-1, d), the eigenvalues of S^d through level l with
    multiplicity (the harmonic polynomials of degree <= l in R^(d+1)), as a
    Python int; 0 below level 0."""
    return math.comb(l + d, d) + math.comb(l + d - 1, d) if l >= 0 else 0


def _exact_array(values) -> np.ndarray:
    """`values` as an array holding each one exactly: a machine-integer
    array when they fit one, Python objects else."""
    arr = np.array(values)
    return arr if arr.dtype.kind in "bi" else np.array(values, dtype=object)


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


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """The sum of floor((a*i + b) / m) over i = 0..n-1, for Python ints
    n >= 0 and m >= 1, in O(log m) steps of Euclid's algorithm."""
    total = 0
    while True:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += qa * (n * (n - 1) // 2) + qb * n
        top = a * n + b
        if top < m:
            return total
        # count the lattice points under the line with the axes swapped
        n, b = divmod(top, m)
        m, a = a, m


def _exact_sum(counts: np.ndarray) -> int:
    """The sum of nonnegative exact counts as a Python int: summed in int64
    where size * max < 2**63 proves the sum fits, as Python ints else."""
    if counts.dtype == np.int64 and counts.size * int(counts.max()) < 2 ** 63:
        return int(counts.sum())
    return sum(counts.tolist())


def _tie_shift(orders: int) -> int:
    """The e with 2**-e the tie margin of the growth orders o < K = orders:
    a power of two >= 8 eps K.

    `count_array` counts an eigenvalue at the order o when
    fl(lam_j) <= fl(fl(o (o + n - 2)) (1 + 4 eps)).  On a circle
    lam_j = fl(fl(fl(2 pi j) / L)^2) is (j/x)^2, x = L / fl(2 pi) exactly,
    within 5 roundings of u = eps/2 (two in the exponent, doubled by the
    square, and the square's own), and the right side is o^2 (1 + 8u)
    within 2u for n = 2.  So if |j/x - o| > 8 eps o = 16u o, the float
    test agrees with the exact j <= o x: below, (1 - 16u)^2 (1 + 5u) <
    (1 + 8u)(1 - 2u), and above, (1 + 16u)^2 (1 - 5u) > (1 + 8u)(1 + 2u).
    Every order is below K, and 8 eps K = 2**-49 K <= 2**(bits(K) - 49)."""
    return 49 - orders.bit_length()


def _cesaro_orders(k: float) -> int:
    """int(k), the growth orders of the Cesaro sum up to k; NumericFailure
    past _MAX_CESARO_ORDERS, where no tie margin is derived."""
    orders = int(k)
    if orders > _MAX_CESARO_ORDERS:
        raise NumericFailure(f"the Cesaro sum at k = {k} needs {orders} "
                             f"orders, past {_MAX_CESARO_ORDERS}")
    return orders


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
        """Largest eigenvalue up to which the spectrum is certified: every
        one, unless the spectrum is a truncated table."""
        return math.inf

    def error_bars(self, spectrum: ExplicitSpectrum) -> list[float] | None:
        """One error bar per level of `spectrum`, a truncation of this
        one; None where its eigenvalues are exact closed forms."""
        return None

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
        return self.level_count(self.level_lookup(_upper_probe(lam)))

    def count_left_array(self, lam) -> np.ndarray:
        """Eigenvalues strictly below each entry of lam, with multiplicity."""
        lam = np.asarray(lam, dtype=float)
        self._check_certified_array(lam)
        return self.level_count(self.level_lookup(_lower_probe(lam)))

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
        top = self.level_lookup(_upper_probe(np.array([lambda_max])))
        _check_level_count(top[0] + 1, f"the spectrum up to {lambda_max}",
                           self.max_levels())
        levels = np.arange(top[0] + 1)
        eigs = self.level_eigenvalue(levels)
        return ExplicitSpectrum(
            self.ambient_dim, eigs, np.diff(self.level_count(levels), prepend=0),
            max(lambda_max, float(eigs[-1])), measure)

    def _exponents(self, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """(exponents, eigenvalues) of the levels below `stop`, in one pass."""
        lams = self.level_eigenvalue(np.arange(stop))
        return exponent_from_eigenvalue(lams, self.ambient_dim), lams

    # -- Cesaro sums --------------------------------------------------------

    def cesaro_offset(self, k: float) -> float:
        """The sampling offset delta of the Cesaro sum up to k: the largest
        2**-m, m >= 2, with no growth order i - 1 + delta (i = 1..int(k))
        within the tie margin (`_tie_shift`) of a resonant exponent, so
        that on circles the float count at every sampled order is the
        exact one that the floor sum of `cesaro_total` adds up;
        NumericFailure when 2**-_MIN_OFFSET_EXP still ties, or when int(k)
        is past _MAX_CESARO_ORDERS, the ceiling the margin is derived for."""
        orders = _cesaro_orders(k)
        for m in range(2, _MIN_OFFSET_EXP + 1):
            if not orders or not self._cesaro_ties(orders, m):
                return 2.0 ** -m
        raise NumericFailure(
            f"every Cesaro offset down to 2**-{_MIN_OFFSET_EXP} puts a growth "
            f"order below k = {k} on a resonance")

    def _cesaro_ties(self, orders: int, m: int) -> bool:
        """Whether a resonant exponent lies within the tie margin of an order
        i + 2**-m, 0 <= i < orders: the nearest order to each exponent in
        the level table, in one pass."""
        top = self.level_lookup(np.array(
            [eigenvalue_from_exponent(float(orders), self.ambient_dim)]))[0]
        betas, _ = self._exponents(top + 1)
        delta = 2.0 ** -m
        nearest = np.clip(np.rint(betas - delta), 0, orders - 1) + delta
        return bool((np.abs(betas - nearest) <= 2.0 ** -_tie_shift(orders)).any())

    def cesaro_total(self, k: float) -> int:
        """The sum of N_X at the growth orders i - 1 + delta, i = 1..int(k),
        delta = `cesaro_offset(k)`, as an exact integer; the orders go
        through `count_array` in blocks, each summed by `_exact_sum`,
        unless a subclass knows the sum in closed form."""
        delta, n, total = self.cesaro_offset(k), self.ambient_dim, 0
        for start in range(0, int(k), LEVEL_BLOCK):
            orders = np.arange(start, min(start + LEVEL_BLOCK, int(k))) + delta
            total += _exact_sum(self.count_array(
                eigenvalue_from_exponent(orders, n)))
        return total

    def resonant_set_upto(self, beta_max: float
                          ) -> tuple[np.ndarray, np.ndarray]:
        """(exponents, eigenvalues): every beta in [0, beta_max] with
        beta*(beta+n-2) in the spectrum, beside the stored eigenvalue it
        came from, in level order."""
        lam_max = eigenvalue_from_exponent(beta_max, self.ambient_dim)
        self._check_certified(lam_max)
        # lam_max may round below the eigenvalue whose exponent is beta_max,
        # so the level one past the lookup is read too
        stop = self.level_lookup(np.array([lam_max]))[0] + 2
        _check_level_count(stop, f"the resonant set up to {beta_max}",
                           self.max_levels())
        betas, lams = self._exponents(stop)
        keep = betas <= beta_max
        return betas[keep], lams[keep]

    def is_resonant(self, k: float) -> tuple[bool, float, float]:
        """Whether k lies within RESONANCE_TOL of a resonant exponent.

        Returns ``(resonant, nearest_beta, distance)`` so callers can flag
        "exactness not guaranteed" near resonances.  Only the levels on
        either side of k(k+n-2) are read; the one above counts while its
        exponent is at most k + 1 and certified.
        """
        window = self._resonance_window(k)
        lam = eigenvalue_from_exponent(k, self.ambient_dim)
        return self._nearest_resonance(
            k, window, self.level_lookup(np.array([lam]))[0])

    def growth_counts(self, k: float
                      ) -> tuple[int, int, tuple[bool, float, float]]:
        """(counting(lam), counting_left(lam), is_resonant(k)) at
        lam = k(k+n-2), with the checks of the three in their order, from
        one level lookup."""
        lam = eigenvalue_from_exponent(k, self.ambient_dim)
        self._check_certified(lam)
        window = self._resonance_window(k)
        # the probes of count_array, count_left_array and is_resonant
        levels = self.level_lookup(
            np.array([_upper_probe(lam), _lower_probe(lam), lam]))
        upper, left = self.level_count(levels[:2]).tolist()
        return upper, left, self._nearest_resonance(k, window, levels[2])

    def _resonance_window(self, k: float) -> float:
        """The largest exponent `is_resonant` reads at k: k + 1, or less
        where the certified spectrum ends before it."""
        if k < 0:
            raise InvalidArgument(f"k must be nonnegative, got {k}")
        n = self.ambient_dim
        window = k + 1.0
        try:
            self._check_certified(eigenvalue_from_exponent(window, n))
        except ResolutionInsufficient:
            self._check_certified(eigenvalue_from_exponent(k + RESONANCE_TOL, n))
            window = exponent_from_eigenvalue(self.certified_bound(), n)
        return window

    def _nearest_resonance(self, k: float, window: float, i: int
                           ) -> tuple[bool, float, float]:
        """`is_resonant` from the level i of k(k+n-2)."""
        n = self.ambient_dim
        below, above = exponent_from_eigenvalue(
            self.level_eigenvalue(np.array([i, i + 1])), n).tolist()
        closer = above <= window and abs(k - above) < abs(k - below)
        beta = above if closer else below
        dist = abs(k - beta)
        # the constants' exponent 0 is no resonance: h_k = 1 below lambda_1
        return dist <= RESONANCE_TOL and beta > 0, beta, dist


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

    def level_eigenvalue(self, l):
        l = l.astype(float)
        return l * (l + (self.d - 1))

    def level_count(self, l):
        return _exact_array([sphere_count(self.d, i) for i in l.tolist()])

    def level_lookup(self, lam):
        # level l has the exponent l on the cone R^(d+1)
        guess = exponent_from_eigenvalue(np.maximum(lam, 0.0), self.ambient_dim)
        return self._settle(np.floor(guess), lam)

    def _cesaro_ties(self, orders: int, m: int) -> bool:
        return False  # the orders i + 1/4 lie 1/4 from the integer exponents

    def cesaro_total(self, k: float) -> int:
        # order i - 1 + delta in (i - 1, i) counts the levels l < i, and
        # the counts of S^d below level K sum to the count of S^(d+1)
        # through level K - 1: two hockey sticks
        return sphere_count(self.d + 1, _cesaro_orders(k) - 1)

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

    def level_eigenvalue(self, j):
        if self.length >= _FINITE_LEVELS_LENGTH:
            return (2.0 * math.pi * j / self.length) ** 2
        # inf is the eigenvalue of a level past the float range; level 0
        # stays 0, and numpy need not warn of the overflow
        with np.errstate(over="ignore"):
            return (2.0 * math.pi * j / self.length) ** 2

    def level_count(self, j):
        return np.maximum(2 * j + 1, 0)

    def _floor_total(self, orders: int, num: int, den: int) -> int:
        """The sum of floor((i + num/den) x) over i < orders, x = L / fl(2 pi)
        exactly: the levels j >= 1 that the order i + num/den counts."""
        p, q = self.length.as_integer_ratio()
        s, t = (2.0 * math.pi).as_integer_ratio()
        return _floor_sum(orders, den * q * s, den * p * t, num * p * t)

    def _cesaro_ties(self, orders: int, m: int) -> bool:
        # the levels j/x in (o - margin, o + margin], summed over the orders
        # o = i + 2**-m: two floor sums that differ exactly where one ties
        shift = _tie_shift(orders)
        den = 1 << max(m, shift)
        centre, margin = den >> m, den >> shift
        return (self._floor_total(orders, centre + margin, den)
                != self._floor_total(orders, centre - margin, den))

    def cesaro_total(self, k: float) -> int:
        # N_X(o) = 1 + 2 floor(o x) away from ties
        num, den = self.cesaro_offset(k).as_integer_ratio()
        return int(k) + 2 * self._floor_total(int(k), num, den)

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
    """A metric circle with line element a(theta) dtheta, from positive
    samples of the density a taken uniformly on [0, 2*pi).

    It is isometric to the round circle of its total length L, so the
    spectrum is (2*pi*j/L)^2 and the only numeric input is L, taken once
    from the samples by the periodic rectangle rule.  L may exceed 2*pi
    (cone admissibility) by a relative 1e-12, past ``Circle``'s bound.
    """

    density: tuple[float, ...]

    def __init__(self, density):
        density = tuple(map(float, density))
        if len(density) < 4:
            raise InvalidArgument("need at least 4 density samples")
        for i, a in enumerate(density):
            if not math.isfinite(a):
                raise InvalidArgument(f"density sample {i} must be finite, got {a}")
            if a <= 0:
                raise InvalidArgument(
                    f"density sample {i} must be strictly positive, got {a}")
        # fsum rounds the sample sum once, or raises where it passes the
        # float range, and then the length is past 2*pi too
        try:
            total = math.fsum(density)
        except OverflowError:
            total = math.inf
        length = 2.0 * math.pi * total / len(density)
        if length > 2.0 * math.pi * (1.0 + 1e-12):
            raise InvalidArgument(f"total length {length} exceeds 2*pi")
        object.__setattr__(self, "density", density)
        object.__setattr__(self, "length", length)

    @classmethod
    def constant(cls, length: float) -> "MetricCircleNumeric":
        """The circle of the given length as 64 equal density samples."""
        return cls([length / (2.0 * math.pi)] * 64)

    def error_bars(self, spectrum: ExplicitSpectrum) -> list[float]:
        """One bar per level of `spectrum`: the float rounding of lambda."""
        return [_ROUNDING_RTOL * lam for lam, _ in spectrum.entries]


# -- JSON interchange: spectrum, density and harmonic files -----------------

def _finite_number(value) -> bool:
    """Whether a parsed JSON value is a number that a finite float holds."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _json_number(value, what: str, integral: bool = False):
    """A finite JSON number (integral when asked) as an int or float."""
    if not (_finite_number(value) and (not integral or value % 1 == 0)):
        kind = "an integer" if integral else "a finite number"
        raise InvalidArgument(
            f"{what} must be {kind}, got {json.dumps(value)}")
    return int(value) if integral else float(value)


def _json_object(doc, kind: str, keys):
    """Check that a `kind` document is a JSON object holding every key."""
    if not isinstance(doc, dict):
        raise InvalidArgument(f"a {kind} document must be a JSON object")
    for key in keys:
        if key not in doc:
            raise InvalidArgument(f"missing required key '{key}'")


def _numbers(name, values: list, convert) -> np.ndarray:
    """`convert(values)` once every value is a JSON number, else an error
    naming, by `name(i)`, the first entry i that is not a finite number.
    `convert` raises ValueError (or OverflowError, for an integer past the
    float range) to send the values to that scan."""
    if set(map(type, values)) <= {int, float}:
        try:
            return convert(values)
        except (OverflowError, ValueError):
            pass
    i = next(i for i, v in enumerate(values) if not _finite_number(v))
    raise InvalidArgument(
        f"{name(i)} must be a finite number, got {json.dumps(values[i])}")


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
        _json_object(doc, "spectrum",
                     ("ambient_dim", "measure", "entries", "truncation_bound"))
        dim = _json_number(doc["ambient_dim"], "'ambient_dim'", integral=True)
        measure = _json_number(doc["measure"], "'measure'")
        bound = _json_number(doc["truncation_bound"], "'truncation_bound'")
        lams, mults = _columns(doc["entries"])
        return ExplicitSpectrum(
            dim, _numbers("entry {}: 'lambda'".format, lams,
                          lambda v: np.array(v, dtype=float)),
            _numbers("entry {}: 'mult'".format, mults, _exact_array),
            bound, measure)
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
