"""Metric circles: the certified spectrum in closed form, plus a discretization.

A metric circle with line element a(theta) dtheta is isometric to the round
circle of its total length L, so its Laplace spectrum is (2*pi*j/L)^2 with
multiplicities 1, 2, 2, ...  ``certified_spectrum`` returns that closed form
with error bars covering only the float rounding of L and of each
eigenvalue.

The finite-difference discretization (``assemble`` / ``eigenvalues``: a
conservative second-difference operator on a uniform arclength grid of m
points, solved densely) is kept as an independent oracle: its eigenvalues
converge to the closed form at O(h^2), which the tests check.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, NumericFailure
from .spectra import (ExplicitSpectrum, MetricCircleNumeric, _finite_number,
                      _read_json)


@dataclass(frozen=True)
class MetricCircle:
    """Positive density a(theta) sampled uniformly on [0, 2*pi).

    ``total_length`` is the integral of the density; it may not exceed
    2*pi (cone admissibility of the cross-section).
    """

    density: tuple[float, ...]

    def __post_init__(self):
        if len(self.density) < 4:
            raise InvalidArgument("need at least 4 density samples")
        bad = [i for i, a in enumerate(self.density) if not math.isfinite(a)]
        if bad:
            raise InvalidArgument(f"density sample {bad[0]} must be finite, "
                                  f"got {self.density[bad[0]]}")
        if min(self.density) <= 0:
            raise InvalidArgument("density must be strictly positive")
        if self.total_length > 2.0 * math.pi * (1.0 + 1e-12):
            raise InvalidArgument(
                f"total length {self.total_length} exceeds 2*pi")

    @property
    def total_length(self) -> float:
        # periodic rectangle rule == trapezoid rule on a closed curve; fsum
        # rounds the sample sum once
        return 2.0 * math.pi * math.fsum(self.density) / len(self.density)

    @classmethod
    def constant(cls, length: float, samples: int = 64) -> "MetricCircle":
        return cls(tuple([length / (2.0 * math.pi)] * samples))

    def resample(self, m: int) -> np.ndarray:
        """Density at m uniform theta points by periodic linear interpolation."""
        a = np.asarray(self.density)
        m0 = len(a)
        x = np.arange(m) * m0 / m
        i0 = np.floor(x).astype(int) % m0
        frac = x - np.floor(x)
        return a[i0] * (1.0 - frac) + a[(i0 + 1) % m0] * frac


@dataclass(frozen=True)
class DiscreteOperator:
    """Symmetric periodic second-difference operator from edge conductances.

    Row i couples to its two neighbours with -conductance[i-1] and
    -conductance[i]; the diagonal is their sum, so row sums vanish and
    constants lie in the kernel exactly.
    """

    size: int
    conductances: tuple[float, ...]  # edge (i, i+1 mod size)

    def __post_init__(self):
        if len(self.conductances) != self.size:
            raise InvalidArgument("one conductance per edge required")
        if min(self.conductances) <= 0:
            raise InvalidArgument("conductances must be positive")

    def dense(self) -> np.ndarray:
        m = self.size
        c = np.asarray(self.conductances)
        A = np.zeros((m, m))
        i = np.arange(m)
        A[i, (i + 1) % m] = -c
        A[(i + 1) % m, i] = -c
        A[i, i] = c + np.roll(c, 1)
        return A


def assemble(circle: MetricCircle, m: int) -> DiscreteOperator:
    """Discretize -d^2/ds^2 on the uniform arclength grid of m points.

    The variable density enters through the arclength map only (a 1D
    circle is isometric to the round circle of the same length), so all
    edges have length h = L/m and conductance 1/h^2.
    """
    if m < 16 or m & (m - 1) != 0:
        raise InvalidArgument(f"m must be a power of two >= 16, got {m}")
    circle.resample(m)  # validates interpolability; arclength map is uniform
    h = circle.total_length / m
    return DiscreteOperator(m, tuple([1.0 / (h * h)] * m))


def eigenvalues(op: DiscreteOperator, count: int) -> np.ndarray:
    """Smallest `count` eigenvalues of the operator, sorted ascending.

    Dense symmetric reduction (LAPACK: Householder tridiagonalization plus
    implicitly shifted iteration); accurate to ~1e-12 of the spectral
    radius at the sizes used here.
    """
    if count > op.size:
        raise InvalidArgument(
            f"requested {count} eigenvalues of a {op.size}-point operator")
    if count < 1:
        raise InvalidArgument(f"count must be positive, got {count}")
    try:
        w = np.linalg.eigvalsh(op.dense())
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(f"eigenvalue iteration failed: {exc}") from exc
    return w[:count]


def certified_spectrum(circle: MetricCircle, lambda_max: float
                       ) -> tuple[ExplicitSpectrum, list[float]]:
    """All eigenvalues <= lambda_max as a level table, with one error bar
    per level.

    The closed form of the round circle of length ``circle.total_length``;
    each bar bounds the float rounding of its eigenvalue (0 for the kernel).
    """
    X = MetricCircleNumeric(circle)
    spec = X.spectrum_upto(lambda_max)
    return spec, X.error_bars(spec)


# -- density file interchange ----------------------------------------------

def load_density(path: str) -> MetricCircle:
    """Read a density from JSON (plain array) or CSV (theta_index, a_value).

    A sample that is not a finite number, or a CSV row whose index or value
    is not a number, is InvalidArgument naming the file and the entry."""
    if path.endswith(".json"):
        data = _read_json(path)
        if not isinstance(data, list):
            raise InvalidArgument(f"{path}: expected a JSON array of samples")
        bad = [i for i, v in enumerate(data) if not _finite_number(v)]
        if bad:
            raise InvalidArgument(
                f"{path}: sample {bad[0]} must be a finite number, "
                f"got {json.dumps(data[bad[0]])}")
        return MetricCircle(tuple(float(v) for v in data))
    samples: list[tuple[int, float]] = []
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        for row in rows:
            if not row or row[0].strip().startswith("#"):
                continue
            if len(row) != 2:
                raise InvalidArgument(
                    f"{path}: expected rows of (theta_index, a_value)")
            try:
                index, value = int(row[0]), float(row[1])
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise InvalidArgument(
                    f"{path}: row {rows.line_num}: expected an integer index "
                    f"and a finite value, got {','.join(row)!r}")
            samples.append((index, value))
    samples.sort()
    return MetricCircle(tuple(v for _, v in samples))
