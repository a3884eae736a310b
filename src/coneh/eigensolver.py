"""Metric circles: the density loader, the certified spectrum, and a
discretization oracle.

``load_density`` reads density samples from a JSON or CSV file into a
``spectra.MetricCircleNumeric``, which validates them and takes the total
length L once.  A metric circle with line element a(theta) dtheta is
isometric to the round circle of length L, so its Laplace spectrum is
(2*pi*j/L)^2 with multiplicities 1, 2, 2, ...  ``certified_spectrum``
returns that closed form with error bars covering only the float rounding
of L and of each eigenvalue.

The finite-difference discretization (``assemble`` / ``eigenvalues``: a
conservative second-difference operator on a uniform arclength grid of m
points, solved densely) is kept as an independent oracle: its eigenvalues
converge to the closed form at O(h^2), which the tests check.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, NumericFailure
from .spectra import (ExplicitSpectrum, MetricCircleNumeric, _numbers,
                      _read_json, _read_text)


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


def assemble(circle: MetricCircleNumeric, m: int) -> DiscreteOperator:
    """Discretize -d^2/ds^2 on the uniform arclength grid of m points.

    The variable density enters through the arclength map only (a 1D
    circle is isometric to the round circle of the same length), so all
    edges have length h = L/m and conductance 1/h^2.
    """
    if m < 16 or m & (m - 1) != 0:
        raise InvalidArgument(f"m must be a power of two >= 16, got {m}")
    h = circle.length / m
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


def certified_spectrum(circle: MetricCircleNumeric, lambda_max: float
                       ) -> tuple[ExplicitSpectrum, list[float]]:
    """All eigenvalues <= lambda_max as a level table, with one error bar
    per level.

    The closed form of the round circle of length ``circle.length``; each
    bar bounds the float rounding of its eigenvalue (0 for the kernel).
    """
    spec = circle.spectrum_upto(lambda_max)
    return spec, circle.error_bars(spec)


# -- density file interchange ----------------------------------------------

def load_density(path: str) -> MetricCircleNumeric:
    """Read a density from JSON (plain array) or CSV (theta_index, a_value).

    Every error is InvalidArgument naming the file; a sample that is not a
    finite number or not positive, or a CSV row whose index or value is not
    a number, is named too."""
    is_json = path.endswith(".json")
    data = _read_json(path) if is_json else _read_text(path)
    try:
        if is_json:
            if not isinstance(data, list):
                raise InvalidArgument("expected a JSON array of samples")
            return MetricCircleNumeric(_numbers(
                "sample {}".format, data,
                lambda v: np.asarray_chkfinite(v, dtype=float)))
        samples: list[tuple[int, float]] = []
        rows = csv.reader(io.StringIO(data, newline=""))
        for row in rows:
            if not row or row[0].strip().startswith("#"):
                continue
            if len(row) != 2:
                raise InvalidArgument("expected rows of (theta_index, a_value)")
            try:
                index, value = int(row[0]), float(row[1])
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise InvalidArgument(
                    f"row {rows.line_num}: expected an integer index and a "
                    f"finite value, got {','.join(row)!r}")
            samples.append((index, value))
        samples.sort()
        return MetricCircleNumeric(v for _, v in samples)
    except (InvalidArgument, csv.Error) as exc:
        raise InvalidArgument(f"{path}: {exc}") from exc
