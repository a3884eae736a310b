"""Metric circles: the density loader, the certified spectrum, and a
discretization oracle.

``load_density`` reads density samples from a JSON or CSV file into a
``spectra.MetricCircleNumeric``, which validates them and takes the total
length L once.  A metric circle with line element a(theta) dtheta is
isometric to the round circle of length L, so its Laplace spectrum is
(2*pi*j/L)^2 with multiplicities 1, 2, 2, ...  ``certified_spectrum``
returns the spectrum of any cross-section up to a bound with its error
bars; on a metric circle, that closed form with bars covering only the
float rounding of L and of each eigenvalue.

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
from .spectra import (CrossSection, ExplicitSpectrum, MetricCircleNumeric,
                      _numbers, _read_json, _read_text)


@dataclass(frozen=True)
class DiscreteOperator:
    """Symmetric periodic second difference on `size` points `step` apart.

    Row i couples to its two neighbours with -1/step^2 and holds twice
    that on the diagonal, so row sums vanish and constants lie in the
    kernel exactly.
    """

    size: int
    step: float

    def dense(self) -> np.ndarray:
        m, c = self.size, 1.0 / (self.step * self.step)
        A = np.zeros((m, m))
        i = np.arange(m)
        A[i, (i + 1) % m] = -c
        A[(i + 1) % m, i] = -c
        A[i, i] = 2.0 * c
        return A


def assemble(circle: MetricCircleNumeric, m: int) -> DiscreteOperator:
    """Discretize -d^2/ds^2 on the uniform arclength grid of m points.

    The variable density enters through the arclength map only (a 1D
    circle is isometric to the round circle of the same length), so the
    grid step is h = L/m everywhere.
    """
    if m < 16 or m & (m - 1) != 0:
        raise InvalidArgument(f"m must be a power of two >= 16, got {m}")
    return DiscreteOperator(m, circle.length / m)


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


def certified_spectrum(X: CrossSection, lambda_max: float
                       ) -> tuple[ExplicitSpectrum, list[float] | None]:
    """All eigenvalues <= lambda_max of any cross-section as a level
    table, with its error bars: None where the eigenvalues are exact
    closed forms or a table taken as given, and one bar per level on a
    metric circle, bounding the float rounding of its eigenvalue (0 for
    the kernel).
    """
    spec = X.spectrum_upto(lambda_max)
    return spec, X.error_bars(spec)


# -- density file interchange ----------------------------------------------

def load_density(path: str) -> MetricCircleNumeric:
    """Read a density from JSON (plain array) or CSV (theta_index, a_value).

    Every error is InvalidArgument naming the file; a sample that is not a
    finite number or not positive, or a CSV row whose index or value is not
    a number, is named too.  The CSV indices must be 0..N-1, each once: a
    negative, repeated or missing index is named."""
    is_json = path.endswith(".json")
    data = _read_json(path) if is_json else _read_text(path)
    try:
        if is_json:
            if not isinstance(data, list):
                raise InvalidArgument("expected a JSON array of samples")
            return MetricCircleNumeric(_numbers(
                "sample {}".format, data,
                lambda v: np.asarray_chkfinite(v, dtype=float)))
        samples: dict[int, float] = {}
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
            if index < 0 or index in samples:
                raise InvalidArgument(
                    f"row {rows.line_num}: theta index {index} is "
                    + ("negative" if index < 0 else "repeated"))
            samples[index] = value
        for i in range(len(samples)):
            if i not in samples:
                raise InvalidArgument(f"theta index {i} is missing")
        return MetricCircleNumeric(samples[i] for i in range(len(samples)))
    except (InvalidArgument, csv.Error) as exc:
        raise InvalidArgument(f"{path}: {exc}") from exc
