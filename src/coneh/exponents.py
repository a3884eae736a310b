"""Conversion between homogeneity exponents and cross-section eigenvalues.

A mode r^alpha * phi is harmonic on an n-dimensional cone exactly when the
eigenvalue of phi equals alpha * (alpha + n - 2); these two functions invert
that relation on the nonnegative branch, on floats or numpy arrays alike.
"""

import math

import numpy as np

from .errors import InvalidArgument


def exponent_from_eigenvalue(lam: float | np.ndarray, n: int):
    """Return the unique alpha >= 0 with alpha * (alpha + n - 2) = lam.

    Strictly increasing in lam, with alpha(0) = 0.  For n = 2 this is
    simply sqrt(lam).
    """
    if np.less(lam, 0).any():
        raise InvalidArgument(f"eigenvalue must be nonnegative, got {lam}")
    if n < 2:
        raise InvalidArgument(f"ambient dimension must be >= 2, got {n}")
    root = np.sqrt if isinstance(lam, np.ndarray) else math.sqrt
    return ((2.0 - n) + root((n - 2.0) ** 2 + 4.0 * lam)) / 2.0


def eigenvalue_from_exponent(alpha: float | np.ndarray, n: int):
    """Return alpha * (alpha + n - 2), the eigenvalue of a mode of growth alpha."""
    if np.less(alpha, 0).any():
        raise InvalidArgument(f"exponent must be nonnegative, got {alpha}")
    if n < 2:
        raise InvalidArgument(f"ambient dimension must be >= 2, got {n}")
    return alpha * (alpha + n - 2.0)
