"""Certified spectrum of a variable-density metric circle, end to end.

A metric circle with density a(theta) is isometric to the round circle of
its total length L, so its Laplace spectrum is the closed form
(2*pi*j/L)^2 and depends on the length alone.  Certification is that
closed form, with error bars covering only float rounding.  The demo
certifies the spectrum of a bumpy circle, checks it against the
finite-difference discretization (the test oracle: solves at two
resolutions, Richardson-extrapolated), and feeds it into a
growth-dimension report.
"""

import math

import numpy as np

from coneh import MetricCircleNumeric, hk_bounds
from coneh.eigensolver import assemble, certified_spectrum, eigenvalues

TWO_PI = 2.0 * math.pi


def main():
    theta = np.linspace(0.0, TWO_PI, 128, endpoint=False)
    density = 0.35 + 0.1 * np.sin(theta) + 0.04 * np.cos(2 * theta)
    circle = MetricCircleNumeric(density)
    L = circle.length
    print(f"total length L = {L:.6f}  (2*pi would be the flat plane)")

    lam1 = (TWO_PI / L) ** 2
    spec, bars = certified_spectrum(circle, 1.5 * lam1)
    count = 2 * len(spec.entries) - 1
    coarse = eigenvalues(assemble(circle, 256), count)
    fine = eigenvalues(assemble(circle, 512), count)
    oracle = fine + (fine - coarse) / 3.0
    print("\ncertified spectrum (eigenvalue, multiplicity, error bar) "
          "and the discretization oracle at m = 256/512:")
    for j, ((lam, mult), bar) in enumerate(zip(spec.entries, bars)):
        print(f"  {lam:12.8f}  x{mult}   bar = {bar:.2e}   "
              f"oracle = {oracle[max(0, 2 * j - 1)]:.8f}")

    print("\ngrowth dimensions of the cone over this circle:")
    k_res = TWO_PI / L  # first resonant order; h_k jumps from 1 to 3 here
    for k in (0.5, 1.0, 0.999 * k_res, 1.001 * k_res, 4.0):
        rep = hk_bounds(circle, 2, k)
        tag = "resonant" if rep.resonant else f"exact = {rep.exact}"
        print(f"  k = {k:6.3f}:  {rep.lower} <= h_k <= {rep.upper}  ({tag})")


if __name__ == "__main__":
    main()
