"""Growth dimensions and frequency checks for harmonic functions on cones."""

from .errors import (ConehError, DegenerateInput, InvalidArgument,
                     NumericFailure, PreconditionViolation,
                     ResolutionInsufficient)
from .exponents import eigenvalue_from_exponent, exponent_from_eigenvalue
from .spectra import (Circle, CrossSection, ExplicitSpectrum,
                      MetricCircleNumeric, RoundSphere, load_spectrum,
                      spectrum_from_json)
from .eigensolver import (DiscreteOperator, assemble, certified_spectrum,
                          eigenvalues, load_density)
from .growth import (CollapsedReport, EmpiricalRatio, GrowthReport,
                     StaircaseStep, WeylRatio, asymptotic_ratio, ball_volume,
                     cesaro_limit, collapsed_bounds,
                     empirical_ratio_convergence, euclidean_hk, hk_bounds,
                     hk_staircase, weyl_ratio)
from .harmonics import (ConeHarmonic, Mode, circle_mode,
                        cone_harmonic_from_json,
                        frequency_identity_check, load_harmonic,
                        sharp_growth_order, three_circles_ratio)
from .harmonics import I, D, U, J  # noqa: E741 - standard functional names
from .gridcheck import (ConeGrid, convergence_order, grid_J,
                        laplacian_residual, sample_function, sample_harmonic)

__version__ = "0.1.0"
