"""Bergman density asymptotics on complex projective space.

Exact combinatorics for the Laplacian-power conversion polynomials,
eigenfunction variation series, CP^1 Bergman densities for radial
metrics, TYZ coefficient extraction, and the centering contraction
solver.
"""

from .conversion import (ConversionTable, admissible_eigenvalue_scan,
                         conversion_polynomials, delta_c_power_at_zero,
                         eigen_delta_c_values, fs_monomial_integral,
                         laplacian_power_at_zero, polynomiality_criterion,
                         variation_series_eigen)
from .centering import (CenteringState, TracelessHermitian, build_L, center,
                        centering_residual, eigenbasis_potential, estimate_contraction,
                        gauge_potential, rho_potential, t_step, zero_potential)
from .density import (CurvatureReport, DensityResult, FirstVariationResult,
                      RadialMetric, RadialProfile, bergman_density,
                      first_variation, scalar_curvature, section_norms)
from .errors import (ComputationError, InsufficientSamplesError, NonConvergenceError,
                     PositivityError, QuadratureError, UnsupportedDimensionError)
from .fitting import FitResult, VanishingReport, fit_expansion, vanishing_report
from .projective import (EigenBasisFunction, chart_lift, eigenfunction_pairing_closed_form,
                         first_eigenbasis, sigma_prime_closed_form)
from .quadrature import cp1_integral, integrate_interval, monomial_kernel_quadrature
from .ratpoly import InverseMSeries

__version__ = "0.1.0"
