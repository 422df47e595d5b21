"""Bergman density asymptotics on complex projective space.

Exact combinatorics for the Laplacian-power conversion polynomials,
eigenfunction variation series, CP^1 Bergman densities for radial
metrics, TYZ coefficient extraction, and the centering contraction
solver.
"""

from .conversion import (ConversionTable, MultiIndex,
                         admissible_eigenvalue_scan, conversion_polynomials,
                         delta_c_power_at_zero, eigen_delta_c_values,
                         fs_monomial_integral, laplacian_power_at_zero,
                         mixed_laplacian_power_at_zero, polynomiality_criterion,
                         variation_order1_polynomial, variation_series_eigen)
from .centering import (CenteringState, LMap, TracelessHermitian, build_L, center,
                        centering_residual, eigenbasis_potential, estimate_contraction,
                        gauge_potential, rho_potential, t_step, zero_potential)
from .density import (CurvatureReport, DensityResult, FirstVariationResult,
                      RadialMetric, RadialProfile, bergman_density,
                      first_variation, scalar_curvature, section_norms)
from .errors import (ComputationError, DivergenceError,
                     InsufficientSamplesError, NonConvergenceError, PoleError,
                     PositivityError, QuadratureError, SingularMatrixError,
                     StepUnderflowError, UnsupportedDimensionError)
from .fitting import (FitResult, VanishingReport, fit_expansion, load_samples_csv,
                      vanishing_report)
from .projective import (EigenBasisFunction, HermitianRational, PhiK,
                         canonical_p_basis, chart_lift, eigenfunction_pairing_closed_form,
                         eigenfunction_pairing_product, first_eigenbasis,
                         fs_density_exact, fs_laplacian_radial, hermitian_pairing,
                         pairing_step, phi_k_laplacian_residual, sigma_prime_closed_form)
from .quadrature import (cp1_integral, fs_weight, integrate_half_line,
                         integrate_interval, monomial_kernel_quadrature)
from .ratpoly import InverseMSeries, RationalPolynomial

__version__ = "0.1.0"
