"""
sqglab: pseudo-spectral simulation of the subcritical dissipative surface
quasi-geostrophic equation, a whole-space alpha-stable heat-kernel toolbox,
and a verification harness for the pointwise comparability, asymptotic, and
gradient estimates of its mild solutions.
"""

from .grid import (
    GridSpec,
    MultiIndex,
    RealField,
    apply_derivative,
    apply_fractional_laplacian,
    apply_riesz,
    apply_riesz_perp,
    apply_semigroup,
    lp_norm,
)
from .kernel import (
    KernelDerivativeProfile,
    KernelProfile,
    build_derivative_profile,
    build_profile,
    check_two_sided_estimate,
    kernel_derivative_eval,
    kernel_eval,
    levy_density,
    load_profile,
    save_profile,
)
from .solver import (
    DiagnosticRecord,
    PicardResult,
    SimulationResult,
    SolverConfig,
    critical_exponent,
    nonlinear_term,
    picard_iterate,
    run_simulation,
)
from .special import TimeGrid, apply_T_gamma, beta, radial_singular_integral, singular_time_convolution
from .verify import (
    RatioDiagnostic,
    ScanReport,
    SlopeFit,
    decay_slope_fit,
    gradient_bound_diag,
    limit_scan,
    ratio_diagnostics,
)

__version__ = "0.1.0"
