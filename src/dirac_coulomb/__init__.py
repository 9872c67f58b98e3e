"""Relativistic Kepler-Coulomb bound states in D+1 dimensions.

Spectra, radial spinor eigenfunctions and SU(1,1) displacement-operator
coherent states for Coulomb-type scalar and vector potentials, with every
closed form verified against quadrature, ODE-residual and operator-algebra
oracles.
"""

__version__ = "1.0.0"

from .errors import (
    ConvergenceFailure,
    DiracCoulombError,
    DomainError,
    NoBoundState,
    NonNormalizable,
    SingularTransform,
    SupercriticalCoupling,
)
from .problem import (
    Alignment,
    DerivedConstants,
    ProblemParams,
    coupling_matrix,
    decoupling_matrix,
    derive_constants,
    kappa,
)
from .special import (
    laguerre,
    laguerre_generating_closed,
    laguerre_zero_value,
    log_gamma,
)
from .quadrature import QuadratureRule, build_rule, integrate_radial
from .spectrum import BoundLevel, bound_level, energy, omega, scale_and_theta
from .radialfn import LaguerreSum, LaguerreTerm
from .radial import (
    RadialSpinor,
    assemble_spinor,
    coefficient_ratio_Bn,
    default_residual_grid,
    ode_residual_first_order,
    ode_residual_second_order,
    closed_form_normalization_constant,
    physical_components,
    spinor_coefficients,
    sturmian,
)
from .algebra import (
    OperatorKind,
    RadialOperator,
    a0_eigenvalue_residual,
    apply_operator,
    casimir_residual,
    channel_realization,
    commutator_residual,
    ladder_matrix_elements,
    scaling_identity_residual,
    su11_commutator_report,
)
from .coherent import (
    CoherentLabel,
    CoherentSpinor,
    assemble_coherent_spinor,
    coherent_ratio_Bn_prime,
    closed_form_coherent_normalization,
    perelomov_weights,
    physical_coherent_components,
    sturmian_coherent,
    truncation_order,
)
from .report import (
    NormalizationComparison,
    SpectrumRecord,
    VerificationReport,
    VerificationSummary,
    summarize,
)
from .verification import (
    DEFAULT_TOLERANCES,
    VERIFY_CHECK_COUNT,
    VERIFY_CHECK_NAMES,
    run_suite,
)
