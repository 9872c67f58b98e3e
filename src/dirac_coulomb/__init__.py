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
    derive_constants,
    kappa,
)
from .special import (
    laguerre,
    laguerre_sequence,
    laguerre_generating_closed,
    log_gamma,
)
from .quadrature import QuadratureRule, build_rule, integrate_radial
from .spectrum import BoundLevel, bound_level, energy, omega, scale_and_theta
from .radialfn import LaguerreSum, LaguerreTerm
from .radial import (
    RadialChannel,
    RadialSpinor,
    assemble_spinor,
    default_residual_grid,
    ode_residual_first_order,
    ode_residual_second_order,
    closed_form_normalization_constant,
    physical_components,
    radial_channel,
    spinor_coefficients,
    sturmian,
)
from .algebra import (
    OperatorKind,
    RadialOperator,
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
)
from .verification import (
    DEFAULT_TOLERANCES,
    VERIFY_CHECK_COUNT,
    VERIFY_CHECK_NAMES,
    run_suite,
)
