"""SU(1,1) displacement-operator coherent states for the radial problem.

In the group (Sturmian) basis the coherent state is the negative-binomial
superposition with weights

    c_n = (1 - |xi|^2)^k sqrt(Gamma(n+2k) / (n! Gamma(2k))) xi^n,

and the Laguerre generating function collapses the series to a closed
form: a single power-times-exponential envelope with complex decay
(1+xi)/(1-xi).  Applying the dilation at a fixed reference scale a_ref and
multiplying by r yields the physical coherent components, and mixing the
two channels with the ratio

    B'/A' = omega (1-xi)^2 / (a (1-|xi|^2)) sqrt(s / (2(2s+1)))

gives the coherent spinor

    (F, G) = A' P(r) ((s-kappa) - alpha_- omega r/(2s+1),
                      -alpha_+   + (s-kappa) omega r/(2s+1)),
    P(r) = (1-|xi|^2)^s (2r)^s a^{s-1} e^{-a r (1+xi)/(1-xi)}
           / (sqrt(Gamma(2s)) (1-xi)^{2s}).

The coherent state is exact in the Sturmian picture; as an energy object
it is tied to the reference scale (a_ref, omega_ref) of the n = 1
level, which the spinor reports.  A' is exact: |F|^2 + |G|^2 is |P|^2 times
r^{2s} e^{-2 Re(beta) r} times a quadratic in r, so its integral is a sum
of three Gamma-function moments (the ``coherent_norm`` check confirms it
by quadrature).  The conventional closed-form constant is reported beside
it.  Its sigma' is right, but its tau' carries a spurious Gamma(2s+1) and
its chi' carries Gamma(2s+3) where (2s+1)(2s+2)/4 belongs, so its ratio to
the exact constant collapses as s grows.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from itertools import count, islice

import numpy as np

from .errors import DomainError, NonNormalizable
from .problem import DerivedConstants, ProblemParams
from .radial import constant_from_log_norm, radial_channel
from .radialfn import LaguerreSum
from .report import NormalizationComparison
from .special import log_gamma
from .spectrum import bound_level

__all__ = [
    "CoherentLabel",
    "CoherentSpinor",
    "perelomov_weights",
    "truncation_order",
    "sturmian_coherent",
    "physical_coherent_components",
    "coherent_ratio_Bn_prime",
    "assemble_coherent_spinor",
    "closed_form_coherent_normalization",
]

_LOG_DOUBLE_MAX = math.log(sys.float_info.max)
L2_TAIL = 1e-14  # the weight mass that truncation_order leaves out


@dataclass(frozen=True)
class CoherentLabel:
    """The displacement parameters of a disc label xi (|xi| < 1):

    xi = -tanh(tau/2) e^{-i phi}, eta = ln(1 - |xi|^2) <= 0.
    """

    tau: float
    phi: float
    eta: float

    @classmethod
    def from_xi(cls, xi: complex) -> "CoherentLabel":
        xi = complex(xi)
        mod = abs(xi)
        if mod >= 1.0:
            raise DomainError(f"coherent label requires |xi| < 1, got |xi| = {mod}")
        tau = 2.0 * math.atanh(mod)
        phi = -cmath.phase(-xi) if mod > 0.0 else 0.0
        eta = math.log1p(-mod * mod)
        return cls(tau=tau, phi=phi, eta=eta)


def perelomov_weights(k: float, xi: complex, n_max: int) -> np.ndarray:
    """Expansion weights c_0 .. c_{n_max} of D(xi)|k,0> in the group basis."""
    xi = complex(xi)
    if abs(xi) >= 1.0:
        raise DomainError(f"perelomov weights require |xi| < 1, got |xi| = {abs(xi)}")
    if k <= 0.0:
        raise DomainError(f"Bargmann index must be positive, got {k}")
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    return np.fromiter(islice(_perelomov_weight_sequence(k, xi), n_max + 1), dtype=complex)


def _perelomov_weight_sequence(k: float, xi: complex):
    """Yield the weights c_0, c_1, ... of perelomov_weights for a complex xi, one per step;
    where the amplitude sqrt(Gamma(n+2k) / (n! Gamma(2k))) is past the doubles, the weight is
    formed in log space."""
    pref = (1.0 - abs(xi) ** 2) ** k
    lg2k = log_gamma(2.0 * k)
    log_pref, log_mod = k * math.log1p(-abs(xi) ** 2), math.log(abs(xi)) if xi else -math.inf
    for n in count():
        log_amp = 0.5 * (log_gamma(n + 2.0 * k) - log_gamma(n + 1.0) - lg2k)
        if log_amp > _LOG_DOUBLE_MAX:
            yield cmath.exp(complex(log_pref + log_amp + n * log_mod, n * cmath.phase(xi)))
        else:
            yield pref * math.exp(log_amp) * xi**n


def truncation_order(k: float, xi: complex) -> int:
    """Smallest N with sum_{n>N} |c_n|^2 < L2_TAIL.

    The squared weights are a negative-binomial sequence, so the tail is
    bounded by the next term times a geometric factor with ratio
    q_n = |xi|^2 (n+2k)/(n+1) < 1 for n large enough.
    """
    rho = abs(complex(xi)) ** 2
    if rho >= 1.0:
        raise DomainError("truncation order requires |xi| < 1")
    if rho == 0.0:
        return 0
    two_k = 2.0 * k
    lg2k, head, log_rho = log_gamma(two_k), two_k * math.log1p(-rho), math.log(rho)
    for n in range(100_001):
        log_c2_next = head + math.lgamma(n + 1 + two_k) - math.lgamma(n + 2.0) - lg2k + (n + 1) * log_rho
        q = rho * (n + 1 + two_k) / (n + 2.0)
        if q < 1.0 and math.exp(log_c2_next) / (1.0 - q) < L2_TAIL:
            return n
    raise DomainError("truncation order did not converge; |xi| too close to 1")


def _sqrt_gamma(x: float) -> float:
    """sqrt(Gamma(x)), from exp(ln Gamma(x)) while that is a double and from
    exp(ln Gamma(x) / 2) past it (from x of about 171.6 on)."""
    log_g = log_gamma(x)
    if log_g < _LOG_DOUBLE_MAX:
        return math.sqrt(math.exp(log_g))
    return math.exp(0.5 * log_g)


def sturmian_coherent(channel: str, s: float, xi: complex) -> LaguerreSum:
    """Closed form of the coherent superposition of one channel's basis:

        2 (1-|xi|^2)^k / sqrt(Gamma(2k)) (2r)^sigma e^{-r(1+xi)/(1-xi)} / (1-xi)^{2k},

    with the Bargmann index k = s + lowest and sigma of radial_channel(channel, s):
    k = s, sigma = s - 1 for u and k = s + 1, sigma = s for v.  At xi = 0 it
    reduces exactly to the lowest basis state of the channel.
    """
    xi = complex(xi)
    if abs(xi) >= 1.0:
        raise DomainError(f"coherent state requires |xi| < 1, got |xi| = {abs(xi)}")
    if s <= 0.0:
        raise DomainError(f"coherent state requires s > 0, got {s}")
    ch = radial_channel(channel, s)
    k = ch.bargmann
    decay = (1.0 + xi) / (1.0 - xi)
    try:
        coef = 2.0 * (1.0 - abs(xi) ** 2) ** k / _sqrt_gamma(2.0 * k)
        coef = coef * 2.0**ch.sigma * (1.0 - xi) ** (-2.0 * k)
    except OverflowError:
        raise NonNormalizable(f"coherent state coefficient is out of double range at s = {s}") from None
    return LaguerreSum.single(coef, power=ch.sigma, decay=decay)


def physical_coherent_components(s: float, xi: complex, a_ref: float) -> tuple[LaguerreSum, LaguerreSum]:
    """Physical coherent pair: dilation at theta = ln a_ref, then times r.

    Overall normalization constants are deferred to the spinor assembly.
    """
    if a_ref <= 0.0:
        raise DomainError(f"reference scale must be positive, got {a_ref}")
    theta = math.log(a_ref)
    u = sturmian_coherent("u", s, xi).scaled(theta).times_power(1)
    v = sturmian_coherent("v", s, xi).scaled(theta).times_power(1)
    return u, v


def coherent_ratio_Bn_prime(s: float, xi: complex, a_ref: float, omega_ref: float) -> complex:
    """B'/A' = omega (1-xi)^2 / (a (1-|xi|^2)) * sqrt(s / (2(2s+1))).

    Matches the r -> 0 limit of the first row of the coupled system
    applied to the physical coherent components (tested, not assumed).
    """
    xi = complex(xi)
    if abs(xi) >= 1.0:
        raise DomainError(f"ratio requires |xi| < 1, got |xi| = {abs(xi)}")
    return omega_ref * (1.0 - xi) ** 2 / (a_ref * (1.0 - abs(xi) ** 2)) * math.sqrt(s / (2.0 * (2.0 * s + 1.0)))


def closed_form_coherent_normalization(s: float, kappa: float, alpha_plus: float,
                                       alpha_minus: float, xi: complex,
                                       a_ref: float, omega_ref: float) -> float | None:
    """Conventional closed form for A', computed for the comparison report.

    sigma' = (s-k)^2 + alpha_+^2,
    tau'   = -2 omega (s-k) alpha_v (1-xi)(1-xi*) Gamma(2s+1) / (a (1-|xi|^2)),
    chi'   = (omega (1-xi)(1-xi*) / ((2s+1) a (1-|xi|^2)))^2 Gamma(2s+3)
             ((alpha_v-alpha_s)^2 + (s-k)^2),
    A'     = sqrt(a^3 (1-|xi|^2) / (s (1-xi)(1-xi*) (sigma'+tau'+chi'))).

    Returns None when the bracket is not positive, or when Gamma(2s+1) or
    Gamma(2s+3) is past the double range (from s of about 85 on).
    """
    xi = complex(xi)
    mod2 = abs(xi) ** 2
    abs1mxi2 = abs(1.0 - xi) ** 2
    alpha_v = 0.5 * (alpha_plus + alpha_minus)
    sigma_p = (s - kappa) ** 2 + alpha_plus**2
    try:
        gamma_1, gamma_3 = math.exp(log_gamma(2.0 * s + 1.0)), math.exp(log_gamma(2.0 * s + 3.0))
    except OverflowError:
        return None
    tau_p = -2.0 * omega_ref * (s - kappa) * alpha_v * abs1mxi2 * gamma_1 / (a_ref * (1.0 - mod2))
    chi_p = ((omega_ref * abs1mxi2 / ((2.0 * s + 1.0) * a_ref * (1.0 - mod2))) ** 2 * gamma_3
             * (alpha_minus**2 + (s - kappa) ** 2))
    bracket = sigma_p + tau_p + chi_p
    if bracket <= 0.0:
        return None
    return math.sqrt(a_ref**3 * (1.0 - mod2) / (s * abs1mxi2 * bracket))


@dataclass(frozen=True)
class CoherentSpinor:
    """Evaluable normalized coherent pair (F, G)(r, xi); normalization.quadrature_constant
    holds |A'|."""

    label: CoherentLabel
    a_ref: float
    omega_ref: float
    F: LaguerreSum
    G: LaguerreSum
    normalization: NormalizationComparison

    def __call__(self, r):
        return LaguerreSum.evaluate_all(r, self.F, self.G)


def assemble_coherent_spinor(params: ProblemParams, constants: DerivedConstants,
                             xi: complex) -> CoherentSpinor:
    """Build the normalized coherent spinor at label xi.

    The reference scale is that of the n = 1 level.  The constant A' is
    exact: the three Gamma moments of int (|F|^2 + |G|^2) dr share the
    factors of the prefactor, which reduce to s |1-xi|^2 / (a_ref^3 (1-|xi|^2)),
    and the rest is taken in log space.  Its sign makes F real positive at
    r_0 = 1/a_ref for real xi, and complex xi inherits the continuous phase
    (the sign factor is xi-independent).
    """
    xi = complex(xi)
    if abs(xi) >= 1.0:
        raise DomainError(f"coherent spinor requires |xi| < 1, got |xi| = {abs(xi)}")
    ref = bound_level(1, params, constants)
    a_ref, omega_ref = ref.a, ref.omega
    s, k = constants.s, constants.kappa

    decay = a_ref * (1.0 + xi) / (1.0 - xi)
    if decay.real <= 0.0:
        # algebraically unreachable for |xi| < 1: Re[(1+xi)/(1-xi)] = (1-|xi|^2)/|1-xi|^2 > 0
        raise NonNormalizable(f"coherent envelope does not decay: Re(a(1+xi)/(1-xi)) = {decay.real}")

    mod2 = abs(xi) ** 2
    try:
        pref = (1.0 - mod2) ** s * 2.0**s * a_ref ** (s - 1.0) / (_sqrt_gamma(2.0 * s) * (1.0 - xi) ** (2.0 * s))
    except OverflowError:
        raise NonNormalizable(f"coherent spinor prefactor is out of double range at s = {s}") from None
    w_over = omega_ref / (2.0 * s + 1.0)
    f_expr = (LaguerreSum.single(pref * (s - k), power=s, decay=decay)
              + LaguerreSum.single(-pref * constants.alpha_minus * w_over, power=s + 1.0, decay=decay))
    g_expr = (LaguerreSum.single(-pref * constants.alpha_plus, power=s, decay=decay)
              + LaguerreSum.single(pref * (s - k) * w_over, power=s + 1.0, decay=decay))

    # |F|^2 + |G|^2 = (|pref| A')^2 r^{2s} e^{-2 Re(decay) r} (C_0 + C_1 r + C_2 r^2), so
    # 1 / A'^2 = |pref|^2 sum_q C_q Gamma(2s+1+q) / (2 Re decay)^{2s+1+q}, where
    # |pref|^2 Gamma(2s+1) / (2 Re decay)^{2s+1} = s |1-xi|^2 / (a_ref^3 (1-|xi|^2))
    c0 = (s - k) ** 2 + constants.alpha_plus**2
    c1 = -2.0 * (s - k) * w_over * (constants.alpha_minus + constants.alpha_plus)
    c2 = w_over**2 * ((s - k) ** 2 + constants.alpha_minus**2)
    two_b = 2.0 * decay.real
    bracket = c0 + (2.0 * s + 1.0) / two_b * (c1 + (2.0 * s + 2.0) / two_b * c2)
    if not bracket > 0.0:
        raise NonNormalizable(f"coherent norm bracket is not positive: {bracket}")
    log_norm_sq = (math.log(s) + 2.0 * math.log(abs(1.0 - xi)) - 3.0 * math.log(a_ref) - math.log1p(-mod2)
                   + math.log(bracket))
    sign = 1.0 if (s - k) - constants.alpha_minus * omega_ref / (a_ref * (2.0 * s + 1.0)) >= 0.0 else -1.0
    a_prime = sign * constant_from_log_norm(log_norm_sq)

    closed = closed_form_coherent_normalization(s, k, constants.alpha_plus, constants.alpha_minus,
                                                xi, a_ref, omega_ref)
    comparison = NormalizationComparison(quadrature_constant=abs(a_prime), closed_form=closed)
    return CoherentSpinor(label=CoherentLabel.from_xi(xi), a_ref=a_ref, omega_ref=omega_ref,
                          F=f_expr * a_prime, G=g_expr * a_prime, normalization=comparison)
