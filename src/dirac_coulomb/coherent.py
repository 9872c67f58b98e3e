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
level, which the spinor reports.  A' is fixed by quadrature;
the conventional closed-form constant is computed for the comparison
report only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonNormalizable
from .problem import DerivedConstants, ProblemParams
from .quadrature import build_rule, integrate_radial
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


@dataclass(frozen=True)
class CoherentLabel:
    """Disc label xi (|xi| < 1) with its displacement parameters.

    xi = -tanh(tau/2) e^{-i phi}, eta = ln(1 - |xi|^2) <= 0.
    """

    xi: complex
    bargmann: float
    tau: float
    phi: float
    eta: float

    @classmethod
    def from_xi(cls, xi: complex, bargmann: float) -> "CoherentLabel":
        xi = complex(xi)
        mod = abs(xi)
        if mod >= 1.0:
            raise DomainError(f"coherent label requires |xi| < 1, got |xi| = {mod}")
        if bargmann <= 0.0:
            raise DomainError(f"Bargmann index must be positive, got {bargmann}")
        tau = 2.0 * math.atanh(mod)
        phi = -cmath.phase(-xi) if mod > 0.0 else 0.0
        eta = math.log1p(-mod * mod)
        return cls(xi=xi, bargmann=bargmann, tau=tau, phi=phi, eta=eta)

    def to_xi(self) -> complex:
        return -math.tanh(0.5 * self.tau) * cmath.exp(-1.0j * self.phi)


def perelomov_weights(k: float, xi: complex, n_max: int) -> np.ndarray:
    """Expansion weights c_0 .. c_{n_max} of D(xi)|k,0> in the group basis."""
    xi = complex(xi)
    if abs(xi) >= 1.0:
        raise DomainError(f"perelomov weights require |xi| < 1, got |xi| = {abs(xi)}")
    if k <= 0.0:
        raise DomainError(f"Bargmann index must be positive, got {k}")
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    pref = (1.0 - abs(xi) ** 2) ** k
    lg2k = log_gamma(2.0 * k)
    out = np.empty(n_max + 1, dtype=complex)
    for n in range(n_max + 1):
        amp = math.exp(0.5 * (log_gamma(n + 2.0 * k) - log_gamma(n + 1.0) - lg2k))
        out[n] = pref * amp * xi**n
    return out


def truncation_order(k: float, xi: complex, l2_tail: float = 1e-14) -> int:
    """Smallest N with sum_{n>N} |c_n|^2 < l2_tail.

    The squared weights are a negative-binomial sequence, so the tail is
    bounded by the next term times a geometric factor with ratio
    q_n = |xi|^2 (n+2k)/(n+1) < 1 for n large enough.
    """
    rho = abs(complex(xi)) ** 2
    if rho >= 1.0:
        raise DomainError("truncation order requires |xi| < 1")
    if rho == 0.0:
        return 0
    lg2k = log_gamma(2.0 * k)
    n = 0
    while True:
        log_c2_next = (
            2.0 * k * math.log1p(-rho)
            + log_gamma(n + 1 + 2.0 * k)
            - log_gamma(n + 2.0)
            - lg2k
            + (n + 1) * math.log(rho)
        )
        q = rho * (n + 1 + 2.0 * k) / (n + 2.0)
        if q < 1.0 and math.exp(log_c2_next) / (1.0 - q) < l2_tail:
            return n
        n += 1
        if n > 100000:
            raise DomainError("truncation order did not converge; |xi| too close to 1")


def sturmian_coherent(channel: str, s: float, xi: complex) -> LaguerreSum:
    """Closed form of the coherent superposition of one channel's basis.

    v-channel: 2 (1-|xi|^2)^{s+1} / sqrt(Gamma(2s+2)) (2r)^s   e^{-r(1+xi)/(1-xi)} / (1-xi)^{2s+2}
    u-channel: 2 (1-|xi|^2)^s     / sqrt(Gamma(2s))   (2r)^{s-1} e^{-r(1+xi)/(1-xi)} / (1-xi)^{2s}

    At xi = 0 these reduce exactly to the lowest basis state of the
    channel.
    """
    xi = complex(xi)
    if abs(xi) >= 1.0:
        raise DomainError(f"coherent state requires |xi| < 1, got |xi| = {abs(xi)}")
    if s <= 0.0:
        raise DomainError(f"coherent state requires s > 0, got {s}")
    one_m = 1.0 - abs(xi) ** 2
    decay = (1.0 + xi) / (1.0 - xi)
    if channel == "v":
        coef = 2.0 * one_m ** (s + 1.0) / math.sqrt(math.exp(log_gamma(2.0 * s + 2.0)))
        coef = coef * 2.0**s * (1.0 - xi) ** (-(2.0 * s + 2.0))
        return LaguerreSum.single(coef, power=s, decay=decay)
    if channel == "u":
        coef = 2.0 * one_m**s / math.sqrt(math.exp(log_gamma(2.0 * s)))
        coef = coef * 2.0 ** (s - 1.0) * (1.0 - xi) ** (-2.0 * s)
        return LaguerreSum.single(coef, power=s - 1.0, decay=decay)
    raise DomainError(f"channel must be 'u' or 'v', got {channel!r}")


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
    return (
        omega_ref
        * (1.0 - xi) ** 2
        / (a_ref * (1.0 - abs(xi) ** 2))
        * math.sqrt(s / (2.0 * (2.0 * s + 1.0)))
    )


def closed_form_coherent_normalization(s: float, kappa: float, alpha_plus: float,
                                       alpha_minus: float, xi: complex,
                                       a_ref: float, omega_ref: float) -> float | None:
    """Conventional closed form for A', computed for the comparison report.

    sigma' = (s-k)^2 + alpha_+^2,
    tau'   = -2 omega (s-k) alpha_v (1-xi)(1-xi*) Gamma(2s+1) / (a (1-|xi|^2)),
    chi'   = (omega (1-xi)(1-xi*) / ((2s+1) a (1-|xi|^2)))^2 Gamma(2s+3)
             ((alpha_v-alpha_s)^2 + (s-k)^2),
    A'     = sqrt(a^3 (1-|xi|^2) / (s (1-xi)(1-xi*) (sigma'+tau'+chi'))).

    Returns None when the bracket is not positive.
    """
    xi = complex(xi)
    mod2 = abs(xi) ** 2
    abs1mxi2 = abs(1.0 - xi) ** 2
    alpha_v = 0.5 * (alpha_plus + alpha_minus)
    sigma_p = (s - kappa) ** 2 + alpha_plus**2
    tau_p = (
        -2.0 * omega_ref * (s - kappa) * alpha_v * abs1mxi2
        * math.exp(log_gamma(2.0 * s + 1.0)) / (a_ref * (1.0 - mod2))
    )
    chi_p = (
        (omega_ref * abs1mxi2 / ((2.0 * s + 1.0) * a_ref * (1.0 - mod2))) ** 2
        * math.exp(log_gamma(2.0 * s + 3.0))
        * (alpha_minus**2 + (s - kappa) ** 2)
    )
    bracket = sigma_p + tau_p + chi_p
    if bracket <= 0.0:
        return None
    return math.sqrt(a_ref**3 * (1.0 - mod2) / (s * abs1mxi2 * bracket))


@dataclass(frozen=True)
class CoherentSpinor:
    """Evaluable normalized coherent pair (F, G)(r, xi)."""

    label: CoherentLabel
    a_ref: float
    omega_ref: float
    A_n_prime: float
    F: LaguerreSum
    G: LaguerreSum
    normalization: NormalizationComparison

    def __call__(self, r):
        return self.F(r), self.G(r)


def assemble_coherent_spinor(params: ProblemParams, constants: DerivedConstants,
                             xi: complex) -> CoherentSpinor:
    """Build the normalized coherent spinor at label xi.

    The reference scale is that of the n = 1 level.  The constant A' is
    fixed by quadrature of int (|F|^2 + |G|^2) dr = 1; its sign makes F
    real positive at r_0 = 1/a_ref for real xi, and complex xi inherits
    the continuous phase (the sign factor is xi-independent).
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
    pref = (
        (1.0 - mod2) ** s * 2.0**s * a_ref ** (s - 1.0)
        / (math.sqrt(math.exp(log_gamma(2.0 * s))) * (1.0 - xi) ** (2.0 * s))
    )
    w_over = omega_ref / (2.0 * s + 1.0)
    f_expr = (
        LaguerreSum.single(pref * (s - k), power=s, decay=decay)
        + LaguerreSum.single(-pref * constants.alpha_minus * w_over, power=s + 1.0, decay=decay)
    )
    g_expr = (
        LaguerreSum.single(-pref * constants.alpha_plus, power=s, decay=decay)
        + LaguerreSum.single(pref * (s - k) * w_over, power=s + 1.0, decay=decay)
    )

    norm_sq = integrate_radial(
        lambda r: np.abs(f_expr(r)) ** 2 + np.abs(g_expr(r)) ** 2,
        decay.real, build_rule(32, 2.0 * s),
    )
    sign = 1.0 if (s - k) - constants.alpha_minus * omega_ref / (a_ref * (2.0 * s + 1.0)) >= 0.0 else -1.0
    a_prime = sign / math.sqrt(float(np.real(norm_sq)))

    comparison = NormalizationComparison(
        quadrature_constant=abs(a_prime),
        closed_form=closed_form_coherent_normalization(
            s, k, constants.alpha_plus, constants.alpha_minus, xi, a_ref, omega_ref
        ),
    )
    label = CoherentLabel.from_xi(xi, bargmann=s)
    return CoherentSpinor(
        label=label, a_ref=a_ref, omega_ref=omega_ref, A_n_prime=a_prime,
        F=f_expr * a_prime, G=g_expr * a_prime, normalization=comparison,
    )
