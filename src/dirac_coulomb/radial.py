"""Sturmian basis functions, the physical radial spinor and its oracles.

The Sturmian functions carry the discrete-series su(1,1) representation
and are orthonormal under the measure r dr (this fixes their prefactors).
The physical components are their dilation images at theta = ln a, and the
spinor (F, G) mixes the two channels through the decoupling matrix, with
coefficients

    F1 = s - kappa, F2 = -2 omega s (alpha_v - alpha_s) / (n (n + 2s)),
    G1 = -(alpha_v + alpha_s), G2 = 2 omega s (s - kappa) / (n (n + 2s)).

The overall constant A_n is exact: int (F^2 + G^2) dr is a finite sum of
Gamma-function moments, summed in log space (the ``normalization`` check
confirms it by quadrature).  The conventional closed form is reported
beside it: its sigma is right, but its tau and chi lack the factors 1/a
and 1/a^2 of the exact bracket, and its tau carries alpha_- for alpha_v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NoBoundState, NonNormalizable
from .problem import DerivedConstants
from .radialfn import LaguerreSum
from .report import NormalizationComparison
from .special import log_gamma, log_gamma_ratio
from .spectrum import BoundLevel

__all__ = [
    "RadialChannel",
    "RadialSpinor",
    "radial_channel",
    "sturmian",
    "physical_components",
    "spinor_coefficients",
    "assemble_spinor",
    "closed_form_normalization_constant",
    "ode_residual_first_order",
    "ode_residual_second_order",
    "radial_window",
    "default_residual_grid",
]


class RadialChannel(NamedTuple):
    """The su(1,1) constants of one radial channel at s: its Sturmians have
    labels n >= lowest, group index n - lowest and Bargmann index k = s + lowest;
    sigma is their power and the realization constant (centrifugal sigma (sigma + 1))."""

    lowest: int  # 0 for u, 1 for v
    sigma: float  # s - 1 for u, s for v
    alpha: float  # the Laguerre order 2 sigma + 1: 2s - 1 for u, 2s + 1 for v
    bargmann: float  # s for u, s + 1 for v


def radial_channel(channel: str, s: float) -> RadialChannel:
    """The constants of channel ``"u"`` or ``"v"`` at s; DomainError for any other name."""
    if channel == "u":
        return RadialChannel(0, s - 1.0, 2.0 * s - 1.0, s)
    if channel == "v":
        return RadialChannel(1, s, 2.0 * s + 1.0, s + 1.0)
    raise DomainError(f"channel must be 'u' or 'v', got {channel!r}")


def sturmian(channel: str, n: int, s: float) -> LaguerreSum:
    """Sturmian basis function of one channel, orthonormal under r dr:

        2 sqrt(g! / Gamma(g + 2 sigma + 2)) (2r)^sigma e^-r L_g^{2 sigma + 1}(2r),

    with g = n - lowest and sigma of radial_channel(channel, s); n >= 0 for u
    (sigma = s - 1) and n >= 1 for v (sigma = s).
    """
    if s <= 0.0:
        raise DomainError(f"Sturmian functions require s > 0, got {s}")
    ch = radial_channel(channel, s)
    if n < ch.lowest:
        raise DomainError(f"{channel}-channel Sturmian requires n >= {ch.lowest}, got {n}")
    return LaguerreSum.single(next(_sturmian_coefs(ch, n, s)), ch.sigma, 1.0, n - ch.lowest, ch.alpha, 2.0)


def _sturmian_coefs(ch: RadialChannel, n: int, s: float):
    """The coefficients of the Sturmians of labels n, n + 1, ... in the channel ``ch`` at s."""
    try:
        power = 2.0**ch.sigma
    except OverflowError:  # 2^s past s = 1024
        raise NonNormalizable(f"Sturmian prefactor is out of double range at s = {s}") from None
    return (2.0 * math.exp(0.5 * (log_gamma(g + 1 - ch.lowest) - log_gamma(g + 2.0 * s + ch.lowest))) * power
            for g in count(n))


def physical_components(level: BoundLevel, constants: DerivedConstants) -> tuple[LaguerreSum, LaguerreSum]:
    """Scaled Sturmian pair (u_tilde, v_tilde) of one bound level.

    These are the dilation images at theta = ln a of the unit-scale basis
    functions, i.e. proportional to (2ar)^{s-1} e^{-ar} L_n^{2s-1}(2ar)
    and (2ar)^s e^{-ar} L_{n-1}^{2s+1}(2ar); overall constants A_n, B_n
    enter only at spinor assembly.
    """
    u_bar = sturmian("u", level.n, constants.s)
    v_bar = sturmian("v", level.n, constants.s)
    return u_bar.scaled(level.theta), v_bar.scaled(level.theta)


def spinor_coefficients(n: int, constants: DerivedConstants, omega: float) -> tuple[float, float, float, float]:
    """Mixing coefficients (F1, F2, G1, G2) of the assembled spinor."""
    if n < 1:
        raise DomainError(f"spinor coefficients require n >= 1, got {n}")
    s, k = constants.s, constants.kappa
    denom = n * (n + 2.0 * s)
    f1 = s - k
    f2 = -2.0 * omega * s * constants.alpha_minus / denom
    g1 = -constants.alpha_plus
    g2 = 2.0 * omega * s * (s - k) / denom
    return f1, f2, g1, g2


@dataclass(frozen=True)
class RadialSpinor:
    """Evaluable normalized pair (F, G) for one bound level; spinor_coefficients gives
    its mixing coefficients, and normalization.quadrature_constant holds |A_n|."""

    level: BoundLevel
    constants: DerivedConstants
    F: LaguerreSum
    G: LaguerreSum
    normalization: NormalizationComparison

    def __call__(self, r):
        return LaguerreSum.evaluate_all(r, self.F, self.G)


def _spinor_parts(level: BoundLevel, constants: DerivedConstants):
    n, a, s = level.n, level.a, constants.s
    f1, f2, g1, g2 = spinor_coefficients(n, constants, level.omega)
    try:
        pre = (2.0 * a) ** (s - 1.0)
    except OverflowError:
        raise NonNormalizable(f"spinor prefactor is out of double range at s = {s}") from None

    def channel_sum(c_poly, c_linear):
        return LaguerreSum.single(pre * c_poly, power=s, decay=a,
                                  degree=n, alpha=2.0 * s - 1.0, argscale=2.0 * a) + \
            LaguerreSum.single(pre * c_linear, power=s + 1.0, decay=a,
                               degree=n - 1, alpha=2.0 * s + 1.0, argscale=2.0 * a)

    return (f1, f2, g1, g2), channel_sum(f1, f2), channel_sum(g1, g2)


def closed_form_normalization_constant(level: BoundLevel, constants: DerivedConstants) -> float | None:
    """Conventional closed form for A_n: 2 sqrt(a^3 n! / (Gamma(n+2s)(n+s)(sigma+tau+chi))).

    sigma = (s-k)^2 + alpha_+^2, tau = 4 omega s alpha_- (s-k)/(n+s),
    chi = omega^2 s^2 ((s-k)^2 + alpha_-^2)/(n(n+2s)).  Computed for the
    comparison report only; None when the bracket is not positive.
    """
    n, a, w = level.n, level.a, level.omega
    s, k = constants.s, constants.kappa
    sigma = (s - k) ** 2 + constants.alpha_plus**2
    tau = 4.0 * w * s * constants.alpha_minus * (s - k) / (n + s)
    chi = w * w * s * s * ((s - k) ** 2 + constants.alpha_minus**2) / (n * (n + 2.0 * s))
    bracket = sigma + tau + chi
    if bracket <= 0.0:
        return None
    return 2.0 * math.sqrt(
        a**3 * math.exp(log_gamma(n + 1.0) - log_gamma(n + 2.0 * s)) / ((n + s) * bracket)
    )


def _log_norm_sq(n: int, a: float, s: float, coefficients) -> float:
    """ln int (F^2 + G^2) dr of the unnormalized channel sums of _spinor_parts.

    With x = 2ar each channel is (2a)^{s-1} e^{-ar} (c_p r^s L_n^{2s-1} + c_l r^{s+1} L_{n-1}^{2s+1}),
    and its square integrates to (2a)^{2s-2} times

        c_p^2 Gamma(n+2s) (2n+2s) / (n! (2a)^{2s+1})
        - 4 c_p c_l Gamma(n+2s+1) / ((n-1)! (2a)^{2s+2})
        + c_l^2 Gamma(n+2s+1) (2n+2s) / ((n-1)! (2a)^{2s+3}),

    the cross term by L_n^{2s-1} = L_n^{2s} - L_{n-1}^{2s},
    L_{n-1}^{2s+1} = sum_{j<n} L_j^{2s} and the x L_m recurrence.  Relative to
    the first term the others carry -2 n (n+2s) / ((n+s) 2a) and
    n (n+2s) / (2a)^2, so the channels add inside one bracket, and the
    powers of 2a leave (2a)^-3.
    """
    f1, f2, g1, g2 = coefficients
    two_a, nn = 2.0 * a, n * (n + 2.0 * s)
    bracket = (f1 * f1 + g1 * g1) - 2.0 * nn / ((n + s) * two_a) * (f1 * f2 + g1 * g2) \
        + nn / (two_a * two_a) * (f2 * f2 + g2 * g2)
    if not bracket > 0.0:
        raise NonNormalizable(f"spinor norm bracket is not positive: {bracket}")
    return (log_gamma_ratio(n + 1.0, 2.0 * s - 1.0) + math.log(2.0 * (n + s))
            - 3.0 * math.log(two_a) + math.log(bracket))


def constant_from_log_norm(log_norm_sq: float) -> float:
    """1 / sqrt(N) from ln N; NonNormalizable unless it is a positive finite double."""
    if not abs(log_norm_sq) < 1400.0:  # also nan; exp(-700) and exp(700) are still doubles
        raise NonNormalizable(f"normalization constant exp({-0.5 * log_norm_sq}) is out of range")
    return math.exp(-0.5 * log_norm_sq)


def assemble_spinor(level: BoundLevel, constants: DerivedConstants) -> RadialSpinor:
    """Build the normalized spinor of one level.

    A_n is exact (see _log_norm_sq), with the sign that makes F(r -> 0+)
    positive.  The conventional closed-form constant rides along in the
    normalization report.
    """
    if not level.a > 0.0:
        raise NoBoundState("cannot assemble a spinor at a = 0 (free-limit degenerate case)")
    (f1, f2, g1, g2), f_expr, g_expr = _spinor_parts(level, constants)
    log_norm_sq = _log_norm_sq(level.n, level.a, constants.s, (f1, f2, g1, g2))
    a_n = math.copysign(constant_from_log_norm(log_norm_sq), f1)
    comparison = NormalizationComparison(
        quadrature_constant=abs(a_n),
        closed_form=closed_form_normalization_constant(level, constants),
    )
    return RadialSpinor(level=level, constants=constants, F=f_expr * a_n, G=g_expr * a_n,
                        normalization=comparison)


def radial_window(a: float) -> tuple[float, float]:
    """(1e-2/a, 40/a): the span of the residual grids and of the CLI's default grid
    for a state of scale a; r -> 0 is left out because the 1/r terms amplify
    rounding there without testing anything new."""
    return 1e-2 / a, 40.0 / a


@lru_cache(maxsize=1)  # both oracles of a level use it, and geomspace costs 10-20% of an oracle
def default_residual_grid(a: float) -> np.ndarray:
    """Logarithmic grid of 400 points on radial_window(a), where the ODE oracles evaluate;
    read-only, since calls at the same a return the same array."""
    grid = np.geomspace(*radial_window(a), 400)
    grid.flags.writeable = False
    return grid


def _guard_scale(values_a: np.ndarray, values_b: np.ndarray, a: float, grid: np.ndarray) -> np.ndarray:
    """max(|F|, |G|, min(a r, 1) * global magnitude): keeps relative
    residuals meaningful across wavefunction nodes."""
    glob = max(np.max(np.abs(values_a)), np.max(np.abs(values_b)))
    return np.maximum.reduce([
        np.abs(values_a),
        np.abs(values_b),
        np.minimum(a * grid, 1.0) * glob,
    ])


def ode_residual_first_order(spinor: RadialSpinor, perturb_F: float = 1.0) -> tuple[np.ndarray, dict]:
    """(residuals, context): the guarded relative residuals of the coupled first-order
    system on default_residual_grid(a), both rows' in turn,

        F' + (kappa F - alpha_- G)/r = (m+E) G
        G' + (alpha_+ F - kappa G)/r = (m-E) F

    Derivatives are exact, so exact spinors sit at the rounding floor.
    ``perturb_F`` scales F to exercise the sensitivity of the oracle.
    """
    level, constants = spinor.level, spinor.constants
    grid = default_residual_grid(level.a)
    k = constants.kappa
    m, e = level.mass, level.energy

    f_expr = spinor.F * perturb_F
    fv, gv, fp, gp = LaguerreSum.evaluate_all(grid, f_expr, spinor.G, f_expr.derivative(),
                                              spinor.G.derivative())

    row1 = fp + (k * fv - constants.alpha_minus * gv) / grid - (m + e) * gv
    row2 = gp + (constants.alpha_plus * fv - k * gv) / grid - (m - e) * fv
    scale = _guard_scale(fv, gv, level.a, grid)
    residuals = np.concatenate([np.abs(row1) / scale, np.abs(row2) / scale])
    return residuals, {"n": level.n, "points": grid.size, "perturb_F": perturb_F}


def ode_residual_second_order(component: LaguerreSum, level: BoundLevel,
                              constants: DerivedConstants) -> tuple[np.ndarray, dict]:
    """(residuals, context) of _second_order_residual for the v component of a level on
    default_residual_grid(a), from its jet (f, f', f'') along its derivative() chain."""
    grid, df = default_residual_grid(level.a), component.derivative()
    jet = LaguerreSum.evaluate_all(grid, component, df, df.derivative())
    return _second_order_residual(jet, grid, level, constants, "v"), {"n": level.n, "channel": "v", "points": grid.size}


def _second_order_residual(jet, grid, level: BoundLevel, constants: DerivedConstants, channel: str) -> np.ndarray:
    """The guarded relative residuals on ``grid``, from the jet (f, f', f'') of a
    component there, of the decoupled second-order equation

        (-d^2/dr^2 - (2/r) d/dr + c/r^2 - 2(alpha_v E + alpha_s m)/r
         + m^2 - E^2) f = 0,

    with centrifugal constant c = s(s+1) for the v channel and s(s-1) for
    the u channel; E is ``level.energy``."""
    ch = radial_channel(channel, constants.s)
    cent = ch.bargmann * ch.sigma  # sigma (sigma + 1) = k (k - 1)
    m = level.mass
    e = level.energy
    av = 0.5 * (constants.alpha_plus + constants.alpha_minus)
    as_ = 0.5 * (constants.alpha_plus - constants.alpha_minus)
    coulomb = av * e + as_ * m

    fv, fp, fpp = jet
    row = -fpp - 2.0 * fp / grid + cent * fv / grid**2 - 2.0 * coulomb * fv / grid + (m * m - e * e) * fv

    op_mag = abs(m * m - e * e) + abs(cent) / grid**2 + 2.0 * abs(coulomb) / grid
    glob = np.max(np.abs(fv))
    scale = op_mag * np.maximum(np.abs(fv), np.minimum(level.a * grid, 1.0) * glob)
    return np.abs(row) / scale
