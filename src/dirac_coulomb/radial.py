"""Sturmian basis functions, the physical radial spinor and its oracles.

The Sturmian functions carry the discrete-series su(1,1) representation
and are orthonormal under the measure r dr (this fixes their prefactors).
The physical components are their dilation images at theta = ln a, and the
spinor (F, G) mixes the two channels through the decoupling matrix, with
coefficients

    F1 = s - kappa, F2 = -2 omega s (alpha_v - alpha_s) / (n (n + 2s)),
    G1 = -(alpha_v + alpha_s), G2 = 2 omega s (s - kappa) / (n (n + 2s)).

The overall constant is fixed by quadrature on int (F^2 + G^2) dr = 1.
The conventional closed-form expression for that constant is computed
alongside for comparison only: its cross and quadratic pieces could not
be confirmed independently, so disagreement is reported, never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoBoundState
from .problem import DerivedConstants
from .quadrature import build_rule, integrate_radial
from .radialfn import LaguerreSum
from .report import NormalizationComparison, VerificationReport
from .special import log_gamma
from .spectrum import BoundLevel

__all__ = [
    "RadialSpinor",
    "sturmian",
    "physical_components",
    "spinor_coefficients",
    "coefficient_ratio_Bn",
    "assemble_spinor",
    "closed_form_normalization_constant",
    "ode_residual_first_order",
    "ode_residual_second_order",
    "default_residual_grid",
]

FIRST_ORDER_TOL = 1e-8
SECOND_ORDER_TOL = 1e-7


def sturmian(channel: str, n: int, s: float) -> LaguerreSum:
    """Sturmian basis function of one channel, orthonormal under r dr.

    v-channel (n >= 1):  2 sqrt((n-1)!/Gamma(n+2s+1)) (2r)^s     e^-r L_{n-1}^{2s+1}(2r)
    u-channel (n >= 0):  2 sqrt(n!/Gamma(n+2s))       (2r)^{s-1} e^-r L_n^{2s-1}(2r)
    """
    if s <= 0.0:
        raise DomainError(f"Sturmian functions require s > 0, got {s}")
    if channel == "v":
        if n < 1:
            raise DomainError(f"v-channel Sturmian requires n >= 1, got {n}")
        norm = 2.0 * math.exp(0.5 * (log_gamma(n) - log_gamma(n + 2.0 * s + 1.0)))
        return LaguerreSum.single(norm * 2.0**s, power=s, decay=1.0,
                                  degree=n - 1, alpha=2.0 * s + 1.0, argscale=2.0)
    if channel == "u":
        if n < 0:
            raise DomainError(f"u-channel Sturmian requires n >= 0, got {n}")
        norm = 2.0 * math.exp(0.5 * (log_gamma(n + 1.0) - log_gamma(n + 2.0 * s)))
        return LaguerreSum.single(norm * 2.0 ** (s - 1.0), power=s - 1.0, decay=1.0,
                                  degree=n, alpha=2.0 * s - 1.0, argscale=2.0)
    raise DomainError(f"channel must be 'u' or 'v', got {channel!r}")


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


def coefficient_ratio_Bn(level: BoundLevel, constants: DerivedConstants) -> float:
    """B_n / A_n = omega s / (a n (n + 2s)).

    Fixed by the r -> 0 limit of the first row of the coupled channel
    system; n = 0 is rejected (the ratio diverges and the v-component of
    the lowest u-only state is undefined).
    """
    if level.n < 1:
        raise DomainError("coefficient ratio requires n >= 1")
    return level.omega * constants.s / (level.a * level.n * (level.n + 2.0 * constants.s))


@dataclass(frozen=True)
class RadialSpinor:
    """Evaluable normalized pair (F, G) for one bound level."""

    level: BoundLevel
    constants: DerivedConstants
    F1: float
    F2: float
    G1: float
    G2: float
    A_n: float
    F: LaguerreSum
    G: LaguerreSum
    normalization: NormalizationComparison

    def __call__(self, r):
        return self.F(r), self.G(r)


def _spinor_parts(level: BoundLevel, constants: DerivedConstants):
    n, a, s = level.n, level.a, constants.s
    f1, f2, g1, g2 = spinor_coefficients(n, constants, level.omega)
    pre = (2.0 * a) ** (s - 1.0)

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


def assemble_spinor(level: BoundLevel, constants: DerivedConstants) -> RadialSpinor:
    """Build the normalized spinor of one level.

    The constant is fixed by Gauss-Laguerre quadrature of
    int (F^2 + G^2) dr = 1; its sign makes F(r -> 0+) positive.  The
    closed-form constant rides along in the normalization report.
    """
    if not level.a > 0.0:
        raise NoBoundState("cannot assemble a spinor at a = 0 (free-limit degenerate case)")
    (f1, f2, g1, g2), f_expr, g_expr = _spinor_parts(level, constants)
    rule = build_rule(max(32, level.n + 16), 2.0 * constants.s)
    norm_sq = integrate_radial(lambda r: f_expr(r) ** 2 + g_expr(r) ** 2, level.a, rule)
    a_n = math.copysign(1.0 / math.sqrt(float(norm_sq)), f1)
    comparison = NormalizationComparison(
        quadrature_constant=abs(a_n),
        closed_form=closed_form_normalization_constant(level, constants),
    )
    return RadialSpinor(
        level=level, constants=constants,
        F1=f1, F2=f2, G1=g1, G2=g2, A_n=a_n,
        F=f_expr * a_n, G=g_expr * a_n,
        normalization=comparison,
    )


def default_residual_grid(a: float, points: int = 400) -> np.ndarray:
    """Logarithmic grid on [1e-2/a, 40/a]; r -> 0 is excluded because the
    1/r terms amplify rounding there without testing anything new."""
    return np.geomspace(1e-2 / a, 40.0 / a, points)


def _guard_scale(values_a: np.ndarray, values_b: np.ndarray, a: float, grid: np.ndarray) -> np.ndarray:
    """max(|F|, |G|, min(a r, 1) * global magnitude): keeps relative
    residuals meaningful across wavefunction nodes."""
    glob = max(np.max(np.abs(values_a)), np.max(np.abs(values_b)))
    return np.maximum.reduce([
        np.abs(values_a),
        np.abs(values_b),
        np.minimum(a * grid, 1.0) * glob,
    ])


def ode_residual_first_order(spinor: RadialSpinor, grid: np.ndarray | None = None,
                             perturb_F: float = 1.0,
                             tolerance: float = FIRST_ORDER_TOL) -> VerificationReport:
    """Guarded relative residual of the coupled first-order system.

        F' + (kappa F - alpha_- G)/r = (m+E) G
        G' + (alpha_+ F - kappa G)/r = (m-E) F

    Derivatives are exact, so exact spinors sit at the rounding floor.
    ``perturb_F`` scales F to exercise the sensitivity of the oracle.
    """
    level, constants = spinor.level, spinor.constants
    if grid is None:
        grid = default_residual_grid(level.a)
    grid = np.asarray(grid, dtype=float)
    k = constants.kappa
    m, e = level.mass, level.energy

    f_expr = spinor.F * perturb_F
    fv = f_expr(grid)
    gv = spinor.G(grid)
    fp = f_expr.derivative()(grid)
    gp = spinor.G.derivative()(grid)

    row1 = fp + (k * fv - constants.alpha_minus * gv) / grid - (m + e) * gv
    row2 = gp + (constants.alpha_plus * fv - k * gv) / grid - (m - e) * fv
    scale = _guard_scale(fv, gv, level.a, grid)
    residuals = np.concatenate([np.abs(row1) / scale, np.abs(row2) / scale])
    return VerificationReport.from_residuals(
        "ode_first_order", residuals, tolerance,
        context={"n": level.n, "points": grid.size, "perturb_F": perturb_F},
    )


def ode_residual_second_order(component: LaguerreSum, level: BoundLevel,
                              constants: DerivedConstants,
                              grid: np.ndarray | None = None, channel: str = "v",
                              energy: float | None = None,
                              tolerance: float = SECOND_ORDER_TOL) -> VerificationReport:
    """Guarded relative residual of the decoupled second-order equation.

        (-d^2/dr^2 - (2/r) d/dr + c/r^2 - 2(alpha_v E + alpha_s m)/r
         + m^2 - E^2) f = 0,

    with centrifugal constant c = s(s+1) for the v channel and s(s-1) for
    the u channel.  Passing an explicit ``energy`` detunes the operator
    (sensitivity checks)."""
    if channel not in ("u", "v"):
        raise DomainError(f"channel must be 'u' or 'v', got {channel!r}")
    if grid is None:
        grid = default_residual_grid(level.a)
    grid = np.asarray(grid, dtype=float)
    s = constants.s
    cent = s * (s + 1.0) if channel == "v" else s * (s - 1.0)
    m = level.mass
    e = level.energy if energy is None else energy
    av = 0.5 * (constants.alpha_plus + constants.alpha_minus)
    as_ = 0.5 * (constants.alpha_plus - constants.alpha_minus)
    coulomb = av * e + as_ * m

    fv = component(grid)
    fp = component.derivative()(grid)
    fpp = component.derivative().derivative()(grid)
    row = -fpp - 2.0 * fp / grid + cent * fv / grid**2 - 2.0 * coulomb * fv / grid + (m * m - e * e) * fv

    op_mag = abs(m * m - e * e) + abs(cent) / grid**2 + 2.0 * abs(coulomb) / grid
    glob = np.max(np.abs(fv))
    scale = op_mag * np.maximum(np.abs(fv), np.minimum(level.a * grid, 1.0) * glob)
    residuals = np.abs(row) / scale
    return VerificationReport.from_residuals(
        "ode_second_order", residuals, tolerance,
        context={"n": level.n, "channel": channel, "points": grid.size},
    )
