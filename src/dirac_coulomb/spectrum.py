"""Bound-state energies and the per-level constants a, theta, omega.

The spectrum follows from requiring the scaled radial equation to be an
eigenvalue problem of the compact su(1,1) generator: with a = sqrt(m^2-E^2),
a*(n+s) = alpha_v*E + alpha_s*m, whose positive-energy branch is

    E_n / m = [-alpha_v alpha_s + (n+s) sqrt((n+s)^2 + alpha_v^2 - alpha_s^2)]
              / (alpha_v^2 + (n+s)^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NoBoundState, SingularTransform
from .problem import DerivedConstants, ProblemParams

__all__ = ["BoundLevel", "energy", "omega", "scale_and_theta", "bound_level"]


@dataclass(frozen=True)
class BoundLevel:
    """One bound level: radial label n >= 1 and its derived scales.

    a = sqrt(m^2 - E^2) sets the exponential decay, theta = ln a is the
    dilation parameter that maps the Sturmian picture onto the physical
    one, and omega is the constant coupling the two channel amplitudes.
    """

    n: int
    energy: float
    a: float
    theta: float
    omega: float
    mass: float


def energy(n: int, constants: DerivedConstants, params: ProblemParams) -> float:
    """Energy of the n-th level (n = 1, 2, ...), strictly increasing toward m.

    Raises NoBoundState when the square-root argument (n+s)^2 + alpha_v^2
    - alpha_s^2 is negative.  Otherwise |E| <= m exactly (Cauchy-Schwarz):
    a quotient that rounds past m in the free limit alpha -> 0 is clamped
    to +-m, which downstream scale extraction rejects.
    """
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"radial label n must be an integer >= 1, got {n}")
    av, as_, m = params.alpha_v, params.alpha_s, params.mass
    nu = n + constants.s
    disc = nu * nu + av * av - as_ * as_
    if disc < 0.0:
        raise NoBoundState(
            f"(n+s)^2 + alpha_v^2 - alpha_s^2 = {disc:.6g} < 0 for n={n}: no bound level"
        )
    e = m * (-av * as_ + nu * math.sqrt(disc)) / (av * av + nu * nu)
    return math.copysign(m, e) if abs(e) > m else e


def omega(e: float, mass: float, constants: DerivedConstants) -> float:
    """omega = -(E-m) - alpha_+ (alpha_v E + alpha_s m) / (s (s - kappa))."""
    s, k = constants.s, constants.kappa
    if abs(s - k) <= 1e-14 * max(1.0, abs(k)):
        raise SingularTransform(f"omega is singular at s = kappa = {k}")
    av = 0.5 * (constants.alpha_plus + constants.alpha_minus)
    as_ = 0.5 * (constants.alpha_plus - constants.alpha_minus)
    return -(e - mass) - constants.alpha_plus * (av * e + as_ * mass) / (s * (s - k))


def scale_and_theta(e: float, mass: float) -> tuple[float, float]:
    """a = sqrt(m^2 - E^2) and theta = ln a; requires |E| < m, a > 0 and a finite a^3 (m in about 1e-160..1e103)."""
    if abs(e) >= mass:
        raise NoBoundState(f"|E| = {abs(e):.6g} >= m = {mass:.6g}: not a bound scale")
    a = math.sqrt((mass - e) * (mass + e))
    try:
        cube = a**3  # as the closed-form constants take it
    except OverflowError:
        cube = math.inf
    if a == 0.0 or cube == math.inf:
        raise NoBoundState(f"a = {a:.6g} at m = {mass:.6g}: the bound scale or its cube is out of double range")
    return a, math.log(a)


def bound_level(n: int, params: ProblemParams, constants: DerivedConstants) -> BoundLevel:
    """Assemble the full BoundLevel record for level n; ``constants`` are params' derived constants."""
    e = energy(n, constants, params)
    a, theta = scale_and_theta(e, params.mass)
    w = omega(e, params.mass, constants)
    return BoundLevel(n=n, energy=e, a=a, theta=theta, omega=w, mass=params.mass)
