"""Physical inputs and the constants derived from them.

Maps (D, j, spin alignment, couplings, mass) to the spin-orbit eigenvalue
kappa and the effective angular parameter s, which fixes both radial
channels (radial.radial_channel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, SupercriticalCoupling

__all__ = [
    "Alignment",
    "ProblemParams",
    "DerivedConstants",
    "kappa",
    "derive_constants",
]


class Alignment(str, Enum):
    """Spin-orbit alignment: aligned means j = l + 1/2, unaligned j = l - 1/2."""

    ALIGNED = "aligned"
    UNALIGNED = "unaligned"


def _validate_half_integer(j: float) -> int:
    if not math.isfinite(j):
        raise DomainError(f"j must be a positive half-integer (1/2, 3/2, ...), got {j}")
    two_j = round(2.0 * j)
    if abs(2.0 * j - two_j) > 1e-12 or two_j < 1 or two_j % 2 == 0:
        raise DomainError(f"j must be a positive half-integer (1/2, 3/2, ...), got {j}")
    return int(two_j)


@dataclass(frozen=True)
class ProblemParams:
    """Inputs of the D+1 dimensional Dirac-Kepler-Coulomb problem.

    Couplings are the dimensionless strengths of the Coulomb-type vector
    and scalar potentials -alpha_v/r and -alpha_s/r; natural units
    hbar = c = 1 throughout.
    """

    dimension: int
    j: float
    alignment: Alignment
    alpha_v: float
    alpha_s: float
    mass: float

    def __post_init__(self):
        if not isinstance(self.dimension, (int, np.integer)) or self.dimension < 2:
            raise DomainError(f"dimension must be an integer >= 2, got {self.dimension}")
        _validate_half_integer(self.j)
        object.__setattr__(self, "alignment", Alignment(self.alignment))
        for name in ("alpha_v", "alpha_s", "mass"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.alpha_v > 0.0:
            raise DomainError(f"alpha_v must be positive, got {self.alpha_v}")
        if self.alpha_s < 0.0:
            raise DomainError(f"alpha_s must be non-negative, got {self.alpha_s}")
        if not self.mass > 0.0:
            raise DomainError(f"mass must be positive, got {self.mass}")


@dataclass(frozen=True)
class DerivedConstants:
    """Channel constants: s^2 = kappa^2 - alpha_plus*alpha_minus, s > 0."""

    kappa: float
    s: float
    alpha_plus: float
    alpha_minus: float


def kappa(dimension: int, j: float, alignment: Alignment) -> float:
    """Spin-orbit eigenvalue kappa = -(j + (D-2)/2) aligned, + unaligned.

    2j + D - 2 is an integer, so the result is an exact multiple of 1/2 in
    floating point and squares without drift.
    """
    if not isinstance(dimension, (int, np.integer)) or dimension < 2:
        raise DomainError(f"dimension must be an integer >= 2, got {dimension}")
    two_j = _validate_half_integer(j)
    magnitude = (two_j + int(dimension) - 2) / 2.0
    return -magnitude if Alignment(alignment) is Alignment.ALIGNED else magnitude


def derive_constants(params: ProblemParams) -> DerivedConstants:
    """Compute kappa, s and alpha_+- for the problem.

    Raises SupercriticalCoupling when kappa^2 <= alpha_v^2 - alpha_s^2,
    where s ceases to be real positive and the bound-state construction
    breaks down.  The boundary s = 0 itself is rejected: it degenerates
    both the centrifugal term and the Bargmann index.  So is an s that
    overflows to inf (couplings or kappa past about 1.3e154), with a
    DomainError: no scale, rule or spectrum row is finite there.
    """
    k = kappa(params.dimension, params.j, params.alignment)
    a_plus = params.alpha_v + params.alpha_s
    a_minus = params.alpha_v - params.alpha_s
    s_sq = k * k - a_plus * a_minus
    if s_sq <= 0.0:
        raise SupercriticalCoupling(
            f"kappa^2 <= alpha_v^2 - alpha_s^2 ({k * k:.6g} <= {a_plus * a_minus:.6g}): "
            "no well-defined bound spectrum"
        )
    s = math.sqrt(s_sq)
    if not math.isfinite(s):
        raise DomainError(f"s = sqrt(kappa^2 - alpha_v^2 + alpha_s^2) overflows (kappa = {k:.6g}, "
                          f"alpha_v = {params.alpha_v:.6g}, alpha_s = {params.alpha_s:.6g})")
    return DerivedConstants(kappa=k, s=s, alpha_plus=a_plus, alpha_minus=a_minus)

