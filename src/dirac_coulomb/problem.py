"""Physical inputs and the constants derived from them.

Maps (D, j, spin alignment, couplings, mass) to the spin-orbit eigenvalue
kappa, the effective angular parameter s, and the Bargmann indices of the
two radial channels, and builds the 2x2 similarity transform that
decouples the radial Dirac system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, SingularTransform, SupercriticalCoupling

__all__ = [
    "Alignment",
    "ProblemParams",
    "DerivedConstants",
    "kappa",
    "derive_constants",
    "coupling_matrix",
    "decoupling_matrix",
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
    bargmann_u: float
    bargmann_v: float


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
    """Compute kappa, s and the Bargmann indices (s, s+1) for the problem.

    Raises SupercriticalCoupling when kappa^2 <= alpha_v^2 - alpha_s^2,
    where s ceases to be real positive and the bound-state construction
    breaks down.  The boundary s = 0 itself is rejected: it degenerates
    both the centrifugal term and the Bargmann index.
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
    return DerivedConstants(
        kappa=k,
        s=s,
        alpha_plus=a_plus,
        alpha_minus=a_minus,
        bargmann_u=s,
        bargmann_v=s + 1.0,
    )


def coupling_matrix(constants: DerivedConstants) -> np.ndarray:
    """The 1/r coefficient matrix of the coupled first-order radial system.

    With the potentials -alpha_v/r, -alpha_s/r the system reads

        d/dr (F, G)^T + (1/r) C (F, G)^T = [[0, m+E], [m-E, 0]] (F, G)^T,

    and C = [[kappa, -(alpha_v-alpha_s)], [alpha_v+alpha_s, -kappa]].  Its
    eigenvalues are exactly +-s, which is what makes the decoupling to the
    (u, v) channels possible.
    """
    return np.array(
        [
            [constants.kappa, -constants.alpha_minus],
            [constants.alpha_plus, -constants.kappa],
        ]
    )


def decoupling_matrix(constants: DerivedConstants) -> np.ndarray:
    """Similarity transform M with M^-1 C M = diag(-s, s).

    M = [[s-kappa, -(alpha_v-alpha_s)], [-(alpha_v+alpha_s), s-kappa]] with
    det M = 2 s (s - kappa); the transform is singular exactly when
    s = kappa.
    """
    s, k = constants.s, constants.kappa
    if abs(s - k) <= 1e-14 * max(1.0, abs(k)):
        raise SingularTransform(f"decoupling matrix is singular: s = kappa = {k}")
    return np.array(
        [
            [s - k, -constants.alpha_minus],
            [-constants.alpha_plus, s - k],
        ]
    )
