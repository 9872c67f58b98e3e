"""Numerical verification of the su(1,1) realization on radial functions.

The generators, parameterized by the realization constant sigma (so the
centrifugal term is sigma(sigma+1)/r and the Bargmann index is
k = sigma + 1), are

    A0 = (r P_r^2 + sigma(sigma+1)/r + r) / 2,
    A1 = (r P_r^2 + sigma(sigma+1)/r - r) / 2,
    A2 = -i r (d/dr + 1/r),          P_r^2 = -d^2/dr^2 - (2/r) d/dr,

with the ladder identification K+- = A1 +- i A2 and K0 = A0, which
reproduces [K0, K+-] = +-K+- and [K-, K+] = 2 K0.  The identification is
itself one of the tested invariants, not an assumption.  Applied to
LaguerreSum functions every operator image is exact, so the residuals
reported here are pure floating-point noise unless an identity is wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .quadrature import build_rule, integrate_radial
from .radialfn import LaguerreSum
from .report import VerificationReport
from .radial import sturmian

__all__ = [
    "OperatorKind",
    "RadialOperator",
    "apply_operator",
    "commutator_residual",
    "SU11_RELATIONS",
    "su11_relation",
    "su11_commutator_report",
    "ladder_matrix_elements",
    "casimir_residual",
    "a0_eigenvalue_residual",
    "scaling_identity_residual",
    "channel_realization",
]

ALGEBRA_TOL = 1e-8


class OperatorKind(Enum):
    A0 = "A0"
    A1 = "A1"
    A2 = "A2"
    PR2 = "Pr2"
    KPLUS = "K+"
    KMINUS = "K-"
    K0 = "K0"


def channel_realization(channel: str, s: float) -> float:
    """Realization parameter sigma of a channel: v -> s, u -> s - 1.

    The centrifugal constants sigma(sigma+1) are then s(s+1) and s(s-1),
    and the Bargmann indices sigma+1 are s+1 and s."""
    if channel == "v":
        return s
    if channel == "u":
        return s - 1.0
    raise DomainError(f"channel must be 'u' or 'v', got {channel!r}")


@dataclass(frozen=True)
class RadialOperator:
    """One su(1,1) generator in the radial realization.

    ``centrifugal`` defaults to s(s+1); overriding it deliberately breaks
    the realization, which the sensitivity tests use."""

    kind: OperatorKind
    s: float
    centrifugal: float | None = None

    def _cent(self) -> float:
        return self.s * (self.s + 1.0) if self.centrifugal is None else self.centrifugal

    def apply(self, f: LaguerreSum) -> LaguerreSum:
        """Exact operator image of a LaguerreSum."""
        kind = self.kind
        if kind is OperatorKind.PR2:
            return self._pr2(f)
        if kind is OperatorKind.A2:
            # -i r (d/dr + 1/r) f = -i (r f' + f)
            return (f.derivative().times_power(1) + f) * (-1.0j)
        if kind in (OperatorKind.A0, OperatorKind.A1, OperatorKind.K0):
            sign = -1.0 if kind is OperatorKind.A1 else 1.0
            return (
                self._pr2(f).times_power(1)
                + f.times_power(-1) * self._cent()
                + f.times_power(1) * sign
            ) * 0.5
        if kind in (OperatorKind.KPLUS, OperatorKind.KMINUS):
            a1 = RadialOperator(OperatorKind.A1, self.s, self.centrifugal).apply(f)
            i_a2 = f.derivative().times_power(1) + f  # i A2 f = r f' + f
            return a1 + i_a2 if kind is OperatorKind.KPLUS else a1 - i_a2
        raise DomainError(f"unknown operator kind {kind}")

    @staticmethod
    def _pr2(f: LaguerreSum) -> LaguerreSum:
        return f.derivative().derivative() * (-1.0) - f.derivative().times_power(-1) * 2.0


def apply_operator(op: RadialOperator, f: LaguerreSum, r):
    """Apply an operator to a LaguerreSum exactly and evaluate at r > 0."""
    if not isinstance(f, LaguerreSum):
        raise DomainError(f"operators act on LaguerreSum closed forms, got {type(f).__name__}")
    if np.any(np.asarray(r, dtype=float) <= 0.0):
        raise DomainError("radial operators are defined for r > 0 only")
    return op.apply(f)(r)


def _relative_residual(lhs: np.ndarray, parts: list[np.ndarray]) -> np.ndarray:
    """|lhs| over a pointwise scale built from the constituent magnitudes,
    floored at 1e-3 of their global maximum so nodes cannot inflate it."""
    mags = [np.abs(p) for p in parts]
    pointwise = np.maximum.reduce(mags)
    glob = max(float(np.max(m)) for m in mags)
    return np.abs(lhs) / np.maximum(pointwise, 1e-3 * glob)


def commutator_residual(x: RadialOperator, y: RadialOperator,
                        expected: list[tuple[complex, RadialOperator]],
                        test_functions, grid,
                        tolerance: float = ALGEBRA_TOL,
                        name: str = "commutator") -> VerificationReport:
    """Residual of [X, Y] f - sum_j c_j Z_j f over a family of closed-form
    test functions; everything is applied exactly."""
    grid = np.asarray(grid, dtype=float)
    fs = list(test_functions)
    residuals = []
    for f in fs:
        xy = x.apply(y.apply(f))(grid)
        yx = y.apply(x.apply(f))(grid)
        zval = np.zeros(grid.shape, dtype=complex)
        for coef, z in expected:
            zval = zval + coef * np.asarray(z.apply(f)(grid), dtype=complex)
        lhs = xy - yx - zval
        # f itself joins the scale so that identically annihilated states
        # (K- on the lowest one) do not reduce the residual to 0/0 noise
        residuals.append(_relative_residual(lhs, [xy, yx, zval, f(grid)]))
    return VerificationReport.from_residuals(
        name, np.concatenate(residuals), tolerance,
        context={"functions": len(fs), "points": grid.size},
    )


# The defining relations [X, Y] = sum_j c_j Z_j, keyed by check name.
SU11_RELATIONS = {
    "commutator_k0_kplus": (OperatorKind.K0, OperatorKind.KPLUS, ((1.0, OperatorKind.KPLUS),)),
    "commutator_k0_kminus": (OperatorKind.K0, OperatorKind.KMINUS, ((-1.0, OperatorKind.KMINUS),)),
    "commutator_kminus_kplus": (OperatorKind.KMINUS, OperatorKind.KPLUS, ((2.0, OperatorKind.K0),)),
}


def su11_relation(name: str, sigma: float, fault_centrifugal: float | None):
    """Operators (X, Y, [(c_j, Z_j)]) of one relation in SU11_RELATIONS at
    realization parameter sigma, ready for commutator_residual.

    A ``fault_centrifugal`` other than None replaces sigma(sigma+1) in
    the commuted pair only (the expected side keeps the true
    realization); the three operators close su(1,1) for any constant when
    perturbed together, so this is the injection that actually exposes a
    wrong realization.
    """
    x, y, expected = SU11_RELATIONS[name]
    return (
        RadialOperator(x, sigma, fault_centrifugal),
        RadialOperator(y, sigma, fault_centrifugal),
        [(coef, RadialOperator(z, sigma)) for coef, z in expected],
    )


def su11_commutator_report(sigma: float, test_functions, grid,
                           tolerance: float = ALGEBRA_TOL,
                           fault_centrifugal: float | None = None) -> list[VerificationReport]:
    """Reports of the three relations of SU11_RELATIONS at realization
    parameter sigma: [K0,K+] = K+, [K0,K-] = -K-, [K-,K+] = 2 K0."""
    fs = list(test_functions)
    return [
        commutator_residual(*su11_relation(name, sigma, fault_centrifugal), fs, grid, tolerance, name)
        for name in SU11_RELATIONS
    ]


def ladder_matrix_elements(channel: str, n: int, s: float) -> tuple[float, float]:
    """Quadrature projections <f_{n+1}, K+ f_n> and <f_{n-1}, K- f_n>
    under the measure r dr.

    With group index n_g (n for u, n-1 for v) and Bargmann index k these
    must equal sqrt((n_g+1)(2k+n_g)) and sqrt(n_g(2k+n_g-1)); for the
    lowest state the down coefficient is the norm of K- f, which vanishes.
    """
    sigma = channel_realization(channel, s)
    f_n = sturmian(channel, n, s)
    kp = RadialOperator(OperatorKind.KPLUS, sigma).apply(f_n)
    km = RadialOperator(OperatorKind.KMINUS, sigma).apply(f_n)
    ng = n if channel == "u" else n - 1
    rule = build_rule(max(32, n + 10), 2.0 * s + 1.0 if channel == "v" else 2.0 * s - 1.0)

    f_up = sturmian(channel, n + 1, s)
    up = integrate_radial(lambda r: f_up(r) * kp(r) * r, 1.0, rule)
    if ng >= 1:
        f_dn = sturmian(channel, n - 1, s)
        down = integrate_radial(lambda r: f_dn(r) * km(r) * r, 1.0, rule)
    else:
        norm_sq = integrate_radial(lambda r: abs(km(r)) ** 2 * r, 1.0, rule)
        down = math.sqrt(max(float(np.real(norm_sq)), 0.0))
    return float(np.real(up)), float(np.real(down))


def casimir_residual(channel: str, n: int, s: float, grid,
                     tolerance: float = ALGEBRA_TOL) -> VerificationReport:
    """Pointwise residual of (-K+K- + K0(K0-1)) f = k(k-1) f on a Sturmian
    function, with k the channel Bargmann index."""
    sigma = channel_realization(channel, s)
    k_barg = sigma + 1.0
    f = sturmian(channel, n, s)
    kp = RadialOperator(OperatorKind.KPLUS, sigma)
    km = RadialOperator(OperatorKind.KMINUS, sigma)
    k0 = RadialOperator(OperatorKind.K0, sigma)
    grid = np.asarray(grid, dtype=float)
    k0f = k0.apply(f)
    lhs = (kp.apply(km.apply(f)) * (-1.0) + k0.apply(k0f) - k0f)(grid)
    rhs = k_barg * (k_barg - 1.0) * f(grid)
    res = _relative_residual(lhs - rhs, [lhs, rhs, f(grid)])
    return VerificationReport.from_residuals(
        "casimir", res, tolerance, context={"channel": channel, "n": n, "s": s},
    )


def a0_eigenvalue_residual(channel: str, n: int, s: float, grid,
                           tolerance: float = 1e-9) -> VerificationReport:
    """A0 f_n = (n + s) f_n pointwise on either channel; this eigenvalue is
    the algebraic origin of the spectrum."""
    sigma = channel_realization(channel, s)
    f = sturmian(channel, n, s)
    grid = np.asarray(grid, dtype=float)
    lhs = RadialOperator(OperatorKind.A0, sigma).apply(f)(grid)
    rhs = (n + s) * f(grid)
    res = _relative_residual(lhs - rhs, [lhs, rhs])
    return VerificationReport.from_residuals(
        "a0_eigenvalue", res, tolerance, context={"channel": channel, "n": n, "s": s},
    )


def scaling_identity_residual(theta: float, test_functions, grid, sigma: float,
                              tolerance: float = 1e-9) -> VerificationReport:
    """Pointwise check of the dilation conjugation identities.

    With S_theta f = e^theta f(e^theta r) implementing e^{i theta A2}:

        S_-theta A0 S_theta = A0 cosh(theta) + A1 sinh(theta)
        S_-theta A1 S_theta = A0 sinh(theta) + A1 cosh(theta)
        S_-theta (A0 +- A1) S_theta = e^{+-theta} (A0 +- A1)
    """
    if abs(theta) > 3.0:
        raise DomainError(f"|theta| <= 3 expected for the scaling checks, got {theta}")
    a0 = RadialOperator(OperatorKind.A0, sigma)
    a1 = RadialOperator(OperatorKind.A1, sigma)
    grid = np.asarray(grid, dtype=float)
    ch, sh = math.cosh(theta), math.sinh(theta)
    fs = list(test_functions)
    residuals = []
    for f in fs:
        f_scaled = f.scaled(theta)
        a0f, a1f = a0.apply(f)(grid), a1.apply(f)(grid)
        conj0 = a0.apply(f_scaled).scaled(-theta)(grid)
        conj1 = a1.apply(f_scaled).scaled(-theta)(grid)
        checks = [
            (conj0 - (ch * a0f + sh * a1f), [conj0, a0f, a1f]),
            (conj1 - (sh * a0f + ch * a1f), [conj1, a0f, a1f]),
            ((conj0 + conj1) - math.exp(theta) * (a0f + a1f), [conj0 + conj1, a0f + a1f]),
            ((conj0 - conj1) - math.exp(-theta) * (a0f - a1f), [conj0 - conj1, a0f - a1f]),
        ]
        for lhs, parts in checks:
            residuals.append(_relative_residual(lhs, parts))
    return VerificationReport.from_residuals(
        "scaling_identities", np.concatenate(residuals), tolerance,
        context={"theta": theta, "functions": len(fs), "points": grid.size},
    )
