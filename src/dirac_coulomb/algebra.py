"""Numerical verification of the su(1,1) realization on radial functions.

The generators, parameterized by the realization constant sigma (so the
centrifugal term is sigma(sigma+1)/r and the Bargmann index is
k = sigma + 1), are

    A0 = (r P_r^2 + sigma(sigma+1)/r + r) / 2,
    A1 = (r P_r^2 + sigma(sigma+1)/r - r) / 2,
    A2 = -i r (d/dr + 1/r),          P_r^2 = -d^2/dr^2 - (2/r) d/dr,

with the ladder identification K+- = A1 +- i A2 and K0 = A0, which
reproduces [K0, K+-] = +-K+- and [K-, K+] = 2 K0.  The identification is
itself one of the tested invariants, not an assumption.

Each generator is L = a2 D^2 + a1 D + a0 with a2 = -r/2, a1 = t r - 1 and
a0 = sigma(sigma+1)/(2r) +- r/2 + t (t = 0 for K0 and A1, +-1 for K+-; +r/2
for K0 alone), and the checks apply it to jets: the values of f, f', ...,
f^(k) on a grid, from LaguerreSum.jets, which has the bits of the exact
derivative() chain.  By Leibniz the image of an order-k jet is an
order-(k-2) jet (_image), so the jets (f, ..., f^(4)) of all the families'
Sturmians, one LaguerreSum.jets call, give every first- and second-order
image as (Sturmian, point) arrays, for the three commutator relations, the
Casimir -K+K- + K0(K0 - 1) = k(k-1) and the eigenvalue A0 f_n = (n + s) f_n,
in one pass over all the families (_su11_family_residuals); the residuals
are floating-point noise unless an identity is wrong.  The ladder
projections and the dilation identities take order-2 jets.
RadialOperator.apply builds each generator's exact symbolic image from its
definition, which the tests hold the jets to.  A channel's sigma, lowest
label and Laguerre order come from radial.radial_channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache

import numpy as np

from .errors import DomainError
from .quadrature import integrate_radial
from .radialfn import LaguerreSum
from .report import VerificationReport
from .radial import radial_channel, sturmian

__all__ = [
    "OperatorKind",
    "RadialOperator",
    "SU11_RELATIONS",
    "su11_commutator_report",
    "scaling_identity_residual",
]


class OperatorKind(Enum):
    A0 = "A0"
    A1 = "A1"
    KPLUS = "K+"
    KMINUS = "K-"
    K0 = "K0"


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
        """Exact operator image of a LaguerreSum: A0 = K0 and A1 are
        (r P_r^2 + cent/r +- r) / 2, and K+- = A1 +- i A2 with i A2 f = r f' + f."""
        kind = self.kind
        sign = 1.0 if kind in (OperatorKind.A0, OperatorKind.K0) else -1.0
        fp = f.derivative()
        pr2 = fp.derivative() * (-1.0) + fp.times_power(-1) * 2.0 * -1.0
        image = (pr2.times_power(1) + f.times_power(-1) * self._cent() + f.times_power(1) * sign) * 0.5
        if kind is OperatorKind.KPLUS:
            return image + (fp.times_power(1) + f)
        if kind is OperatorKind.KMINUS:
            return image + (fp.times_power(1) + f) * -1.0
        return image


def _relative_residual(lhs: np.ndarray, parts: list[np.ndarray]) -> np.ndarray:
    """|lhs| over a pointwise scale built from the constituent magnitudes, floored
    at 1e-3 of their global maximum (per row of a 2-D lhs) so nodes cannot inflate it."""
    mags = [np.abs(p) for p in parts]
    pointwise = np.maximum.reduce(mags)
    glob = np.max([m.max(axis=-1, keepdims=True) for m in mags], axis=0)
    return np.abs(lhs) / np.maximum(pointwise, 1e-3 * glob)


# The defining relations [X, Y] = sum_j c_j Z_j, keyed by check name.
SU11_RELATIONS = {
    "commutator_k0_kplus": (OperatorKind.K0, OperatorKind.KPLUS, ((1.0, OperatorKind.KPLUS),)),
    "commutator_k0_kminus": (OperatorKind.K0, OperatorKind.KMINUS, ((-1.0, OperatorKind.KMINUS),)),
    "commutator_kminus_kplus": (OperatorKind.KMINUS, OperatorKind.KPLUS, ((2.0, OperatorKind.K0),)),
}


# a generator L = -r/2 D^2 + (t r - 1) D + cent/(2r) + h r + t, as (t, h): K+- = A1 +- (r D + 1)
_COEFFICIENTS = {OperatorKind.A0: (0.0, 0.5), OperatorKind.K0: (0.0, 0.5), OperatorKind.A1: (0.0, -0.5),
                 OperatorKind.KPLUS: (1.0, -0.5), OperatorKind.KMINUS: (-1.0, -0.5)}


def _image(kind: OperatorKind, centrifugal: float, jet, r: np.ndarray) -> list[np.ndarray]:
    """The jet of L g, two orders shorter than the jet of g on r, for the
    generator L = a2 D^2 + a1 D + a0 of ``kind``, by Leibniz:
    (L g)^(m) = sum_j C(m, j) (a2^(j) g^(m-j+2) + a1^(j) g^(m-j+1) + a0^(j) g^(m-j)).
    a2 = -r/2 and a1 = t r - 1 are linear; a0 = cent/(2r) + h r + t has the
    exact derivatives of cent/(2r), (-1)^j j! cent / (2 r^(j+1))."""
    t, h = _COEFFICIENTS[kind]
    orders = len(jet) - 2
    a0 = [centrifugal / (2.0 * r) + h * r + t, h - centrifugal / (2.0 * r * r)]
    a0 += [(-1.0) ** j * math.factorial(j) * centrifugal / (2.0 * r ** (j + 1)) for j in range(2, orders)]
    return [-0.5 * r * jet[m + 2] + (t * r - 1.0 - 0.5 * m) * jet[m + 1] + m * t * jet[m]
            + sum(math.comb(m, j) * a0[j] * jet[m - j] for j in range(m + 1)) for m in range(orders)]


def _su11_family_residuals(families, grid: np.ndarray,
                           fault_centrifugal: float | None) -> dict[str, np.ndarray]:
    """Pointwise residuals, a (Sturmian, point) array per name, one row for each
    f = sturmian(channel, n, s), n in ``levels``, of each (channel, s, levels) of
    ``families`` in turn: of every relation of SU11_RELATIONS, [X, Y] f - sum_j
    c_j Z_j f, of the Casimir, (-K+K- + K0 K0 - K0) f against k(k-1) f with
    Bargmann index k, and of the A0 eigenvalue, A0 f against (n + s) f.

    One pass takes the jets (f, ..., f^(4)) of all the families' Sturmians
    from one LaguerreSum.jets call and applies the generators to them as
    differential operators (_image) with (Sturmian, 1) columns of constants:
    K0 f, K+ f and K- f as jets of order 2, then each X Y f as a value; a row
    has the bits of its family's pass alone.  A ``fault_centrifugal`` other than
    None replaces sigma(sigma+1) in the commuted pair only (the Z side keeps the
    true realization); the three operators close su(1,1) for any constant when
    perturbed together, so this is the injection that actually exposes a wrong
    realization.  The Casimir takes its images from the commuted pair, so the
    fault reaches it too; A0 f is the Z side's K0 f.
    """
    sigma = np.array([[radial_channel(channel, s).sigma] for channel, s, levels in families for _ in levels])
    k_barg = sigma + 1.0
    true_cent = sigma * (sigma + 1.0)
    pair_cent = true_cent if fault_centrifugal is None else np.full_like(true_cent, fault_centrifugal)
    jet = LaguerreSum.jets(grid, 4, *(sturmian(channel, n, s) for channel, s, levels in families for n in levels))
    fv = jet[0]
    ladder = (OperatorKind.K0, OperatorKind.KPLUS, OperatorKind.KMINUS)
    first = {kind: _image(kind, pair_cent, jet, grid) for kind in ladder}
    true = {kind: (first[kind] if fault_centrifugal is None else _image(kind, true_cent, jet[:3], grid))[0]
            for kind in ladder}

    @cache
    def second(x, y):  # X Y f, each built once
        return _image(x, pair_cent, first[y], grid)[0]

    residuals = {}
    for name, (x, y, expected) in SU11_RELATIONS.items():
        xy, yx = second(x, y), second(y, x)
        zval = sum(coef * true[z] for coef, z in expected)
        # f itself joins the scale so that identically annihilated states
        # (K- on the lowest one) do not reduce the residual to 0/0 noise
        residuals[name] = _relative_residual(xy - yx - zval, [xy, yx, zval, fv])
    lhs = (second(OperatorKind.K0, OperatorKind.K0) - second(OperatorKind.KPLUS, OperatorKind.KMINUS)
           - first[OperatorKind.K0][0])
    rhs = k_barg * (k_barg - 1.0) * fv
    residuals["casimir"] = _relative_residual(lhs - rhs, [lhs, rhs, fv])
    lhs = true[OperatorKind.K0]
    rhs = np.array([[n + s] for _, s, levels in families for n in levels]) * fv
    residuals["a0_eigenvalue"] = _relative_residual(lhs - rhs, [lhs, rhs])
    return residuals


def su11_commutator_report(channel: str, s: float, levels, grid,
                           fault_centrifugal: float | None = None) -> list[VerificationReport]:
    """Reports of the su(1,1) structure on the Sturmians sturmian(channel, n, s),
    n in ``levels``; every operator acts on exact derivatives.  First the three
    relations of SU11_RELATIONS, [K0,K+] = K+, [K0,K-] = -K-, [K-,K+] = 2 K0,
    each over the whole family; then for each Sturmian in turn its ``casimir``
    and ``a0_eigenvalue`` reports, with context channel, n and s, each judged at
    its check's default tolerance: the pass of _su11_family_residuals for one
    family (see there for ``fault_centrifugal``), whose row maxima verify reads."""
    from .verification import DEFAULT_TOLERANCES  # that module imports this one
    grid = np.asarray(grid, dtype=float)
    levels = list(levels)
    residuals = _su11_family_residuals([(channel, s, levels)], grid, fault_centrifugal)
    family = {"functions": len(levels), "points": grid.size}
    reports = [VerificationReport.from_residuals(name, np.concatenate(residuals[name]),
                                                 DEFAULT_TOLERANCES[name], family) for name in SU11_RELATIONS]
    for i, n in enumerate(levels):
        reports += [VerificationReport.from_residuals(name, residuals[name][i], DEFAULT_TOLERANCES[name],
                                                      {"channel": channel, "n": n, "s": s})
                    for name in ("casimir", "a0_eigenvalue")]
    return reports


def _ladder_rule_key(channel: str, n: int, s: float) -> tuple[int, float]:
    """(order, alpha) of a quadrature rule that _ladder_projections of levels up to n may use."""
    return max(32, n + 10), radial_channel(channel, s).alpha


def _ladder_projections(channel: str, levels, s: float, rule) -> list[tuple[float, float]]:
    """(<f_{n+1}, K+ f_n>, <f_{n-1}, K- f_n>) under r dr of each n in ``levels``, on
    one rule that _ladder_rule_key gives them all: K+ f_n and K- f_n from the jets
    (f, f', f'') of the Sturmians, all evaluated in one batch, and one integral of
    rows.  At the lowest n the down entry is the norm of K- f_n, which vanishes;
    a label below the lowest raises DomainError."""
    lowest, sigma, _, _ = radial_channel(channel, s)
    if min(levels) < lowest:
        raise DomainError(f"{channel}-channel ladder labels must be >= {lowest}, got {min(levels)}")
    first = max(min(levels) - 1, lowest)
    r = rule.nodes / 2.0  # the radii integrate_radial uses at scale 1
    jet = LaguerreSum.jets(r, 2, *(sturmian(channel, n, s) for n in range(first, max(levels) + 2)))
    fv, at = jet[0], [n - first for n in levels]
    kp_km = zip(*(_image(kind, sigma * (sigma + 1.0), jet[:, at], r)[0]
                  for kind in (OperatorKind.KPLUS, OperatorKind.KMINUS)))
    totals = np.real(integrate_radial(lambda r: np.array([
        row for n, (kp, km) in zip(levels, kp_km)
        for row in (fv[n + 1 - first] * kp * r, fv[n - 1 - first] * km * r if n > lowest else abs(km) ** 2 * r)]),
        1.0, rule))
    return [(float(up), float(down) if n > lowest else math.sqrt(max(float(down), 0.0)))
            for n, up, down in zip(levels, totals[::2], totals[1::2])]


def scaling_identity_residual(thetas: tuple, test_functions, grid, sigmas) -> list[float]:
    """Pointwise check of the dilation conjugation identities: the maximum
    relative residual for each theta in ``thetas``.

    With S_theta f = e^theta f(e^theta r) implementing e^{i theta A2}:

        S_-theta A0 S_theta = A0 cosh(theta) + A1 sinh(theta)
        S_-theta A1 S_theta = A0 sinh(theta) + A1 cosh(theta)
        S_-theta (A0 +- A1) S_theta = e^{+-theta} (A0 +- A1)

    Each side is the A0 or A1 image of a jet (f, f', f''): of the functions
    on the grid, which serves every theta, and for each theta of the dilated
    functions f.scaled(theta) on e^-theta r, one LaguerreSum.jets call per
    theta, so each function holds at most one real term.  Each function is
    conjugated under its own realization constant, the entry of
    ``sigmas`` at its position (a Sturmian's is its channel's sigma).
    """
    if any(abs(theta) > 3.0 for theta in thetas):
        raise DomainError(f"|theta| <= 3 expected for the scaling checks, got {thetas}")
    grid = np.asarray(grid, dtype=float)
    fs = list(test_functions)
    sigmas = np.array(sigmas, dtype=float).reshape(len(fs), 1)  # a (function, 1) column
    cent = sigmas * (sigmas + 1.0)

    def a0_a1(jet, r):
        return [_image(kind, cent, jet, r)[0] for kind in (OperatorKind.A0, OperatorKind.A1)]

    (a0f, a1f), maxima = a0_a1(LaguerreSum.jets(grid, 2, *fs), grid), []
    for theta in thetas:
        shrink = math.exp(-theta)  # S_-theta g (r) = e^-theta g(e^-theta r)
        r = shrink * grid
        conj0, conj1 = (shrink * g for g in a0_a1(LaguerreSum.jets(r, 2, *(f.scaled(theta) for f in fs)), r))
        ch, sh = math.cosh(theta), math.sinh(theta)
        checks = [
            (conj0 - (ch * a0f + sh * a1f), [conj0, a0f, a1f]),
            (conj1 - (sh * a0f + ch * a1f), [conj1, a0f, a1f]),
            ((conj0 + conj1) - math.exp(theta) * (a0f + a1f), [conj0 + conj1, a0f + a1f]),
            ((conj0 - conj1) - math.exp(-theta) * (a0f - a1f), [conj0 - conj1, a0f - a1f]),
        ]
        maxima.append(float(np.max([_relative_residual(lhs, parts) for lhs, parts in checks])))
    return maxima
