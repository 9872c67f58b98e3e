"""Test-side references: objects of the paper that the tests check the library
against, and that no CLI path needs.

- coupling_matrix and decoupling_matrix: the 1/r coefficient matrix C of the
  first-order radial system and the similarity transform M that takes it to
  diag(-s, s), whose eigenvalues fix the two Sturmian channels;
- ladder_matrix_elements: the quadrature projections of K+ and K- between
  neighbouring Sturmians, on the rule the verify suite's ladder check uses;
- second_order_residual: the decoupled second-order ODE residuals of a
  component of either channel, from its derivative() chain;
- sturmian_term: the one term of a Sturmian, before a LaguerreSum is built
  from it;
- chain_jets: f, f', ..., f^(order) of any LaguerreSums from their symbolic
  derivative() chains, the reference LaguerreSum.jets keeps the bits of.
"""

from __future__ import annotations

import numpy as np

from dirac_coulomb import SingularTransform
from dirac_coulomb.algebra import _ladder_projections, _ladder_rule_key
from dirac_coulomb.problem import DerivedConstants
from dirac_coulomb.quadrature import build_rule
from dirac_coulomb.radial import (_second_order_residual, _sturmian_coefs, default_residual_grid, radial_channel,
                                  sturmian)
from dirac_coulomb.radialfn import LaguerreSum, LaguerreTerm


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


def ladder_matrix_elements(channel: str, n: int, s: float) -> tuple[float, float]:
    """(<f_{n+1}, K+ f_n>, <f_{n-1}, K- f_n>) under r dr of the Sturmian f_n alone,
    on the rule _ladder_rule_key gives its level (algebra._ladder_projections).

    With group index n_g (n for u, n-1 for v) and Bargmann index k these must
    equal sqrt((n_g+1)(2k+n_g)) and sqrt(n_g(2k+n_g-1)); for the lowest state
    the down entry is the norm of K- f, which vanishes.  A label below the
    channel's lowest raises DomainError."""
    rule, lowest = build_rule(*_ladder_rule_key(channel, n, s)), radial_channel(channel, s).lowest
    jet = chain_jets(rule.nodes / 2.0, [sturmian(channel, m, s) for m in range(lowest, max(n, lowest) + 2)], 2)
    return _ladder_projections(channel, [n], s, rule, jet)[0]


def second_order_residual(component, level, constants, channel: str) -> np.ndarray:
    """The residuals of radial._second_order_residual for ``component`` of ``channel`` on
    default_residual_grid(a), from its derivative() chain: those of ode_residual_second_order
    for the v component."""
    grid = default_residual_grid(level.a)
    return _second_order_residual(chain_jets(grid, [component], 2)[:, 0], grid, level, constants, channel)


def sturmian_term(channel: str, n: int, s: float) -> LaguerreTerm:
    """The term of radial.sturmian(channel, n, s) as it enters LaguerreSum.single, whose
    merge drops a coefficient that underflowed to 0."""
    ch = radial_channel(channel, s)
    return LaguerreTerm(next(_sturmian_coefs(ch, n, s)), ch.sigma, 1.0, n - ch.lowest, ch.alpha, 2.0)


def chain_jets(r: np.ndarray, functions, order: int) -> np.ndarray:
    """f, f', ..., f^(order) of each function on r, as an (order + 1, function,
    point) array: the exact derivatives, each built from the one before, all
    evaluated in one LaguerreSum.evaluate_all call."""
    sums = []
    for f in functions:
        sums.append(f)
        for _ in range(order):
            sums.append(sums[-1].derivative())
    values = np.array(LaguerreSum.evaluate_all(r, *sums))
    return values.reshape(-1, order + 1, r.size).swapaxes(0, 1)
