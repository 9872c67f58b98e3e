"""Gauss-Laguerre quadrature with generalized weight x^alpha e^-x.

Rules hold orders up to 128 and keep their weights in log space, where
raw weights of a large order or alpha would leave the double range;
integration always works with the exponentially rescaled weights
exp(log w + x).  At those orders |L_k^alpha| on the nodes stays below 1e204
for alpha up to 1e4, so the plain recurrence of special.laguerre_sequence
gives L_{N-1}, L_N and L_{N+1} without rescaling.  build_rules builds
several rules at once, one recurrence for all, each with its bits alone.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from itertools import islice
from math import lgamma, log

import numpy as np

from .errors import ConvergenceFailure, DomainError
from .special import laguerre_sequence

__all__ = ["QuadratureRule", "build_rule", "build_rules", "integrate_radial"]

MAX_ORDER = 128
_NEWTON_RTOL = 1e-14


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of an N-point rule for int_0^inf x^alpha e^-x f(x) dx."""

    alpha: float
    nodes: np.ndarray
    log_weights: np.ndarray

    def integrate_moment(self, k: float) -> float:
        """int_0^inf x^(alpha+k) e^-x dx by this rule; exact for k <= 2N-1 integer."""
        return float(np.sum(np.exp(self.log_weights + k * np.log(self.nodes))))


def build_rule(order: int, alpha: float) -> QuadratureRule:
    """The rule of build_rules for the one key (order, alpha)."""
    return build_rules([(order, alpha)])[0]


def _laguerre_rows(alpha: np.ndarray, x: np.ndarray, degrees: np.ndarray) -> list[np.ndarray]:
    """[L_d^alpha(x) for each column d of ``degrees``], row i of each at row i's alpha, x and
    degrees, from one laguerre_sequence recurrence over the (row, 1) column ``alpha``.  It runs
    to the largest degree, where rows of lower degrees may overflow unread."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = list(islice(laguerre_sequence(alpha, x), int(degrees.max()) + 1))
    return [np.array([values[d][i] for i, d in enumerate(column)]) for column in degrees.T]


def build_rules(keys) -> list[QuadratureRule]:
    """Generalized Gauss-Laguerre rules, one per (order, alpha) of the list ``keys``.

    Initial node guesses are the eigenvalues of the Jacobi matrix of the
    recurrence (Golub-Welsch), one stacked eigvalsh call per order; each
    node is then polished by Newton iteration on L_N^alpha to relative 1e-14,
    and the weights come from the standard closed form through L_{N+1}^alpha,
    evaluated in log space.  The rules are polished together, as rows padded
    to the largest order with copies of their last node: one recurrence over
    a column of orders per step, each row read at its own degrees, with its
    own Newton state, and frozen once done, so each rule keeps the bits it
    has alone.  Orders run up to MAX_ORDER = 128, where the unscaled
    recurrence of laguerre_sequence stays inside the double range on the
    nodes; alpha must be finite and exceed -1.
    """
    for order, alpha in keys:
        if not isinstance(order, (int, np.integer)) or not 1 <= order <= MAX_ORDER:
            raise DomainError(f"rule order must be an integer in [1, {MAX_ORDER}], got {order}")
        if not -1.0 < alpha < math.inf:
            raise DomainError(f"rule requires a finite alpha > -1, got {alpha}")
    n = np.array([[int(order)] for order, _ in keys])  # (rule, 1) columns
    a = np.array([[float(alpha)] for _, alpha in keys])
    x = np.empty((len(keys), n.max()))
    for order in np.unique(n):
        rows, i = np.flatnonzero(n == order), np.arange(order)
        jacobi = np.zeros((rows.size, order, order))
        jacobi[:, i, i] = 2.0 * i + a[rows] + 1.0
        jacobi[:, i[:-1], i[1:]] = jacobi[:, i[1:], i[:-1]] = np.sqrt(i[1:] * (i[1:] + a[rows]))
        nodes = np.clip(np.sort(np.linalg.eigvalsh(jacobi)), np.finfo(float).tiny, None)
        x[rows] = nodes[:, np.minimum(np.arange(x.shape[1]), order - 1)]

    # Newton runs until 1e-14 relative or until the steps stagnate at the
    # roundoff floor of the recurrence (the smallest nodes of very large
    # rules bounce by ~1 ulp of the node span and cannot do better).
    converged, best, stalled = np.zeros(len(keys), bool), np.full(len(keys), math.inf), np.zeros(len(keys), int)
    for _ in range(100):
        if not (live := np.flatnonzero(~converged)).size:
            break
        nl, al, xl = n[live], a[live], x[live]
        lprev, lcur = _laguerre_rows(al, xl, np.hstack([nl - 1, nl]))
        with np.errstate(over="ignore", invalid="ignore"):  # the checks below judge a row that overflows
            step = lcur / ((nl * lcur - (nl + al) * lprev) / xl)
            x[live] = xl = xl - step
            resid = np.max(np.abs(step) / (1.0 + np.abs(xl)), axis=1)
        floor = resid < 1e-11
        stalled[live] = np.where(floor, np.where(resid >= 0.7 * best[live], stalled[live] + 1, 0), stalled[live])
        converged[live] = (resid < _NEWTON_RTOL) | (floor & (stalled[live] >= 3))
        best[live] = np.fmin(best[live], resid)  # as min(best, resid) keeps best over a nan

    (ltop,) = _laguerre_rows(a, x, n + 1)
    rules = []
    for i, (order, alpha) in enumerate(keys):
        order, nodes = int(order), x[i, :order].copy()
        if not converged[i]:
            raise ConvergenceFailure(f"Newton polish of Laguerre nodes (N={order}, alpha={alpha}) did not converge")
        if np.any(nodes <= 0.0) or np.any(np.diff(nodes) <= 1e-13 * nodes[1:]):
            raise ConvergenceFailure(f"node set for (N={order}, alpha={alpha}) is not strictly increasing and positive")
        log_w = (lgamma(order + alpha + 1.0) - lgamma(order + 1.0) - 2.0 * log(order + 1.0)
                 + np.log(nodes) - 2.0 * np.log(np.abs(ltop[i, :order])))
        rules.append(QuadratureRule(alpha=alpha, nodes=nodes, log_weights=log_w))
    return rules


def integrate_radial(f, scale: float, rule: QuadratureRule):
    """Integrate f over (0, inf) by Gauss-Laguerre; each row of a 2-D f(r) alone.

    The caller declares smoothness: f(r) = r^rule.alpha * e^{-2 scale r}
    * (smooth slowly-varying part), and f must accept an array of radii.
    The rule is applied under the substitution x = 2*scale*r.  The total is a
    numpy scalar, or an array of one per row: real for a real f, else complex.
    """
    if scale <= 0.0:
        raise DomainError(f"integration scale must be positive, got {scale}")
    r = rule.nodes / (2.0 * scale)
    w = np.exp(rule.log_weights + rule.nodes - rule.alpha * np.log(rule.nodes)) / (2.0 * scale)
    return np.sum(w * f(r), axis=-1)
