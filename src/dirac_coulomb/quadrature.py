"""Gauss-Laguerre quadrature with generalized weight x^alpha e^-x.

Rules keep their weights in log space so that large orders (N up to 512,
where the raw weights underflow doubles) remain usable; integration always
works with the exponentially rescaled weights exp(log w + x).
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from math import lgamma, log

import numpy as np

from .errors import ConvergenceFailure, DomainError

__all__ = ["QuadratureRule", "build_rule", "integrate_radial"]

MAX_ORDER = 512
_NEWTON_RTOL = 1e-14


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of an N-point rule for int_0^inf x^alpha e^-x f(x) dx."""

    order: int
    alpha: float
    nodes: np.ndarray
    log_weights: np.ndarray

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)

    def integrate_moment(self, k: float) -> float:
        """int_0^inf x^(alpha+k) e^-x dx by this rule; exact for k <= 2N-1 integer."""
        return float(np.sum(np.exp(self.log_weights + k * np.log(self.nodes))))


def _laguerre_top_scaled(n: int, alpha: float, x: np.ndarray):
    """Run the recurrence up to degree n with per-element rescaling.

    Returns (L_{n-1}, L_n, logscale) where the true values are the returned
    ones times exp(logscale).  Rescaling keeps the iteration inside double
    range for orders up to ~512 where |L| reaches e^1000 territory.
    """
    prev = np.ones_like(x)
    logs = np.zeros_like(x)
    if n == 0:
        return np.zeros_like(x), prev, logs
    cur = 1.0 + alpha - x
    for k in range(1, n):
        prev, cur = cur, ((2.0 * k + 1.0 + alpha - x) * cur - (k + alpha) * prev) / (k + 1.0)
        big = np.abs(cur) > 1e250
        if np.any(big):
            prev = np.where(big, prev * 1e-250, prev)
            cur = np.where(big, cur * 1e-250, cur)
            logs = np.where(big, logs + 250.0 * np.log(10.0), logs)
    return prev, cur, logs


def build_rule(order: int, alpha: float) -> QuadratureRule:
    """Build a generalized Gauss-Laguerre rule.

    Initial node guesses are the eigenvalues of the Jacobi matrix of the
    recurrence (Golub-Welsch); each node is then polished by Newton
    iteration on L_N^alpha to relative 1e-14, and the weights come from the
    standard closed form through L_{N+1}^alpha, evaluated in log space.
    """
    if not isinstance(order, (int, np.integer)) or not 1 <= order <= MAX_ORDER:
        raise DomainError(f"rule order must be an integer in [1, {MAX_ORDER}], got {order}")
    if alpha <= -1.0:
        raise DomainError(f"rule requires alpha > -1, got {alpha}")
    n = int(order)

    diag = 2.0 * np.arange(n) + alpha + 1.0
    off = np.sqrt(np.arange(1, n) * (np.arange(1, n) + alpha))
    jacobi = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    x = np.sort(np.linalg.eigvalsh(jacobi))
    x = np.clip(x, np.finfo(float).tiny, None)

    # Newton runs until 1e-14 relative or until the steps stagnate at the
    # roundoff floor of the recurrence (the smallest nodes of very large
    # rules bounce by ~1 ulp of the node span and cannot do better).
    converged = False
    best = math.inf
    stalled = 0
    for _ in range(100):
        lprev, lcur, _ = _laguerre_top_scaled(n, alpha, x)
        deriv = (n * lcur - (n + alpha) * lprev) / x
        step = lcur / deriv
        x = x - step
        resid = float(np.max(np.abs(step) / (1.0 + np.abs(x))))
        if resid < _NEWTON_RTOL:
            converged = True
            break
        if resid < 1e-11:
            stalled = stalled + 1 if resid >= 0.7 * best else 0
            if stalled >= 3:
                converged = True
                break
        best = min(best, resid)
    if not converged:
        raise ConvergenceFailure(f"Newton polish of Laguerre nodes (N={n}, alpha={alpha}) did not converge")
    if np.any(x <= 0.0) or np.any(np.diff(x) <= 1e-13 * x[1:]):
        raise ConvergenceFailure(f"node set for (N={n}, alpha={alpha}) is not strictly increasing and positive")

    _, ltop, logs = _laguerre_top_scaled(n + 1, alpha, x)
    log_w = (
        lgamma(n + alpha + 1.0)
        - lgamma(n + 1.0)
        - 2.0 * log(n + 1.0)
        + np.log(x)
        - 2.0 * (np.log(np.abs(ltop)) + logs)
    )
    return QuadratureRule(order=n, alpha=alpha, nodes=x, log_weights=log_w)


def integrate_radial(f, scale: float, rule: QuadratureRule):
    """Integrate f over (0, inf) by Gauss-Laguerre.

    The caller declares smoothness: f(r) = r^rule.alpha * e^{-2 scale r}
    * (smooth slowly-varying part), and f must accept an array of radii.
    The rule is applied under the substitution x = 2*scale*r.
    """
    if scale <= 0.0:
        raise DomainError(f"integration scale must be positive, got {scale}")
    r = rule.nodes / (2.0 * scale)
    w = np.exp(rule.log_weights + rule.nodes - rule.alpha * np.log(rule.nodes)) / (2.0 * scale)
    gl = complex(np.sum(w * f(r)))
    if abs(gl.imag) < 1e-300 + 1e-15 * abs(gl.real):
        gl = gl.real
    return gl
