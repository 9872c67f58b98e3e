"""Generalized Laguerre polynomials, log-gamma and the Laguerre generating
function.

The Laguerre order alpha is generically non-integer here (alpha = 2s +- 1
with s irrational), so every factorial-type quantity is expressed through
the gamma function.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError

__all__ = [
    "laguerre",
    "laguerre_zero_value",
    "log_gamma",
    "laguerre_generating_closed",
]


def laguerre(n: int, alpha: float, x):
    """Evaluate L_n^alpha(x) by the stable three-term forward recurrence.

    (k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1},
    seeded with L_0 = 1 and L_1 = 1 + alpha - x.

    ``x`` may be a scalar or a numpy array; the result has the same shape.
    """
    if n < 0:
        raise DomainError(f"Laguerre degree must be >= 0, got {n}")
    if alpha <= -1.0:
        raise DomainError(f"Laguerre order must exceed -1, got {alpha}")
    scalar = np.isscalar(x)
    xv = np.asarray(x, dtype=float)
    prev = np.ones_like(xv)
    if n == 0:
        return float(prev) if scalar else prev
    cur = 1.0 + alpha - xv
    for k in range(1, n):
        prev, cur = cur, ((2.0 * k + 1.0 + alpha - xv) * cur - (k + alpha) * prev) / (k + 1.0)
    return float(cur) if scalar else cur


def laguerre_zero_value(n: int, alpha: float) -> float:
    """L_n^alpha(0) = Gamma(n+alpha+1) / (n! Gamma(alpha+1))."""
    if n < 0:
        raise DomainError(f"Laguerre degree must be >= 0, got {n}")
    if alpha <= -1.0:
        raise DomainError(f"Laguerre order must exceed -1, got {alpha}")
    return math.exp(log_gamma(n + alpha + 1.0) - log_gamma(n + 1.0) - log_gamma(alpha + 1.0))


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0.

    Backed by the C library implementation (accurate to ~1 ulp); gamma
    ratios should be formed as exp(log_gamma(a) - log_gamma(b)).
    """
    if x <= 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def laguerre_generating_closed(nu: float, y: complex, x: float) -> complex:
    """Closed form of sum_n L_n^nu(x) y^n for |y| < 1.

    Equals exp(x*y/(y-1)) / (1-y)^(nu+1) on the principal branch; the
    exponent sign is fixed by the n=1 Taylor coefficient of the sum
    (d/dx L_n^nu = -L_{n-1}^{nu+1}) and is confirmed against truncated
    partial sums in the test suite.
    """
    y = complex(y)
    if abs(y) >= 1.0:
        raise DomainError(f"generating function requires |y| < 1, got |y| = {abs(y)}")
    return cmath.exp(x * y / (y - 1.0)) * (1.0 - y) ** (-(nu + 1.0))
