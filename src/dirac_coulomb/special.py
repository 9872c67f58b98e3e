"""Generalized Laguerre polynomials, log-gamma and the Laguerre generating
function.

The Laguerre order alpha is generically non-integer here (alpha = 2s +- 1
with s irrational), so every factorial-type quantity is expressed through
the gamma function.
"""

from __future__ import annotations

import cmath
import math
from itertools import count, islice

import numpy as np

from .errors import DomainError

__all__ = [
    "laguerre",
    "laguerre_sequence",
    "log_gamma",
    "log_gamma_ratio",
    "laguerre_generating_closed",
]


def laguerre(n: int, alpha: float, x):
    """Evaluate L_n^alpha(x), the degree-n value of ``laguerre_sequence``;
    ``x`` may be a scalar or a numpy array and the result has its shape."""
    if n < 0:
        raise DomainError(f"Laguerre degree must be >= 0, got {n}")
    return next(islice(laguerre_sequence(alpha, x), n, None))


def laguerre_sequence(alpha, x):
    """Yield L_0^alpha(x), L_1^alpha(x), ... by the stable three-term
    forward recurrence, one step per degree.

    (k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1},
    seeded with L_0 = 1 and L_1 = 1 + alpha - x.

    ``alpha`` may be a column (rows, 1) of orders, beside an x of points or of
    (rows, points): row i of each degree then has the bits of order alpha[i] on its x.

    Yielded arrays feed the next step: read them, never modify them.
    """
    column = not np.isscalar(alpha)
    if (low := np.min(alpha) if column else alpha) <= -1.0:
        raise DomainError(f"Laguerre order must exceed -1, got {low}")
    scalar = np.isscalar(x)
    # a number runs in Python floats, the same double arithmetic without numpy's per-call cost
    xv = float(x) if scalar else np.asarray(x, dtype=float)
    if column:  # as full (rows, points) arrays: numpy broadcasts a column more slowly
        alpha, xv = (np.array(v) for v in np.broadcast_arrays(alpha, xv))
    prev = 1.0 if scalar else np.ones_like(xv)
    yield prev
    cur = 1.0 + alpha - xv
    for k in count(1):
        yield float(cur) if scalar else cur
        prev, cur = cur, ((2.0 * k + 1.0 + alpha - xv) * cur - (k + alpha) * prev) / (k + 1.0)


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0.

    Backed by the C library implementation (accurate to ~1 ulp); gamma
    ratios should be formed as exp(log_gamma(a) - log_gamma(b)).
    """
    if x <= 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


# B_2k / (2k (2k-1)), k = 1..8: the Stirling series of ln Gamma(z) to within 1e-17 for z >= 9
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0,
             -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0)


def _stirling_series(z: float) -> float:
    """sum_k B_2k / (2k (2k-1) z^{2k-1}), the part of ln Gamma(z) past its leading terms."""
    w = 1.0 / (z * z)
    acc = 0.0
    for c in reversed(_STIRLING):
        acc = acc * w + c
    return acc / z


def log_gamma_ratio(x: float, d: float) -> float:
    """ln(Gamma(x + d) / Gamma(x)) for x + d > 0 and d > -1.

    From x = 10 on, the difference of two log_gamma values would carry the
    rounding of ln Gamma(x) itself (2e-13 at x = 2000), so there the two
    Stirling series are subtracted, their leading terms joined as
    (x - 1/2) log1p(d/x) + d ln(x + d) - d.  Below 10, ln Gamma(x) < 13 and
    the plain difference is as accurate.
    """
    if x < 10.0:
        return log_gamma(x + d) - log_gamma(x)
    z = x + d
    return (x - 0.5) * math.log1p(d / x) + d * math.log(z) - d + (_stirling_series(z) - _stirling_series(x))


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
