"""Closed-form radial functions with exact derivatives.

Everything the residual and operator-algebra checks touch is a finite
linear combination of terms

    coef * r**power * exp(-decay*r) * L_n^alpha(argscale*r),

a family closed under d/dr, multiplication by integer powers of r, and
dilation r -> e^theta r.  Derivatives are therefore exact term
manipulations, so residuals downstream measure floating-point error only,
never differencing error.  Coefficients and decay rates may be complex
(coherent states); Laguerre arguments stay real.  A sum is an immutable value
that holds only its terms: every operation, d/dr included, builds a new sum.
"""

from __future__ import annotations

from math import exp
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .special import laguerre, laguerre_sequence

__all__ = ["LaguerreTerm", "LaguerreSum"]


def _distinct(*columns):
    """The distinct rows of the columns broadcast and stacked, in order, and an array of each entry's row."""
    seen = {}
    at = [seen.setdefault(key, len(seen)) for key in zip(*(c.ravel().tolist() for c in np.broadcast_arrays(*columns)))]
    return np.array(list(seen)), np.array(at).reshape(columns[0].shape)


class LaguerreTerm(NamedTuple):
    coef: complex
    power: float
    decay: complex
    degree: int
    alpha: float
    argscale: float


class LaguerreSum:
    """A finite linear combination of Laguerre-type radial terms, kept as an
    insertion-ordered map (power, decay, degree, alpha, argscale) -> coef.
    A sum never changes once built; every operation returns a new one."""

    __slots__ = ("_map",)

    def __init__(self, terms):
        self._merge((((t.power, complex(t.decay), t.degree, t.alpha, t.argscale), complex(t.coef))
                     for t in terms), {})

    @classmethod
    def _of(cls, pairs, base=()) -> "LaguerreSum":
        """Build from (key, coef) pairs with complex decays and coefficients,
        merged into a copy of the map ``base`` of another sum."""
        self = object.__new__(cls)
        self._merge(pairs, dict(base))
        return self

    def _merge(self, pairs, merged: dict) -> None:
        """Sum the coefficients of equal keys in order, each sum starting at
        0j (which clears -0.0 parts), and drop the terms that cancel."""
        for key, coef in pairs:
            if coef != 0:
                old = merged.get(key)
                merged[key] = 0j + coef if old is None else old + coef
        if 0 in merged.values():
            merged = {k: c for k, c in merged.items() if c != 0}
        self._map = merged

    @property
    def is_real(self) -> bool:
        """Every coefficient and decay real."""
        return all(c.imag == 0.0 and k[1].imag == 0.0 for k, c in self._map.items())

    @classmethod
    def single(cls, coef, power, decay, degree: int = 0, alpha: float = 0.0,
               argscale: float = 1.0) -> "LaguerreSum":
        return cls([LaguerreTerm(coef, power, decay, degree, alpha, argscale)])

    @property
    def terms(self) -> tuple[LaguerreTerm, ...]:
        return tuple(LaguerreTerm(c, *k) for k, c in self._map.items())

    def __call__(self, r):
        return LaguerreSum.evaluate_all(r, self)[0]

    @staticmethod
    def evaluate_all(r, *sums) -> tuple:
        """Each sum at r (a number or an array), making each distinct r**power,
        exp(-decay r) and Laguerre recurrence once.  Each sum adds its terms
        ((coef r^p) e^{-dr}) L in stored order from zero, in complex arithmetic,
        and a sum whose coefficients and decays are all real gives the real part
        (verification.coherent_truncated_sums keeps these bits for each degree's
        one real term)."""
        scalar = np.isscalar(r)
        rv = np.asarray(r, dtype=float)
        keys = {key for f in sums for key in f._map}
        degrees, lag = {}, {}
        for _, _, n, a, b in keys:
            degrees.setdefault((a, b), set()).add(n)
        for (a, b), ns in degrees.items():
            if len(ns) == 1 or min(ns) < 0:  # laguerre runs the same recurrence, and rejects n < 0
                lag.update(((n, a, b), laguerre(n, a, b * rv)) for n in ns)
            else:
                lag.update(((n, a, b), value) for n, value in zip(range(max(ns) + 1), laguerre_sequence(a, b * rv)))
        powers = {p: rv ** p for p in {key[0] for key in keys}}
        decays = {d: np.exp(-d * rv) for d in {key[1] for key in keys}}
        rows = []
        for f in sums:
            out = np.zeros(rv.shape, dtype=complex)
            for (p, d, n, a, b), c in f._map.items():
                out += c * powers[p] * decays[d] * lag[n, a, b]
            rows.append(out.real if f.is_real else out)
        return tuple(row.item() if scalar else row for row in rows)

    @staticmethod
    def jets(r, order: int, *sums) -> np.ndarray:
        """f, f', ..., f^(order) of each sum as an (order + 1, sum, point) array, with the bits of
        evaluate_all over its derivative() chain on its radii: a 1-D r shared by all the sums, or
        a row of a 2-D r per sum.  A sum holds one real term c r^p e^{-dr} L_g^a(br), or none
        (zero rows); DomainError otherwise.  Derivative j is a sum over keys (i, l) of i p-steps
        and l n-steps (a d-step keeps the key) of ((r^(p-i) C) e^{-dr}) L_(g-l)^(a+l)(br),
        added from zero.  Each C is a float64 vector over the sums, built in derivative()'s
        order and arithmetic (children p, d, n: C p, -C d, -C b, merged from 0.0); a zero C is
        a term the chain drops.  Equal rows share: each distinct r^p and e^{-dr} of a row is
        made once, and every Laguerre value comes from one column recurrence over the distinct
        (a + l, b, row), each (l, sum) row filled as the recurrence passes its degree.  If a
        value is not finite, the terms are added again in complex arithmetic, so that inf and
        nan land as there."""
        if any(len(f) > 1 or not f.is_real for f in sums):
            raise DomainError("jets take sums of at most one real term")
        rv = np.asarray(r, dtype=float)
        rv = np.broadcast_to(rv, (len(sums), rv.size)) if rv.ndim == 1 else rv
        if rv.ndim != 2 or len(rv) != len(sums):
            raise DomainError(f"jets take a 1-D r or one row of radii per sum, got {rv.shape} for {len(sums)} sums")
        first = {}  # each sum's row, as the first sum with equal radii
        row = np.array([first.setdefault(x.tobytes(), i) for i, x in enumerate(rv)])
        coef, power, decay, degree, alpha, argscale = (np.array(v) for v in zip(*(
            (t.coef.real, t.power, t.decay.real, t.degree, t.alpha, t.argscale)
            for f in sums for t in (f.terms or (LaguerreTerm(0.0, 0.0, 0.0, 0, 0.0, 0.0),)))))
        step = np.ones((order, len(sums)))  # p - i and a + l, one step at a time
        powers, orders = np.cumsum([power, *-step], axis=0), np.cumsum([alpha, *step], axis=0)
        levels = [{(0, 0): coef}]
        for _ in range(order):
            level = {}
            for (i, l), c in levels[-1].items():
                for key, child in (((i + 1, l), c * powers[i]), ((i, l), -c * decay),
                                   ((i, l + 1), np.where(degree > l, -c * argscale, 0.0))):
                    level[key] = level[key] + child if key in level else 0.0 + child
            levels.append(level)
        values, at = _distinct(powers, row)
        rp = np.array([rv[int(k)] ** q for q, k in values.tolist()])[at]
        values, at = _distinct(decay, row)
        ec = np.exp(-(values[:, :1] + 0j) * rv[values[:, 1].astype(int)])[at]
        values, at = _distinct(orders, argscale, row)
        need, lv = np.maximum(degree - np.arange(order + 1)[:, None], 0), np.empty((order + 1, *rv.shape))
        lag = laguerre_sequence(values[:, :1], values[:, 1:2] * rv[values[:, 2].astype(int)])
        for g, value in zip(range(int(degree.max()) + 1), lag):
            lv[need == g] = value[at[need == g]]
        out = np.zeros(lv.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            for j, level in enumerate(levels):
                for (i, l), c in level.items():
                    out[j] += rp[i] * c[:, None] * ec.real * lv[l]
        if np.isfinite(out).all():
            return out
        out = np.zeros(out.shape, dtype=complex)
        for j, level in enumerate(levels):
            for (i, l), c in level.items():
                k = c != 0
                out[j, k] += (c[k, None] + 0j) * rp[i, k] * ec[k] * lv[l, k]
        return out.real

    def derivative(self) -> "LaguerreSum":
        """Exact d/dr, using d/dx L_n^a(x) = -L_{n-1}^{a+1}(x)."""
        out = []
        for key, c in self._map.items():
            p, d, n, a, b = key
            if p != 0.0:
                out.append(((p - 1.0, d, n, a, b), c * p))
            out.append((key, -c * d))
            if n >= 1:
                out.append(((p, d, n - 1, a + 1.0, b), -c * b))
        return LaguerreSum._of(out)

    def times_power(self, k) -> "LaguerreSum":
        """Multiply by r**k (k may be negative or fractional); terms whose powers round
        together merge."""
        return LaguerreSum._of(((p + k, d, n, a, b), c) for (p, d, n, a, b), c in self._map.items())

    def scaled(self, theta: float) -> "LaguerreSum":
        """The dilation image e^theta f(e^theta r)."""
        g = exp(theta)
        return LaguerreSum._of(((p, d * g, n, a, b * g), c * g ** (p + 1.0))
                               for (p, d, n, a, b), c in self._map.items())

    def __add__(self, other: "LaguerreSum") -> "LaguerreSum":
        if not isinstance(other, LaguerreSum):
            return NotImplemented
        return LaguerreSum._of(other._map.items(), self._map)

    def __mul__(self, scalar) -> "LaguerreSum":
        if isinstance(scalar, LaguerreSum):
            raise DomainError("products of LaguerreSum objects are not supported; "
                              "evaluate pointwise instead")
        return LaguerreSum._of((key, c * scalar) for key, c in self._map.items())

    __rmul__ = __mul__

    def __len__(self) -> int:
        return len(self._map)
