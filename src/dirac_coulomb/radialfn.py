"""Closed-form radial functions with exact derivatives.

Everything the residual and operator-algebra checks touch is a finite
linear combination of terms

    coef * r**power * exp(-decay*r) * L_n^alpha(argscale*r),

a family closed under d/dr, multiplication by integer powers of r, and
dilation r -> e^theta r.  Derivatives are therefore exact term
manipulations, so residuals downstream measure floating-point error only,
never differencing error.  Coefficients and decay rates may be complex
(coherent states); Laguerre arguments stay real.
"""

from __future__ import annotations

from math import exp
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .special import laguerre

__all__ = ["LaguerreTerm", "LaguerreSum"]


class LaguerreTerm(NamedTuple):
    coef: complex
    power: float
    decay: complex
    degree: int = 0
    alpha: float = 0.0
    argscale: float = 1.0


class LaguerreSum:
    """A finite linear combination of Laguerre-type radial terms, kept as an
    insertion-ordered map (power, decay, degree, alpha, argscale) -> coef.
    A sum never changes once built, so it keeps its derivative."""

    __slots__ = ("_map", "_derivative")

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
        self._derivative = None

    @property
    def is_real(self) -> bool:
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
    def evaluate_all(r, *sums, polys=None) -> tuple:
        """Each sum at r (a number or an array), with one cache of r**power,
        exp(-decay r) and L_n^alpha(argscale r) for all of them; ``polys`` may
        hold Laguerre values already made, keyed as in evaluate."""
        scalar = np.isscalar(r)
        rv = np.asarray(r, dtype=float)
        cache = ({}, {}, {} if polys is None else polys)
        return tuple(out.item() if scalar else out for out in (f.evaluate(rv, *cache) for f in sums))

    def evaluate(self, rv: np.ndarray, powers: dict, decays: dict, polys: dict):
        """Add the terms on the float array rv in order, computing each distinct
        r**power, exp(-decay r) and L_n^alpha(argscale r) once; the dicts hold
        them by power, decay and (degree, alpha, argscale) and may be shared.
        verification.coherent_truncated_sum repeats the arithmetic of one real
        term, the real part of ((coef * r**power) * exp(-decay r)) * L with complex
        coef and exp, to keep the bits of its series; keep the two in step."""
        out = np.zeros(rv.shape, dtype=complex)
        for (p, d, n, a, b), c in self._map.items():
            if p not in powers:
                powers[p] = rv ** p
            if d not in decays:
                decays[d] = np.exp(-d * rv)
            if (n, a, b) not in polys:
                polys[n, a, b] = laguerre(n, a, b * rv)
            out += c * powers[p] * decays[d] * polys[n, a, b]
        return out.real if self.is_real else out

    def derivative(self) -> "LaguerreSum":
        """Exact d/dr, using d/dx L_n^a(x) = -L_{n-1}^{a+1}(x)."""
        if self._derivative is None:
            out = []
            for key, c in self._map.items():
                p, d, n, a, b = key
                if p != 0.0:
                    out.append(((p - 1.0, d, n, a, b), c * p))
                out.append((key, -c * d))
                if n >= 1:
                    out.append(((p, d, n - 1, a + 1.0, b), -c * b))
            self._derivative = LaguerreSum._of(out)
        return self._derivative

    def times_power(self, k) -> "LaguerreSum":
        """Multiply by r**k (k may be negative or fractional)."""
        pairs = [((p + k, d, n, a, b), c) for (p, d, n, a, b), c in self._map.items()]
        shifted = dict(pairs)
        if len(shifted) < len(pairs):  # two powers rounded together: merge their terms
            return LaguerreSum._of(pairs)
        # distinct keys keep their coefficients, which a merge would leave as they are
        out = object.__new__(LaguerreSum)
        out._map = shifted
        out._derivative = None
        return out

    def scaled(self, theta: float) -> "LaguerreSum":
        """The dilation image e^theta f(e^theta r)."""
        g = exp(theta)
        return LaguerreSum._of(((p, d * g, n, a, b * g), c * g ** (p + 1.0))
                               for (p, d, n, a, b), c in self._map.items())

    def __add__(self, other: "LaguerreSum") -> "LaguerreSum":
        if not isinstance(other, LaguerreSum):
            return NotImplemented
        return LaguerreSum._of(other._map.items(), self._map)

    def __sub__(self, other: "LaguerreSum") -> "LaguerreSum":
        if not isinstance(other, LaguerreSum):
            return NotImplemented
        return self + (other * -1.0)

    def __mul__(self, scalar) -> "LaguerreSum":
        if isinstance(scalar, LaguerreSum):
            raise DomainError("products of LaguerreSum objects are not supported; "
                              "evaluate pointwise instead")
        # the keys stay distinct, so each product only gets the 0j + of a merge
        out = object.__new__(LaguerreSum)
        out._map = {key: 0j + v for key, c in self._map.items() if (v := c * scalar) != 0}
        out._derivative = None
        return out

    __rmul__ = __mul__

    def __len__(self) -> int:
        return len(self._map)

    def __repr__(self) -> str:
        return f"LaguerreSum({len(self._map)} terms, real={self.is_real})"
