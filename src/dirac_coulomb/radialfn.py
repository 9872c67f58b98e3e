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

# evaluate_all adds up to this many terms one by one: timed on family-pass sums over 60 and 200
# points, the two ways cross between 16 and 53 terms, where no verify or state op call falls
_TERM_BY_TERM = 16


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
        ((coef r^p) e^{-dr}) L in stored order from zero, one of two ways, with
        the same bits:
        - past _TERM_BY_TERM terms at a 1-D r, if every coefficient and decay is
          real and every product finite, as one float64 product array added one
          term position at a time for all sums (np.sum rounds otherwise): finite
          float products are the complex ones' real parts;
        - otherwise term by term in complex arithmetic, so that a complex batch,
          or a product that overflows, gives what complex arithmetic gives
          (verification.coherent_truncated_sums keeps these bits for each
          degree's one real term)."""
        scalar = np.isscalar(r)
        rv = np.asarray(r, dtype=float)
        index, degrees, lag = {}, {}, {}  # index numbers each distinct key
        term = [index.setdefault(key, len(index)) for f in sums for key in f._map]
        for _, _, n, a, b in index:
            degrees.setdefault((a, b), set()).add(n)
        for (a, b), ns in degrees.items():
            if len(ns) == 1 or min(ns) < 0:  # laguerre runs the same recurrence, and rejects n < 0
                lag.update(((n, a, b), laguerre(n, a, b * rv)) for n in ns)
            else:
                lag.update(((n, a, b), value) for n, value in zip(range(max(ns) + 1), laguerre_sequence(a, b * rv)))
        powers = {p: rv ** p for p in {key[0] for key in index}}
        decays = {d: np.exp(-d * rv) for d in {key[1] for key in index}}
        if (not scalar and rv.ndim == 1 and len(term) > _TERM_BY_TERM and not any(d.imag for d in decays)
                and not (coefs := np.array([c for f in sums for c in f._map.values()])).imag.any()):
            # the product array holds the first terms of all sums, longest sums first, then
            # their second terms, ...: the sums with a j-th term are a prefix
            lens = np.array([len(f) for f in sums])
            row = np.argsort(np.argsort(-lens, kind="stable"))
            position = np.arange(len(term)) - np.repeat(np.cumsum(lens) - lens, lens)
            layout = np.lexsort((np.repeat(row, lens), position))
            counts = np.bincount(position).tolist()
            coefs = coefs.real[layout, None]
            term = np.array(term, dtype=np.intp)[layout]
            rp, ed, lv = (np.array(table) for table in zip(*(
                (powers[p], decays[d].real, lag[n, a, b]) for p, d, n, a, b in index)))
            with np.errstate(over="ignore", invalid="ignore"):  # in place: each new terms x points array page-faults
                prod = rp[term] * coefs
                prod *= ed[term]
                prod *= lv[term]
            if np.isfinite(prod).all():
                out = np.zeros((len(sums), rv.size))
                for count, start in zip(counts, np.cumsum([0, *counts]).tolist()):
                    out[:count] += prod[start:start + count]
                return tuple(out[i] for i in row.tolist())
        rows = []
        for f in sums:
            out = np.zeros(rv.shape, dtype=complex)
            for (p, d, n, a, b), c in f._map.items():
                out += c * powers[p] * decays[d] * lag[n, a, b]
            rows.append(out.real if f.is_real else out)
        return tuple(row.item() if scalar else row for row in rows)

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
