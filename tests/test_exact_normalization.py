"""The exact normalization constants A_n and A' against independent integrals.

assemble_spinor and assemble_coherent_spinor sum Gamma-function moments in
log space; here the same norms come from Gauss-Laguerre quadrature of the
assembled functions (order 96, above the degree of the integrands) and, at
high levels, from the moment sum at 40 digits.
"""

import math
from itertools import product

import mpmath as mp
import numpy as np
import pytest

import dirac_coulomb
from dirac_coulomb import Alignment, ProblemParams, derive_constants, quadrature
from dirac_coulomb.coherent import assemble_coherent_spinor
from dirac_coulomb.quadrature import build_rule, integrate_radial
from dirac_coulomb.radial import assemble_spinor, spinor_coefficients
from dirac_coulomb.spectrum import bound_level

RTOL = 1e-13
PROBLEMS = [(dimension, j, alignment, mass)
            for dimension, (j, alignment), mass in product(
                (2, 3, 5), [(0.5, "aligned"), (0.5, "unaligned"), (1.5, "aligned"), (1.5, "unaligned")],
                (1.0, 1e3))]
XIS = (0.3, -0.6, 0.5j, 0.7 * np.exp(2.0j))


def problem(dimension, j, alignment, mass):
    params = ProblemParams(dimension=dimension, j=j, alignment=Alignment(alignment),
                           alpha_v=0.5, alpha_s=0.2, mass=mass)
    return params, derive_constants(params)


@pytest.mark.parametrize("case", PROBLEMS, ids=str)
def test_bound_constant_matches_quadrature(case):
    params, constants = problem(*case)
    rule = build_rule(96, 2.0 * constants.s)
    for n in (1, 2, 5, 12):
        level = bound_level(n, params, constants)
        spinor = assemble_spinor(level, constants)
        norm_sq = integrate_radial(lambda r: spinor.F(r) ** 2 + spinor.G(r) ** 2, level.a, rule)
        a_n = spinor.normalization.quadrature_constant  # |A_n|
        assert a_n == pytest.approx(a_n / math.sqrt(norm_sq), rel=RTOL, abs=0.0)
        # the sign of A_n makes F(r -> 0+) positive: F's term of the lowest power, r^s
        assert min(spinor.F.terms, key=lambda t: t.power).coef.real > 0.0


@pytest.mark.parametrize("case", [(d, 0.5, "aligned", m) for d in (2, 3, 5) for m in (1.0, 1e3)], ids=str)
def test_coherent_constant_matches_quadrature(case):
    params, constants = problem(*case)
    rule = build_rule(96, 2.0 * constants.s)
    for xi in XIS:
        spinor = assemble_coherent_spinor(params, constants, xi)
        decay = (spinor.a_ref * (1.0 + xi) / (1.0 - xi)).real
        norm_sq = integrate_radial(lambda r: np.abs(spinor.F(r)) ** 2 + np.abs(spinor.G(r)) ** 2, decay, rule)
        a_prime = spinor.normalization.quadrature_constant  # |A'|
        assert a_prime == pytest.approx(a_prime / math.sqrt(norm_sq), rel=RTOL, abs=0.0)


def mp_constant(n, a, s, coefficients) -> float:
    """|A_n| from the per-channel moment sum of int (F^2 + G^2) dr, at 40
    digits, straight from the Gamma functions."""
    with mp.workdps(40):
        a, s = mp.mpf(a), mp.mpf(s)
        f1, f2, g1, g2 = (mp.mpf(c) for c in coefficients)
        two_a = 2 * a
        total = 0
        for c_p, c_l in ((f1, f2), (g1, g2)):
            total += (c_p ** 2 * mp.gamma(n + 2 * s) * (2 * n + 2 * s) / (mp.factorial(n) * two_a ** (2 * s + 1))
                      - 4 * c_p * c_l * mp.gamma(n + 2 * s + 1) / (mp.factorial(n - 1) * two_a ** (2 * s + 2))
                      + c_l ** 2 * mp.gamma(n + 2 * s + 1) * (2 * n + 2 * s)
                      / (mp.factorial(n - 1) * two_a ** (2 * s + 3)))
        return float(1 / mp.sqrt(total * two_a ** (2 * s - 2)))


@pytest.mark.parametrize("n", [450, 2000])
def test_bound_constant_at_high_levels(n, default_params, default_constants):
    # assembly once built a rule of order n + 16 <= MAX_ORDER, then 512; n = 2000 is far past that
    level = bound_level(n, default_params, default_constants)
    spinor = assemble_spinor(level, default_constants)
    want = mp_constant(n, level.a, default_constants.s, spinor_coefficients(n, default_constants, level.omega))
    assert spinor.normalization.quadrature_constant == pytest.approx(want, rel=RTOL, abs=0.0)


def test_assembly_builds_no_quadrature_rule(default_params, default_constants, monkeypatch):
    calls = []

    def counted(order, alpha):
        calls.append((order, alpha))
        return build_rule(order, alpha)

    for module in (quadrature, *(getattr(dirac_coulomb, name) for name in ("radial", "coherent"))):
        if hasattr(module, "build_rule"):
            monkeypatch.setattr(module, "build_rule", counted)
    for n in (1, 5, 40):
        assemble_spinor(bound_level(n, default_params, default_constants), default_constants)
    for xi in XIS:
        assemble_coherent_spinor(default_params, default_constants, xi)
    assert calls == []
