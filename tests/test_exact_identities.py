"""Identities of the bound spectrum, proved exactly with sympy.

The verify suite checks the paper numerically at a few problems; these tests
prove its closed forms for every coupling, with symbols alpha_v, alpha_s and
nu = n + s, and tie each symbolic formula to the code at exact instances.
"""

import math

import pytest
import sympy as sp

from dirac_coulomb import Alignment, ProblemParams, derive_constants, spectrum

AV, AS, NU = sp.symbols("alpha_v alpha_s nu", positive=True)
ROOT = sp.sqrt(NU**2 + AV**2 - AS**2)
# the positive-energy branch of a (n + s) = alpha_v E + alpha_s m, as spectrum.py writes E / m
EPSILON = (-AV * AS + NU * ROOT) / (AV**2 + NU**2)


def test_energy_solves_the_quantization_condition():
    # a = sqrt(m^2 - E^2), squared: (1 - eps^2) nu^2 = (alpha_v eps + alpha_s)^2
    assert sp.simplify((1 - EPSILON**2) * NU**2 - (AV * EPSILON + AS) ** 2) == 0


def test_binding_fraction_needs_no_subtraction():
    # (1 - eps) ((alpha_v^2 + nu^2 + alpha_v alpha_s) + nu sqrt(disc)) = (alpha_v + alpha_s)^2, so the
    # binding fraction 1 - E/m is a quotient of sums: it keeps its digits at weak coupling
    rationalizer = (AV**2 + NU**2 + AV * AS) + NU * ROOT
    assert sp.simplify((1 - EPSILON) * rationalizer - (AV + AS) ** 2) == 0


@pytest.mark.parametrize("alpha_v, alpha_s, n", [(0.5, 0.2, 1), (0.5, 0.0, 3), (0.7, 0.3, 2), (0.05, 0.01, 5)])
def test_code_evaluates_the_proved_formula(alpha_v, alpha_s, n):
    params = ProblemParams(dimension=3, j=0.5, alignment=Alignment.ALIGNED, alpha_v=alpha_v, alpha_s=alpha_s,
                           mass=1.0)
    constants = derive_constants(params)
    exact = EPSILON.subs({AV: sp.Rational(alpha_v), AS: sp.Rational(alpha_s), NU: n + sp.Rational(constants.s)})
    got = spectrum.energy(n, constants, params)
    assert abs(got - float(exact.evalf(40))) <= 4 * math.ulp(got)
