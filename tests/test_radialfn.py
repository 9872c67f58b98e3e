import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dirac_coulomb import LaguerreSum, laguerre


def sample_sum():
    return (LaguerreSum.single(1.3, power=0.87, decay=0.6, degree=3, alpha=2.1, argscale=2.0)
            + LaguerreSum.single(-0.4, power=1.87, decay=0.6, degree=2, alpha=4.1, argscale=2.0))


def dilation_condition(f, theta, r):
    """Relative condition number of f.scaled(theta)(r) in the factor g = e^theta.

    The two sides of the group law round g differently (e^t1 e^t2 against
    e^(t1+t2)), by a few ulps.  A relative change eps of g moves each term
    c g^(p+1) r^p e^(-d g r) L_n^a(x), x = b g r, by eps times
    (p+1) - d g r - x L_(n-1)^(a+1)(x) / L_n^a(x), and the sum by eps times

        kappa = sum_i |env_i| (|L_i| (1 + |p_i+1| + |d_i| g r) + |x_i L_(n_i-1)^(a_i+1)(x_i)|) / |f|,

    the 1 covering the rounding of the products themselves.  kappa grows
    without bound at a node of a Laguerre factor or of the sum."""
    g = math.exp(theta)
    total = 0.0
    for t in f.terms:
        x = t.argscale * g * r
        env = abs(t.coef) * g ** (t.power + 1.0) * r**t.power * math.exp(-t.decay.real * g * r)
        lag = laguerre(t.degree, t.alpha, x)
        slope = x * laguerre(t.degree - 1, t.alpha + 1.0, x) if t.degree else 0.0
        total += env * (abs(lag) * (1.0 + abs(t.power + 1.0) + abs(t.decay) * g * r) + abs(slope))
    return total / abs(f.scaled(theta)(r))


class TestEvaluation:
    def test_matches_direct_formula(self):
        f = LaguerreSum.single(2.0, power=1.5, decay=0.7, degree=2, alpha=1.1, argscale=3.0)
        r = 1.37
        want = 2.0 * r**1.5 * np.exp(-0.7 * r) * laguerre(2, 1.1, 3.0 * r)
        assert f(r) == pytest.approx(want, rel=1e-14)

    def test_complex_decay(self):
        f = LaguerreSum.single(1.0 + 0.5j, power=0.9, decay=0.4 + 0.3j)
        r = 2.0
        want = (1.0 + 0.5j) * r**0.9 * np.exp(-(0.4 + 0.3j) * r)
        assert f(r) == pytest.approx(want, rel=1e-14)
        assert not f.is_real

    def test_vectorized_shape(self):
        r = np.geomspace(0.1, 10, 17)
        assert sample_sum()(r).shape == r.shape


class TestDerivative:
    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.3, max_value=8.0))
    def test_derivative_matches_finite_difference(self, r):
        f = sample_sum()
        h = 1e-6 * max(r, 1.0)
        fd = (f(r + h) - f(r - h)) / (2.0 * h)
        assert f.derivative()(r) == pytest.approx(fd, rel=2e-8, abs=1e-10)

    def test_second_derivative(self):
        f = sample_sum()
        r, h = 1.7, 1e-4
        fd2 = (f(r + h) - 2.0 * f(r) + f(r - h)) / h**2
        assert f.derivative().derivative()(r) == pytest.approx(fd2, rel=1e-6)


class TestAlgebra:
    def test_subtraction_cancels_terms(self):
        f = sample_sum()
        g = f + f * -1.0
        assert len(g) == 0
        assert g(1.3) == 0.0

    def test_a_sum_holds_only_its_terms(self):
        # no cache beside the terms, and no difference: f - g is written f + g * -1.0
        assert LaguerreSum.__slots__ == ("_map",)
        with pytest.raises(TypeError):
            sample_sum() - sample_sum()

    def test_times_power(self):
        f = sample_sum()
        r = 0.9
        assert f.times_power(2)(r) == pytest.approx(r**2 * f(r), rel=1e-14)
        assert f.times_power(-1)(r) == pytest.approx(f(r) / r, rel=1e-14)

    def test_scalar_multiplication(self):
        f = sample_sum()
        assert (2.5 * f)(1.1) == pytest.approx(2.5 * f(1.1), rel=1e-15)


class TestScaling:
    def test_simple_exponential(self):
        f = LaguerreSum.single(1.0, power=0.0, decay=1.0)
        g = f.scaled(np.log(2.0))
        r = 1.234
        assert g(r) == pytest.approx(2.0 * np.exp(-2.0 * r), rel=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=-1.2, max_value=1.2), st.floats(min_value=-1.2, max_value=1.2),
           st.floats(min_value=0.2, max_value=5.0))
    @example(t1=0.15423872228015578, t2=-0.962890625, r=1.34375)  # near a node: 4.4e-13 apart
    def test_group_law(self, t1, t2, r):
        f = sample_sum()
        lhs = f.scaled(t1).scaled(t2)(r)
        rhs = f.scaled(t1 + t2)(r)
        # measured: |lhs - rhs| / |rhs| <= 3.05 u kappa over 2e5 uniform draws; 8 u kappa is
        # below 1e-13 wherever kappa <= 112, and kappa is 12 at the median point
        assert lhs == pytest.approx(rhs, rel=8.0 * 2.0**-53 * dilation_condition(f, t1 + t2, r), abs=1e-300)


def scanned_real(f):
    """is_real found afresh: every coefficient and decay real."""
    return all(c.imag == 0.0 and key[1].imag == 0.0 for key, c in f._map.items())


def test_is_real_matches_a_fresh_scan():
    # each way a sum is built
    real, complex_coef = sample_sum(), sample_sum() * (0.5 - 2j)
    complex_decay = LaguerreSum.single(0.7, power=0.87, decay=0.6 + 0.2j, degree=3, alpha=2.1, argscale=2.0)
    colliding = LaguerreSum.single(1.0, power=1e-17, decay=1.0) + LaguerreSum.single(2.0, power=0.0, decay=1.0)
    sums = [real, complex_coef, complex_decay, colliding, real + real * -1.0]
    for f in list(sums):
        sums += [f.derivative(), f.times_power(1), f.times_power(-0.5), f * -1.0, f * 1j, f.scaled(0.7),
                 f + complex_coef, f + real, complex_coef * 1j * 1j]
    for f in sums:
        assert f.is_real is scanned_real(f)
