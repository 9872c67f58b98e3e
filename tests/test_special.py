import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_genlaguerre

from dirac_coulomb import (
    DomainError,
    LaguerreSum,
    laguerre,
    laguerre_generating_closed,
    log_gamma,
)
from dirac_coulomb.special import log_gamma_ratio
from dirac_coulomb.verification import generating_reference_sum


class TestLaguerre:
    def test_degree_zero(self):
        assert laguerre(0, 1.7, 3.2) == 1.0

    def test_degree_one(self):
        assert laguerre(1, 1.7, 3.2) == pytest.approx(1.0 + 1.7 - 3.2, abs=1e-15)

    def test_zero_argument_gamma_formula(self):
        # L_n^a(0) = Gamma(n+a+1)/(n! Gamma(a+1))
        want = math.exp(log_gamma(7.6) - log_gamma(5.0) - log_gamma(3.6))
        assert laguerre(4, 2.6, 0.0) == pytest.approx(want, rel=1e-13)

    def test_rejects_bad_order_and_degree(self):
        with pytest.raises(DomainError):
            laguerre(3, -1.0, 0.5)
        with pytest.raises(DomainError):
            laguerre(-1, 0.5, 0.5)

    def test_vectorized(self):
        x = np.linspace(0.0, 10.0, 7)
        vals = laguerre(3, 0.8, x)
        assert vals.shape == x.shape
        assert vals[0] == pytest.approx(laguerre(3, 0.8, 0.0), rel=1e-14)

    def test_against_scipy(self):
        for n in (0, 1, 2, 5, 12, 30):
            for alpha in (0.0, 0.5, 2.777):
                for x in (0.0, 0.3, 4.0, 17.5):
                    assert laguerre(n, alpha, x) == pytest.approx(
                        float(eval_genlaguerre(n, alpha, x)), rel=1e-10, abs=1e-10)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=20),
           st.floats(min_value=1e-3, max_value=10.0),
           st.floats(min_value=0.0, max_value=80.0))
    def test_recurrence_matches_explicit_sum(self, n, alpha, x):
        # oracle: the explicit finite sum evaluated at 50 digits
        with mp.workdps(50):
            total = mp.mpf(0)
            for k in range(n + 1):
                binom = mp.gamma(n + alpha + 1) / (mp.gamma(n - k + 1) * mp.gamma(alpha + k + 1))
                total += (-1) ** k * binom * mp.mpf(x) ** k / mp.factorial(k)
            exact = float(total)
            envelope = float(sum(
                mp.gamma(n + alpha + 1) / (mp.gamma(n - k + 1) * mp.gamma(alpha + k + 1))
                * mp.mpf(x) ** k / mp.factorial(k) for k in range(n + 1)))
        got = laguerre(n, alpha, x)
        # guarded relative: near zeros the conditioning scale is the term envelope
        tol = 1e-9 * max(abs(exact), 1e-3 * envelope)
        assert abs(got - exact) <= tol

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=50), st.floats(min_value=1e-6, max_value=12.0))
    def test_zero_argument_identity_property(self, n, alpha):
        # L_n^a(0) = Gamma(n+a+1)/(n! Gamma(a+1))
        want = math.exp(log_gamma(n + alpha + 1.0) - log_gamma(n + 1.0) - log_gamma(alpha + 1.0))
        assert laguerre(n, alpha, 0.0) == pytest.approx(want, rel=1e-12)


class TestLaguerreDerivative:
    """d/dx L_n^alpha = -L_{n-1}^{alpha+1}, as carried by LaguerreSum.derivative."""

    @staticmethod
    def derivative(n, alpha, x):
        return LaguerreSum.single(1.0, power=0.0, decay=0.0, degree=n, alpha=alpha).derivative()(x)

    def test_degree_zero_is_flat(self):
        assert self.derivative(0, 3.3, 2.0) == 0.0

    def test_degree_one_slope(self):
        assert self.derivative(1, 2.0, 1.5) == -1.0

    def test_finite_difference_oracle(self):
        # central difference, step 1e-5
        n, alpha, x, h = 3, 1.3, 0.7, 1e-5
        fd = (laguerre(n, alpha, x + h) - laguerre(n, alpha, x - h)) / (2.0 * h)
        assert self.derivative(n, alpha, x) == pytest.approx(fd, abs=1e-8)


class TestLogGamma:
    def test_at_one(self):
        assert log_gamma(1.0) == 0.0

    def test_at_half(self):
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-15)

    def test_recursion_oracle(self):
        # Gamma(x) = (x-1) Gamma(x-1) chained down to the base interval
        x = 7.3
        chained = log_gamma(x - 6.0)
        for k in range(6):
            chained += math.log(x - 1.0 - k)
        assert log_gamma(x) == pytest.approx(chained, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-2.5)

    def test_gamma_ratio(self):
        # ratios are formed in log space: Gamma(5)/Gamma(3) = 12
        assert math.exp(log_gamma(5.0) - log_gamma(3.0)) == pytest.approx(12.0, rel=1e-13)

    @pytest.mark.parametrize("x", [1.0, 2.0, 9.99, 10.0, 12.0, 451.0, 2001.0, 1e9])
    @pytest.mark.parametrize("d", [-0.999, -0.5, 0.0, 0.94, 1.7, 40.0])
    def test_log_gamma_ratio_against_mpmath(self, x, d):
        # to a few ulps of max(1, |result|) on both sides of the switch to Stirling at x = 10,
        # where a difference of two log_gamma values would lose up to 2e-13 at x = 2000
        with mp.workdps(40):
            want = float(mp.loggamma(mp.mpf(x) + d) - mp.loggamma(x))
        assert log_gamma_ratio(x, d) == pytest.approx(want, rel=4e-15, abs=4e-15)


class TestGeneratingFunction:
    def test_y_zero(self):
        assert laguerre_generating_closed(2.4, 0.0, 5.0) == 1.0 + 0.0j

    def test_real_y_truncated_sum_oracle(self):
        closed = laguerre_generating_closed(1.5, 0.4, 2.0)
        (reference,) = generating_reference_sum(1.5, [0.4], 2.0)
        assert abs(closed - reference) <= 1e-12 * abs(reference)

    def test_complex_y_truncated_sum_oracle(self):
        y = 0.3 + 0.2j
        closed = laguerre_generating_closed(3.0, y, 1.0)
        (reference,) = generating_reference_sum(3.0, [y], 1.0)
        assert abs(closed - reference) <= 1e-10 * abs(reference)

    def test_identity_across_grid(self):
        # |y| <= 0.7, moderate x: closed form vs partial sums within 1e-10
        ys = [0.3, -0.3, 0.55, -0.55, 0.7, 0.3 + 0.2j, 0.7 * np.exp(2j * np.pi / 3)]
        for nu in (1.5, 2.4, 3.0):
            for x in (0.5, 1.0, 2.0):
                for y, reference in zip(ys, generating_reference_sum(nu, ys, x)):
                    closed = laguerre_generating_closed(nu, y, x)
                    assert abs(closed - reference) <= 1e-10 * max(abs(reference), 1e-30)

    def test_domain(self):
        with pytest.raises(DomainError):
            laguerre_generating_closed(1.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            laguerre_generating_closed(1.0, 0.8 + 0.7j, 2.0)
