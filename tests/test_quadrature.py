import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import roots_genlaguerre

from dirac_coulomb import (
    DomainError,
    build_rule,
    integrate_radial,
    log_gamma,
)


class TestBuildRule:
    def test_single_node(self):
        rule = build_rule(1, 0.0)
        assert rule.nodes[0] == pytest.approx(1.0, rel=1e-14)
        assert rule.weights[0] == pytest.approx(1.0, rel=1e-14)

    def test_cubic_moment(self):
        rule = build_rule(16, 0.0)
        assert rule.integrate_moment(3) == pytest.approx(6.0, abs=1e-13)

    def test_generalized_moment(self):
        rule = build_rule(32, 2.6)
        want = math.exp(log_gamma(8.6))
        assert rule.integrate_moment(5) == pytest.approx(want, rel=1e-12)

    def test_against_scipy(self):
        rule = build_rule(24, 1.3)
        x, w = roots_genlaguerre(24, 1.3)
        assert np.max(np.abs(rule.nodes - x) / x) < 1e-12
        assert np.max(np.abs(rule.weights - w) / w) < 1e-11

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=40), st.floats(min_value=-0.5, max_value=6.0))
    def test_polynomial_exactness(self, order, alpha):
        rule = build_rule(order, alpha)
        for k in (1, order, 2 * order - 1):
            want = math.exp(log_gamma(alpha + k + 1.0))
            assert rule.integrate_moment(k) == pytest.approx(want, rel=1e-11)

    def test_large_order_stays_finite(self):
        rule = build_rule(512, 2.2)
        assert np.all(np.diff(rule.nodes) > 0.0)
        assert np.all(np.isfinite(rule.log_weights))
        assert rule.integrate_moment(0) == pytest.approx(math.exp(log_gamma(3.2)), rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            build_rule(0, 0.0)
        with pytest.raises(DomainError):
            build_rule(513, 0.0)
        with pytest.raises(DomainError):
            build_rule(8, -1.0)


def quad_half_line(f):
    """Independent oracle: QUADPACK on (0, inf) for a real integrand."""
    return quad(lambda r: float(f(r)), 0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)[0]


class TestIntegrateRadial:
    def test_exponential(self):
        rule = build_rule(16, 0.0)
        val = integrate_radial(lambda r: np.exp(-2.0 * r), 1.0, rule)
        assert val == pytest.approx(0.5, abs=1e-13)

    def test_gamma_integral(self):
        rule = build_rule(16, 2.0)
        val = integrate_radial(lambda r: r**2 * np.exp(-2.0 * r), 1.0, rule)
        assert val == pytest.approx(0.25, rel=1e-12)

    def test_cross_check_agreement(self):
        rule = build_rule(24, 1.5)
        val = integrate_radial(lambda r: r**1.5 * np.exp(-2.0 * r) * (1.0 + r), 1.0, rule)
        want = math.exp(log_gamma(2.5)) / 2**2.5 + math.exp(log_gamma(3.5)) / 2**3.5
        assert val == pytest.approx(want, rel=1e-11)

    def test_agreement_on_spinor_density(self, default_params, default_constants):
        # shipped integrand: Gauss-Laguerre vs QUADPACK
        from dirac_coulomb import assemble_spinor, bound_level

        level = bound_level(2, default_params, default_constants)
        spinor = assemble_spinor(level, default_constants)
        dens = lambda r: spinor.F(r) ** 2 + spinor.G(r) ** 2
        rule = build_rule(48, 2.0 * default_constants.s)
        gl = integrate_radial(dens, level.a, rule)
        assert abs(gl - quad_half_line(dens)) < 1e-9


class TestAdaptiveAgreementOnShippedIntegrands:
    def test_coherent_norm_density(self, default_params, default_constants):
        from dirac_coulomb import assemble_coherent_spinor

        c = default_constants
        xi = 0.4
        spinor = assemble_coherent_spinor(default_params, c, xi)
        decay = spinor.a_ref * (1.0 + xi) / (1.0 - xi)
        dens = lambda r: np.abs(spinor.F(r)) ** 2 + np.abs(spinor.G(r)) ** 2
        rule = build_rule(48, 2.0 * c.s)
        gl = integrate_radial(dens, decay, rule)
        assert abs(gl - quad_half_line(dens)) < 1e-9

    def test_sturmian_gram_product(self):
        from dirac_coulomb import sturmian

        s = 0.866
        f2, f4 = sturmian("v", 2, s), sturmian("v", 4, s)
        prod = lambda r: f2(r) * f4(r) * r
        rule = build_rule(48, 2.0 * s + 1.0)
        gl = integrate_radial(prod, 1.0, rule)
        assert abs(gl - quad_half_line(prod)) < 1e-9
