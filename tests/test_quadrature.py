import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import roots_genlaguerre

from dirac_coulomb import (
    ConvergenceFailure,
    DomainError,
    build_rule,
    integrate_radial,
    log_gamma,
)
from dirac_coulomb import cli, quadrature, verification
from dirac_coulomb.quadrature import build_rules


class TestBuildRule:
    def test_single_node(self):
        rule = build_rule(1, 0.0)
        assert rule.nodes[0] == pytest.approx(1.0, rel=1e-14)
        assert math.exp(rule.log_weights[0]) == pytest.approx(1.0, rel=1e-14)

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
        assert np.max(np.abs(np.exp(rule.log_weights) - w) / w) < 1e-11

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=40), st.floats(min_value=-0.5, max_value=6.0))
    def test_polynomial_exactness(self, order, alpha):
        rule = build_rule(order, alpha)
        for k in (1, order, 2 * order - 1):
            want = math.exp(log_gamma(alpha + k + 1.0))
            assert rule.integrate_moment(k) == pytest.approx(want, rel=1e-11)

    def test_large_order_stays_finite(self):
        for alpha in (2.2, 40.0, 1e3, 1e4):
            rule = build_rule(128, alpha)
            assert np.all(np.diff(rule.nodes) > 0.0)
            assert np.all(np.isfinite(rule.log_weights))
            # the zeroth moment Gamma(alpha + 1), in log space past alpha ~ 170
            total = np.logaddexp.reduce(rule.log_weights)
            assert total == pytest.approx(log_gamma(alpha + 1.0), rel=1e-14, abs=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            build_rule(0, 0.0)
        with pytest.raises(DomainError):
            build_rule(129, 0.0)
        with pytest.raises(DomainError):
            build_rule(8, -1.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_alpha_is_a_domain_error(self, alpha):
        with pytest.raises(DomainError, match="finite alpha"):
            build_rule(48, alpha)
        with pytest.raises(DomainError, match="finite alpha"):
            build_rules([(16, 0.0), (48, alpha)])

    def test_a_key_that_fails_to_converge_is_named(self, monkeypatch):
        # the rows of one alpha read nan Laguerre values, so their Newton steps never settle;
        # the other rows of the batch converge
        original = quadrature.laguerre_sequence

        def poisoned(alpha, x):
            for values in original(alpha, x):
                yield np.where(np.asarray(alpha) == 2.6, np.nan, values)

        monkeypatch.setattr(quadrature, "laguerre_sequence", poisoned)
        with pytest.raises(ConvergenceFailure, match=r"\(N=32, alpha=2\.6\) did not converge"):
            build_rules([(16, 0.0), (32, 2.6), (48, 0.8)])


def scaled_top(n, alpha, x):
    """(L_{n-1}, L_n, logscale) by the three-term recurrence with per-element
    rescaling: the true values are the returned ones times exp(logscale).  This
    is the evaluator build_rule ran on before it took laguerre_sequence."""
    prev = np.ones_like(x)
    logs = np.zeros_like(x)
    if n == 0:
        return np.zeros_like(x), prev, logs
    cur = 1.0 + alpha - x
    for k in range(1, n):
        prev, cur = cur, ((2.0 * k + 1.0 + alpha - x) * cur - (k + alpha) * prev) / (k + 1.0)
        big = np.abs(cur) > 1e250
        if np.any(big):
            prev = np.where(big, prev * 1e-250, prev)
            cur = np.where(big, cur * 1e-250, cur)
            logs = np.where(big, logs + 250.0 * np.log(10.0), logs)
    return prev, cur, logs


def reference_rule(n, alpha):
    """(nodes, log_weights) of build_rule's algorithm on scaled_top."""
    diag = 2.0 * np.arange(n) + alpha + 1.0
    off = np.sqrt(np.arange(1, n) * (np.arange(1, n) + alpha))
    x = np.sort(np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)))
    x = np.clip(x, np.finfo(float).tiny, None)
    best, stalled = math.inf, 0
    for _ in range(100):
        lprev, lcur, _ = scaled_top(n, alpha, x)
        step = lcur / ((n * lcur - (n + alpha) * lprev) / x)
        x = x - step
        resid = float(np.max(np.abs(step) / (1.0 + np.abs(x))))
        if resid < 1e-14:
            break
        if resid < 1e-11:
            stalled = stalled + 1 if resid >= 0.7 * best else 0
            if stalled >= 3:
                break
        best = min(best, resid)
    _, ltop, logs = scaled_top(n + 1, alpha, x)
    log_w = (math.lgamma(n + alpha + 1.0) - math.lgamma(n + 1.0) - 2.0 * math.log(n + 1.0)
             + np.log(x) - 2.0 * (np.log(np.abs(ltop)) + logs))
    return x, log_w


def assert_matches_reference(order, alpha):
    rule = build_rule(order, alpha)
    nodes, log_weights = reference_rule(order, alpha)
    assert np.array_equal(rule.nodes, nodes), (order, alpha)
    assert np.array_equal(rule.log_weights, log_weights), (order, alpha)


def assert_batch_matches_reference(keys):
    """build_rules(keys) gives each key the bits of the single-key algorithm."""
    for (order, alpha), rule in zip(keys, build_rules(keys), strict=True):
        nodes, log_weights = reference_rule(order, alpha)
        assert np.array_equal(rule.nodes, nodes), (order, alpha)
        assert np.array_equal(rule.log_weights, log_weights), (order, alpha)


def verify_batches(argv, monkeypatch):
    """The keys of each build_rules call of one verify run (build_rule calls build_rules)."""
    batches, build = [], quadrature.build_rules
    for module in (quadrature, verification):
        monkeypatch.setattr(module, "build_rules", lambda keys: batches.append(list(keys)) or build(batches[-1]))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    monkeypatch.undo()
    return batches


class TestBitIdentityWithScaledRecurrence:
    """build_rule and build_rules on the plain recurrence give the scaled recurrence's rules bit for bit."""

    def test_every_rule_of_a_default_verify(self, monkeypatch):
        batches = verify_batches(["verify"], monkeypatch)
        assert len({key for keys in batches for key in keys}) == 25
        for keys in batches:
            assert_batch_matches_reference(keys)

    def test_every_rule_of_the_unaligned_d5_verify(self, monkeypatch):
        batches = verify_batches(["verify", "--dimension", "5", "--j", "1.5", "--unaligned", "--alpha-v", "0.7",
                                  "--alpha-s", "0.3", "--mass", "1e-3"], monkeypatch)
        assert len({key for keys in batches for key in keys}) == 25
        for keys in batches:
            assert_batch_matches_reference(keys)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_mixed_orders_and_edge_keys_in_one_batch(self, reverse):
        # orders 1 and 128 and the stall cases alpha near -1 and 1e4, among ordinary keys
        keys = [(1, -0.9999), (128, 1e4), (16, 0.0), (128, -0.9999), (1, 1e4), (48, 0.8), (3, 2.6),
                (127, 40.0), (32, 2.6), (128, 0.0)]
        assert_batch_matches_reference(keys[::-1] if reverse else keys)

    @pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 0.8, 2.6, 40.0, 1e3, 1e4])
    def test_order_alpha_grid(self, alpha):
        for order in (1, 2, 3, 16, 33, 48, 64, 96, 127, 128):
            assert_matches_reference(order, alpha)


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

    def test_a_real_integrand_gives_a_real_numpy_scalar(self):
        val = integrate_radial(lambda r: np.exp(-2.0 * r), 1.0, build_rule(16, 0.0))
        assert type(val) is np.float64

    def test_a_complex_integrand_stays_complex(self):
        # also where its imaginary part cancels: a caller takes the real part it needs
        rule = build_rule(16, 0.0)
        for coef in (1.0 + 0j, 1.0 - 2.0j):
            val = integrate_radial(lambda r: coef * np.exp(-2.0 * r), 1.0, rule)
            assert type(val) is np.complex128
            assert val == pytest.approx(0.5 * coef, abs=1e-13)

    def test_a_2d_integrand_gives_one_total_per_row(self):
        rule = build_rule(24, 1.0)
        powers = (1.0, 2.0, 3.0)
        totals = integrate_radial(lambda r: np.array([r**p * np.exp(-2.0 * r) for p in powers]), 1.0, rule)
        assert totals.shape == (3,) and totals.dtype == np.float64
        for total, p in zip(totals, powers):  # each row as if alone
            assert total == integrate_radial(lambda r: r**p * np.exp(-2.0 * r), 1.0, rule)
            assert total == pytest.approx(math.gamma(p + 1.0) / 2.0 ** (p + 1.0), rel=1e-13)

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
