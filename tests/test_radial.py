import math
from dataclasses import replace

import numpy as np
import pytest

from dirac_coulomb import (
    Alignment,
    DomainError,
    NoBoundState,
    ProblemParams,
    assemble_spinor,
    bound_level,
    build_rule,
    derive_constants,
    integrate_radial,
    log_gamma,
    ode_residual_first_order,
    ode_residual_second_order,
    physical_components,
    spinor_coefficients,
    sturmian,
)
from reference import second_order_residual


def sign_changes(values):
    signs = np.sign(values)
    signs = signs[signs != 0]
    return int(np.sum(signs[1:] != signs[:-1]))


class TestSturmian:
    def test_lowest_v_closed_form(self):
        s = 0.866
        f = sturmian("v", 1, s)
        r = 1.234
        want = 2.0 / math.sqrt(math.exp(log_gamma(2.0 * s + 2.0))) * (2.0 * r) ** s * math.exp(-r)
        assert f(r) == pytest.approx(want, rel=1e-14)

    def test_unit_norm_under_r_dr(self):
        # Gauss-Laguerre quadrature oracle; the r dr measure follows from
        # standard Laguerre orthogonality
        s = 0.866
        f = sturmian("v", 3, s)
        rule = build_rule(48, 2.0 * s + 1.0)
        val = integrate_radial(lambda r: f(r) ** 2 * r, 1.0, rule)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_cross_norm_vanishes(self):
        s = 0.866
        f2, f3 = sturmian("v", 2, s), sturmian("v", 3, s)
        rule = build_rule(48, 2.0 * s + 1.0)
        val = integrate_radial(lambda r: f2(r) * f3(r) * r, 1.0, rule)
        assert abs(val) < 1e-10

    @pytest.mark.parametrize("s", [0.6, 0.866, 1.5, 2.2])
    @pytest.mark.parametrize("channel", ["u", "v"])
    def test_gram_matrix_is_identity(self, channel, s):
        start = 0 if channel == "u" else 1
        fns = [sturmian(channel, n, s) for n in range(start, start + 12)]
        alpha = 2.0 * s - 1.0 if channel == "u" else 2.0 * s + 1.0
        rule = build_rule(64, alpha)
        for i, fi in enumerate(fns):
            for j in range(i, len(fns)):
                val = integrate_radial(lambda r: fi(r) * fns[j](r) * r, 1.0, rule)
                assert abs(val - (1.0 if i == j else 0.0)) < 1e-10

    def test_invalid_arguments(self):
        with pytest.raises(DomainError):
            sturmian("v", 0, 0.9)
        with pytest.raises(DomainError):
            sturmian("u", -1, 0.9)
        with pytest.raises(DomainError):
            sturmian("w", 1, 0.9)
        with pytest.raises(DomainError):
            sturmian("v", 1, 0.0)


class TestApplyScaling:
    """The dilation e^{i theta A2}: f(r) -> e^theta f(e^theta r), as LaguerreSum.scaled."""

    def test_identity_at_zero(self):
        f = sturmian("v", 2, 0.9)
        g = f.scaled(0.0)
        r = np.geomspace(0.1, 10, 9)
        assert np.allclose(g(r), f(r), rtol=1e-15)

    def test_exponential_example(self):
        # a Laguerre-bearing term: the argument scale dilates with the envelope
        f = sturmian("v", 3, 0.9)
        g = f.scaled(math.log(2.0))
        for r in (0.2, 0.873, 3.1):
            assert g(r) == pytest.approx(2.0 * f(2.0 * r), rel=1e-13)


class TestPhysicalComponents:
    def test_v_nodeless_for_n1(self, default_params, default_constants):
        level = bound_level(1, default_params, default_constants)
        _, v_t = physical_components(level, default_constants)
        grid = np.geomspace(1e-2 / level.a, 40.0 / level.a, 300)
        assert sign_changes(v_t(grid)) == 0

    def test_v_has_two_interior_zeros_for_n3(self, default_params, default_constants):
        # zero count of the degree-2 Laguerre factor by sign-change scan
        level = bound_level(3, default_params, default_constants)
        _, v_t = physical_components(level, default_constants)
        grid = np.geomspace(1e-2 / level.a, 40.0 / level.a, 2000)
        assert sign_changes(v_t(grid)) == 2

    def test_components_solve_their_equations(self, default_params, default_constants):
        level = bound_level(2, default_params, default_constants)
        u_t, v_t = physical_components(level, default_constants)
        assert max(ode_residual_second_order(v_t, level, default_constants)[0]) < 1e-8
        assert max(second_order_residual(u_t, level, default_constants, "u")) < 1e-8


class TestCoefficientRatio:
    def test_substitute_and_check_oracle(self, default_params, default_constants):
        # the r->0 relation: B 2a(s+1) L(0) = -B 2as L(0) + omega A L(0),
        # with B/A = omega s / (a n (n+2s)) and L_n^a(0) = Gamma(n+a+1)/(n! Gamma(a+1))
        c = default_constants
        level = bound_level(1, default_params, c)
        s, a, n = c.s, level.a, level.n
        b_over_a = level.omega * s / (a * n * (n + 2.0 * s))

        def at_zero(n, alpha):
            return math.exp(log_gamma(n + alpha + 1.0) - log_gamma(n + 1.0) - log_gamma(alpha + 1.0))

        lhs = b_over_a * 2.0 * a * (s + 1.0) * at_zero(n - 1, 2.0 * s + 1.0)
        rhs = (-b_over_a * 2.0 * a * s * at_zero(n - 1, 2.0 * s + 1.0)
               + level.omega * at_zero(n, 2.0 * s - 1.0))
        assert abs(lhs - rhs) < 1e-11


class TestAssembleSpinor:
    def test_free_degenerate_case_is_flagged(self):
        # at zero coupling E -> m and a -> 0: no normalizable spinor
        p = ProblemParams(3, 0.5, Alignment.ALIGNED, 1e-12, 1e-12, 1.0)
        c = derive_constants(p)
        with pytest.raises(NoBoundState):
            bound_level(1, p, c)
        # the coefficient structure of the degenerate case: omega = 0
        # leaves F proportional to (s - kappa) and G identically zero
        f1, f2, g1, g2 = spinor_coefficients(1, c, 0.0)
        assert f1 == c.s - c.kappa
        assert f2 == 0.0 and g2 == 0.0
        assert g1 == pytest.approx(0.0, abs=1e-11)

    def test_normalization_sommerfeld_case(self):
        p = ProblemParams(3, 0.5, Alignment.ALIGNED, 0.5, 0.0, 1.0)
        c = derive_constants(p)
        spinor = assemble_spinor(bound_level(1, p, c), c)
        rule = build_rule(48, 2.0 * c.s)
        total = integrate_radial(lambda r: spinor.F(r) ** 2 + spinor.G(r) ** 2,
                                 spinor.level.a, rule)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_norm_across_levels_and_couplings(self, default_params):
        for alpha_s in (0.0, 0.2):
            p = replace(default_params, alpha_s=alpha_s)
            c = derive_constants(p)
            for n in (1, 4, 8):
                spinor = assemble_spinor(bound_level(n, p, c), c)
                rule = build_rule(64, 2.0 * c.s)
                total = integrate_radial(lambda r: spinor.F(r) ** 2 + spinor.G(r) ** 2,
                                         spinor.level.a, rule)
                assert total == pytest.approx(1.0, abs=1e-8)

    def test_comparison_is_reported_not_asserted(self, default_params, default_constants):
        spinor = assemble_spinor(bound_level(1, default_params, default_constants), default_constants)
        comp = spinor.normalization
        assert comp.quadrature_constant > 0.0
        assert comp.closed_form is not None
        assert comp.ratio is not None  # recorded, whatever its value

    def test_phase_convention_small_r_positive(self):
        # F(r -> 0+) > 0 for both kappa signs
        for alignment in (Alignment.ALIGNED, Alignment.UNALIGNED):
            p = ProblemParams(3, 0.5, alignment, 0.5, 0.2, 1.0)
            c = derive_constants(p)
            spinor = assemble_spinor(bound_level(1, p, c), c)
            f, _ = spinor(1e-6)
            assert f > 0.0

    def test_evaluator_returns_pair(self, default_params, default_constants):
        spinor = assemble_spinor(bound_level(2, default_params, default_constants), default_constants)
        f, g = spinor(1.5)
        assert isinstance(f, float) and isinstance(g, float)


class TestOdeResiduals:
    def test_exact_spinor_first_order(self, default_params, default_constants):
        spinor = assemble_spinor(bound_level(1, default_params, default_constants), default_constants)
        residuals, context = ode_residual_first_order(spinor)
        assert max(residuals) < 1e-8
        assert context == {"n": 1, "points": 400, "perturb_F": 1.0}

    def test_perturbed_spinor_fails(self, default_params, default_constants):
        spinor = assemble_spinor(bound_level(1, default_params, default_constants), default_constants)
        residuals, context = ode_residual_first_order(spinor, perturb_F=1.01)
        assert max(residuals) > 1e-3
        assert context["perturb_F"] == 1.01

    def test_classic_dirac_coulomb_reduction(self):
        # alpha_s = 0, D = 3: the textbook system
        p = ProblemParams(3, 0.5, Alignment.ALIGNED, 0.5, 0.0, 1.0)
        c = derive_constants(p)
        for n in (1, 3):
            spinor = assemble_spinor(bound_level(n, p, c), c)
            assert max(ode_residual_first_order(spinor)[0]) < 1e-8

    def test_second_order_exact(self, default_params, default_constants):
        for n in (1, 4):
            level = bound_level(n, default_params, default_constants)
            _, v_t = physical_components(level, default_constants)
            residuals, context = ode_residual_second_order(v_t, level, default_constants)
            assert max(residuals) < 1e-7
            assert context == {"n": n, "channel": "v", "points": 400}

    def test_second_order_wrong_energy(self, default_params, default_constants):
        level = bound_level(1, default_params, default_constants)
        _, v_t = physical_components(level, default_constants)
        detuned = replace(level, energy=level.energy + 0.01 * default_params.mass)
        assert max(ode_residual_second_order(v_t, detuned, default_constants)[0]) > 1e-3


class TestRandomizedPipeline:
    """Random valid problem instances through the whole chain: constants,
    spectrum, assembly, normalization and the first-order oracle."""

    from hypothesis import given, settings, strategies as st

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=2),
        st.booleans(),
        st.floats(min_value=0.05, max_value=0.85),
        st.floats(min_value=0.0, max_value=0.5),
        st.integers(min_value=1, max_value=6),
    )
    def test_spinor_chain(self, dim, half_steps, aligned, alpha_v, alpha_s, n):
        j = 0.5 + half_steps
        alignment = Alignment.ALIGNED if aligned else Alignment.UNALIGNED
        p = ProblemParams(dim, j, alignment, alpha_v, alpha_s, 1.0)
        kap = (j + (dim - 2) / 2.0) * (-1.0 if aligned else 1.0)
        if kap * kap <= alpha_v**2 - alpha_s**2 + 1e-3:
            return
        s_val = math.sqrt(kap * kap - alpha_v**2 + alpha_s**2)
        if abs(s_val - kap) < 1e-3:
            return  # s = kappa: the decoupling transform is genuinely singular
        c = derive_constants(p)
        level = bound_level(n, p, c)
        assert 0.0 < level.energy < p.mass
        spinor = assemble_spinor(level, c)
        rule = build_rule(max(48, n + 24), 2.0 * c.s)
        total = integrate_radial(lambda r: spinor.F(r) ** 2 + spinor.G(r) ** 2, level.a, rule)
        assert abs(total - 1.0) < 1e-8
        assert max(ode_residual_first_order(spinor)[0]) < 1e-8
