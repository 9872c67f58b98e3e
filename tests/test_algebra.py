import math
from collections import Counter

import numpy as np
import pytest

from dirac_coulomb import algebra, verification
from dirac_coulomb import (
    DomainError,
    LaguerreSum,
    OperatorKind,
    RadialOperator,
    a0_eigenvalue_residual,
    apply_operator,
    casimir_residual,
    channel_realization,
    ladder_matrix_elements,
    run_suite,
    scaling_identity_residual,
    sturmian,
    su11_commutator_report,
)

GRID = np.geomspace(0.05, 30.0, 80)


def sturmian_family(s, channel="v", count=6):
    start = 0 if channel == "u" else 1
    return [sturmian(channel, n, s) for n in range(start, start + count)]


class TestApplyOperator:
    def test_a2_on_exponential(self):
        # A2 e^-r = -i r (d/dr + 1/r) e^-r = -i (-r e^-r + e^-r)
        f = LaguerreSum.single(1.0, power=0.0, decay=1.0)
        op = RadialOperator(OperatorKind.A2, 0.9)
        for r in (0.3, 1.0, 4.2):
            want = -1.0j * (-r * math.exp(-r) + math.exp(-r))
            assert apply_operator(op, f, r) == pytest.approx(want, rel=1e-13)

    def test_pr2_annihilates_inverse_r(self):
        f = LaguerreSum.single(1.0, power=-1.0, decay=0.0)
        op = RadialOperator(OperatorKind.PR2, 0.9)
        for r in (0.5, 2.0, 9.0):
            assert abs(apply_operator(op, f, r)) < 1e-12

    def test_a0_eigenrelation_on_sturmians(self):
        s = 0.866
        f = sturmian("v", 2, s)
        op = RadialOperator(OperatorKind.A0, s)
        r = np.geomspace(0.1, 20.0, 40)
        got = apply_operator(op, f, r)
        want = (2 + s) * f(r)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-9

    def test_rejects_nonpositive_radius(self):
        f = LaguerreSum.single(1.0, power=0.0, decay=1.0)
        with pytest.raises(DomainError):
            apply_operator(RadialOperator(OperatorKind.A0, 1.0), f, 0.0)

    def test_rejects_plain_callables(self):
        # only closed forms have exact operator images
        f_raw = lambda r: r**1.3 * np.exp(-0.8 * r)
        with pytest.raises(DomainError):
            apply_operator(RadialOperator(OperatorKind.A0, 1.2), f_raw, 0.7)


class TestCommutators:
    @pytest.mark.parametrize("s", [0.6, 0.866, 1.5, 2.2])
    def test_su11_relations_hold(self, s):
        for channel in ("u", "v"):
            sigma = channel_realization(channel, s)
            reports = su11_commutator_report(sigma, sturmian_family(s, channel), GRID)
            for rep in reports:
                assert rep.residual_max < 1e-8, rep.name

    def test_wrong_realization_fails(self):
        s = 0.866
        reports = su11_commutator_report(s, sturmian_family(s), GRID, fault_centrifugal=s * s)
        assert max(rep.residual_max for rep in reports) > 1e-2


class TestVerifyCommutatorChecks:
    def test_each_relation_runs_once_per_family(self, default_params, monkeypatch):
        calls = Counter()
        original = algebra.commutator_residual

        def counted(*args, **kwargs):
            report = original(*args, **kwargs)
            calls[report.name] += 1
            return report

        for module in (algebra, verification):
            monkeypatch.setattr(module, "commutator_residual", counted)
        run_suite(default_params)
        # 5 s-values (the acceptance grid plus the problem's own) x 2 channels
        assert calls == {name: 10 for name in algebra.SU11_RELATIONS}


class TestLadder:
    def test_lowest_state_annihilated(self):
        _, down = ladder_matrix_elements("v", 1, 0.866)
        assert abs(down) < 1e-10

    def test_coefficients_match_representation_theory(self):
        s = 0.866
        k = s + 1.0
        up, down = ladder_matrix_elements("v", 2, s)
        ng = 1
        assert up == pytest.approx(math.sqrt((ng + 1) * (2 * k + ng)), rel=1e-8)
        assert down == pytest.approx(math.sqrt(ng * (2 * k + ng - 1)), rel=1e-8)

    def test_u_channel_bargmann_index(self):
        s = 1.5
        k = s
        up, down = ladder_matrix_elements("u", 3, s)
        ng = 3
        assert up == pytest.approx(math.sqrt((ng + 1) * (2 * k + ng)), rel=1e-8)
        assert down == pytest.approx(math.sqrt(ng * (2 * k + ng - 1)), rel=1e-8)

    @pytest.mark.parametrize("channel,n", [("v", 1), ("v", 4), ("u", 0), ("u", 2)])
    def test_casimir_value(self, channel, n):
        rep = casimir_residual(channel, n, 0.866, GRID)
        assert rep.residual_max < 1e-8

    def test_a0_eigenvalue_both_channels(self):
        for channel, n in (("v", 1), ("v", 5), ("u", 0), ("u", 4)):
            rep = a0_eigenvalue_residual(channel, n, 1.5, GRID)
            assert rep.residual_max < 1e-9


class TestScalingIdentities:
    def test_identity_at_theta_zero(self):
        rep = scaling_identity_residual(0.0, sturmian_family(0.866), GRID, 0.866)
        assert rep.residual_max < 1e-14

    def test_log_two(self):
        rep = scaling_identity_residual(math.log(2.0), sturmian_family(0.866), GRID, 0.866)
        assert rep.residual_max < 1e-9

    def test_hyperbolic_mixing_at_0p7(self):
        rep = scaling_identity_residual(0.7, sturmian_family(1.5), GRID, 1.5)
        assert rep.residual_max < 1e-9

    def test_rejects_large_theta(self):
        with pytest.raises(DomainError):
            scaling_identity_residual(3.5, sturmian_family(0.866), GRID, 0.866)


class TestRandomizedLadder:
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.55, max_value=3.0),
           st.sampled_from(["u", "v"]),
           st.integers(min_value=0, max_value=4))
    def test_ladder_coefficients_random_s(self, s, channel, offset):
        n = offset if channel == "u" else offset + 1
        k = channel_realization(channel, s) + 1.0
        up, down = ladder_matrix_elements(channel, n, s)
        ng = n if channel == "u" else n - 1
        assert up == pytest.approx(math.sqrt((ng + 1) * (2 * k + ng)), rel=1e-8)
        if ng >= 1:
            assert down == pytest.approx(math.sqrt(ng * (2 * k + ng - 1)), rel=1e-8)
        else:
            assert abs(down) < 1e-8
