import math

import numpy as np
import pytest

from dirac_coulomb import algebra, verification
from dirac_coulomb import (
    Alignment,
    DomainError,
    LaguerreSum,
    OperatorKind,
    ProblemParams,
    RadialOperator,
    radial_channel,
    run_suite,
    scaling_identity_residual,
    sturmian,
    su11_commutator_report,
)
from reference import ladder_matrix_elements

GRID = np.geomspace(0.05, 30.0, 80)


def sturmian_levels(channel="v", count=6):
    start = 0 if channel == "u" else 1
    return range(start, start + count)


def sturmian_family(s, channel="v", count=6):
    return [sturmian(channel, n, s) for n in sturmian_levels(channel, count)]


def family_report(name, channel, n, s):
    """The report ``name`` of the Sturmian (channel, n, s) from a family pass of that one function."""
    reports = [rep for rep in su11_commutator_report(channel, s, [n], GRID) if rep.name == name]
    assert len(reports) == 1 and reports[0].context == {"channel": channel, "n": n, "s": s}
    return reports[0]


class TestApplyOperator:
    def test_a2_on_exponential(self):
        # i A2 = K+ - A1, and A2 e^-r = -i r (d/dr + 1/r) e^-r = -i (-r e^-r + e^-r)
        f = LaguerreSum.single(1.0, power=0.0, decay=1.0)
        i_a2 = (RadialOperator(OperatorKind.KPLUS, 0.9).apply(f)
                + RadialOperator(OperatorKind.A1, 0.9).apply(f) * -1.0)
        for r in (0.3, 1.0, 4.2):
            want = -1.0j * (-r * math.exp(-r) + math.exp(-r))
            assert -1.0j * i_a2(r) == pytest.approx(want, rel=1e-13)

    def test_pr2_annihilates_inverse_r(self):
        # A0 + A1 = r P_r^2 + sigma(sigma+1)/r, which is r P_r^2 at centrifugal constant 0
        f = LaguerreSum.single(1.0, power=-1.0, decay=0.0)
        r_pr2 = (RadialOperator(OperatorKind.A0, 0.9, centrifugal=0.0).apply(f)
                 + RadialOperator(OperatorKind.A1, 0.9, centrifugal=0.0).apply(f))
        for r in (0.5, 2.0, 9.0):
            assert abs(r_pr2(r)) < 1e-12

    def test_a0_eigenrelation_on_sturmians(self):
        s = 0.866
        f = sturmian("v", 2, s)
        op = RadialOperator(OperatorKind.A0, s)
        r = np.geomspace(0.1, 20.0, 40)
        got = op.apply(f)(r)
        want = (2 + s) * f(r)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-9


class TestCommutators:
    @pytest.mark.parametrize("s", [0.6, 0.866, 1.5, 2.2])
    def test_su11_relations_hold(self, s):
        for channel in ("u", "v"):
            reports = su11_commutator_report(channel, s, sturmian_levels(channel), GRID)
            assert [rep.name for rep in reports[:3]] == list(algebra.SU11_RELATIONS)
            assert [rep.name for rep in reports[3:]] == ["casimir", "a0_eigenvalue"] * 6
            for rep in reports:
                assert rep.residual_max < 1e-8, rep.name

    def test_wrong_realization_fails(self):
        s = 0.866
        reports = su11_commutator_report("v", s, sturmian_levels(), GRID, fault_centrifugal=s * s)
        assert max(rep.residual_max for rep in reports[:3]) > 1e-2


class TestVerifyCommutatorChecks:
    @staticmethod
    def count_family_passes(monkeypatch):
        """For each su(1,1) pass, in call order, the realization parameter of each of its families."""
        passes = []
        original = algebra._su11_family_residuals

        def counted(families, grid, fault_centrifugal):
            passes.append([radial_channel(channel, s).sigma for channel, s, _ in families])
            return original(families, grid, fault_centrifugal)

        monkeypatch.setattr(verification, "_su11_family_residuals", counted)
        return passes

    def test_each_relation_runs_once_per_family(self, default_params, monkeypatch):
        # one pass gives every family's three relations and its Sturmians' Casimir and A0
        # residuals: 5 s-values (the acceptance grid plus the problem's own) x 2 channels
        passes = self.count_family_passes(monkeypatch)
        reports = {rep.name: rep for rep in run_suite(default_params)}
        s_values = verification._s_grid(default_params)
        assert len(passes) == 1
        assert sorted(passes[0]) == sorted(radial_channel(channel, s).sigma
                                           for s in s_values for channel in ("v", "u"))
        assert len(set(passes[0])) == 10
        for name in algebra.SU11_RELATIONS:
            assert reports[name].context == {"families": 10}
        for name in ("casimir", "a0_eigenvalue"):
            assert reports[name].context == {"s_values": 5}

    def test_each_suite_computes_each_family_once(self, default_params, monkeypatch):
        # the memo belongs to one suite: nothing is kept for the next run_suite
        passes = self.count_family_passes(monkeypatch)
        run_suite(default_params)
        first = list(passes)
        passes.clear()
        run_suite(default_params)
        assert passes == first and len(first) == 1 and len(set(first[0])) == len(first[0]) == 10

    def test_a_check_alone_matches_the_suite(self, default_params, monkeypatch):
        # alone, a check fills its own memo; in a suite the later checks only read the first's
        inside = {}
        original = verification._registry

        def recording(perturb):
            return {name: (lambda params, name=name, check=check: inside.setdefault(name, check(params)))
                    for name, check in original(perturb).items()}

        monkeypatch.setattr(verification, "_registry", recording)
        run_suite(default_params)
        for name in (*reversed(algebra.SU11_RELATIONS), "casimir", "a0_eigenvalue"):
            assert original(False)[name](default_params) == inside[name]

    def test_casimir_and_a0_build_no_image_in_a_suite(self, default_params, monkeypatch):
        # they read the memo the commutator checks filled, so they evaluate no jet and build no image
        entered = []
        images = algebra._image
        original = verification._registry
        running = [None]

        def counted(kind, centrifugal, jet, r):
            entered.append(running[0])
            return images(kind, centrifugal, jet, r)

        def tagged(name, check):
            def run(params):
                running[0] = name
                return check(params)
            return run

        monkeypatch.setattr(algebra, "_image", counted)
        monkeypatch.setattr(verification, "_registry", lambda perturb: {
            name: tagged(name, check) for name, check in original(perturb).items()})
        run_suite(default_params)
        # one pass for all ten families: K0 f, K+ f, K- f, then the six X Y f of the relations and K0 K0 f
        assert entered.count("commutator_k0_kplus") == 3 + 7
        assert entered.count("casimir") == entered.count("a0_eigenvalue") == 0


class TestBatchedFamilyPass:
    """The verify suite's one su(1,1) pass over all its families reads, for every family,
    the maxima that family's own su11_commutator_report gives, bit for bit."""

    D5 = ProblemParams(dimension=5, j=1.5, alignment=Alignment.UNALIGNED, alpha_v=0.7, alpha_s=0.3, mass=1e-3)

    @staticmethod
    def assert_maxima_match_reports(params):
        families = {}
        verification._check_family("casimir", families, params)  # fills every family of the suite
        grid = verification._algebra_grid()
        assert len(families) == len(set(verification._s_grid(params))) * 2
        for (s, channel), maxima in families.items():
            levels = range(radial_channel(channel, s).lowest, radial_channel(channel, s).lowest + 10)
            reports = su11_commutator_report(channel, s, levels, grid)
            assert [float(np.max(maxima[rep.name])) for rep in reports[:3]] == [rep.residual_max for rep in reports[:3]]
            alone = {(rep.name, rep.context["n"]): rep.residual_max for rep in reports[3:]}
            for name in ("casimir", "a0_eigenvalue"):
                assert maxima[name].tolist() == [alone[name, n] for n in levels], (s, channel, name)

    def test_default_problem(self, default_params):
        self.assert_maxima_match_reports(default_params)

    def test_unaligned_d5_problem(self):
        self.assert_maxima_match_reports(self.D5)

    def test_twenty_seeded_s_values(self, default_params, monkeypatch):
        s_values = tuple(np.random.default_rng(24).uniform(0.05, 6.0, 20).tolist())
        monkeypatch.setattr(verification, "_s_grid", lambda params: s_values)
        self.assert_maxima_match_reports(default_params)

    def test_a_wrong_constant_fails_every_relation_and_the_casimir_in_a_batch(self):
        # one constant for every family; the batched rows keep the bits of each family's pass alone
        grid, fault = verification._algebra_grid(), 0.3
        batch = [(channel, s, sturmian_levels(channel, 10)) for s in (0.866, 1.5, 2.2) for channel in ("v", "u")]
        rows = algebra._su11_family_residuals(batch, grid, fault)
        for i, family in enumerate(batch):
            alone = algebra._su11_family_residuals([family], grid, fault)
            for name, residuals in rows.items():
                assert np.array_equal(residuals[10 * i:10 * i + 10], alone[name]), (family, name)
        for name in algebra.SU11_RELATIONS:
            assert rows[name].reshape(len(batch), -1).max(axis=1).min() >= 1e-3, name
        assert rows["casimir"].max(axis=1).min() >= 1e-3
        assert rows["a0_eigenvalue"].max() <= verification.DEFAULT_TOLERANCES["a0_eigenvalue"]


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

    @pytest.mark.parametrize("channel,n", [("v", 0), ("u", -1), ("v", -3)])
    def test_rejects_a_label_below_the_lowest(self, channel, n):
        with pytest.raises(DomainError, match=f"{channel}-channel ladder labels must be >= "):
            ladder_matrix_elements(channel, n, 0.866)

    @pytest.mark.parametrize("channel,n", [("v", 1), ("v", 4), ("u", 0), ("u", 2)])
    def test_casimir_value(self, channel, n):
        assert family_report("casimir", channel, n, 0.866).residual_max < 1e-8

    def test_a0_eigenvalue_both_channels(self):
        for channel, n in (("v", 1), ("v", 5), ("u", 0), ("u", 4)):
            assert family_report("a0_eigenvalue", channel, n, 1.5).residual_max < 1e-9


class TestScalingIdentities:
    def test_identity_at_theta_zero(self):
        (worst,) = scaling_identity_residual([0.0], sturmian_family(0.866), GRID, [0.866] * 6)
        assert worst < 1e-14

    def test_log_two(self):
        (worst,) = scaling_identity_residual([math.log(2.0)], sturmian_family(0.866), GRID, [0.866] * 6)
        assert worst < 1e-9

    def test_hyperbolic_mixing_at_0p7(self):
        (worst,) = scaling_identity_residual([0.7], sturmian_family(1.5), GRID, [1.5] * 6)
        assert worst < 1e-9

    def test_verify_conjugates_each_sturmian_under_its_own_channel(self, default_params, default_constants,
                                                                   monkeypatch):
        # the identities hold for any constant, so only the constant handed over shows which one is
        # tested: a Sturmian's sigma is its power, s for v and s - 1 for u
        calls = []

        def recorded(thetas, test_functions, grid, sigmas):
            calls.append((list(test_functions), list(sigmas)))
            return scaling_identity_residual(thetas, test_functions, grid, sigmas)

        monkeypatch.setattr(verification, "scaling_identity_residual", recorded)
        verification._check_scaling(default_params)
        ((fns, sigmas),) = calls
        assert [f.terms[0].power for f in fns] == sigmas
        s = default_constants.s
        assert sigmas == [s, s, s, s - 1.0, s - 1.0]

    def test_rejects_large_theta(self):
        with pytest.raises(DomainError):
            scaling_identity_residual([0.7, 3.5], sturmian_family(0.866), GRID, [0.866] * 6)


class TestRandomizedLadder:
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.55, max_value=3.0),
           st.sampled_from(["u", "v"]),
           st.integers(min_value=0, max_value=4))
    def test_ladder_coefficients_random_s(self, s, channel, offset):
        n = offset if channel == "u" else offset + 1
        k = radial_channel(channel, s).sigma + 1.0
        up, down = ladder_matrix_elements(channel, n, s)
        ng = n if channel == "u" else n - 1
        assert up == pytest.approx(math.sqrt((ng + 1) * (2 * k + ng)), rel=1e-8)
        if ng >= 1:
            assert down == pytest.approx(math.sqrt(ng * (2 * k + ng - 1)), rel=1e-8)
        else:
            assert abs(down) < 1e-8
