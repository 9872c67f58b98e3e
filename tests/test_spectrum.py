import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from dirac_coulomb import (
    Alignment,
    DerivedConstants,
    DomainError,
    NoBoundState,
    ProblemParams,
    SingularTransform,
    bound_level,
    derive_constants,
    energy,
    omega,
    scale_and_theta,
)
from dirac_coulomb.verification import sommerfeld_energy


def params_for(kap_sign, alpha_v, alpha_s, mass=1.0):
    alignment = Alignment.ALIGNED if kap_sign < 0 else Alignment.UNALIGNED
    return ProblemParams(3, 0.5, alignment, alpha_v, alpha_s, mass)


class TestEnergy:
    def test_free_limit_is_mass(self):
        p = params_for(-1, 1e-8, 0.0)
        c = derive_constants(p)
        for n in (1, 2, 5):
            e = energy(n, c, p)
            assert abs(e / p.mass - 1.0) < 1e-15 + 1e-16

    def test_sommerfeld_closed_form(self):
        # algebraic reduction of the spectrum at alpha_s = 0
        p = params_for(-1, 0.5, 0.0)
        c = derive_constants(p)
        assert c.s == pytest.approx(math.sqrt(0.75), rel=1e-15)
        got = energy(1, c, p)
        assert got == pytest.approx(sommerfeld_energy(1, c.s, 0.5, 1.0), rel=1e-12)

    def test_monotone_increasing_below_mass(self):
        p = params_for(-1, 0.4, 0.1)
        c = derive_constants(p)
        es = [energy(n, c, p) for n in (1, 2, 3)]
        assert es[0] < es[1] < es[2] < p.mass

    def test_free_limit_never_exceeds_mass(self):
        # the quotient m*num/den can round one ulp past m at couplings of
        # 1e-12; |E| <= m holds exactly whenever the discriminant is >= 0
        for mass in np.geomspace(1e-4, 1e8, 200):
            p = params_for(-1, 1e-12, 1e-12, mass=float(mass))
            c = derive_constants(p)
            for n in range(1, 11):
                assert energy(n, c, p) <= p.mass

    def test_rejects_bad_n(self):
        p = params_for(-1, 0.5, 0.2)
        c = derive_constants(p)
        with pytest.raises(DomainError):
            energy(0, c, p)

    def test_no_bound_state_on_negative_discriminant(self):
        # unreachable from consistent constants ((n+s)^2 + av^2 - as^2 =
        # n^2 + 2ns + kappa^2 > 0); this guards against inconsistent inputs
        p = params_for(-1, 0.1, 5.0)
        broken = DerivedConstants(kappa=-1.0, s=0.1, alpha_plus=5.1, alpha_minus=-4.9)
        with pytest.raises(NoBoundState):
            energy(1, broken, p)


class TestOmega:
    def test_zero_coupling_reduces_to_mass_gap(self):
        c = DerivedConstants(kappa=-1.0, s=1.0, alpha_plus=0.0, alpha_minus=0.0)
        assert omega(0.7, 1.0, c) == pytest.approx(0.3, abs=1e-15)
        assert omega(1.0, 1.0, c) == 0.0

    def test_singular_at_s_equal_kappa(self):
        c = DerivedConstants(kappa=1.0, s=1.0, alpha_plus=0.0, alpha_minus=0.0)
        with pytest.raises(SingularTransform):
            omega(0.7, 1.0, c)

    def test_against_small_r_limit_of_coupled_system(self, default_params, default_constants):
        # symbolic-substitution oracle at 30-digit working precision:
        # row one of the coupled system applied to the scaled Sturmian
        # pair with B/A fixed by omega must vanish as r -> 0
        p, c = default_params, default_constants
        level = bound_level(1, p, c)
        ratio = level.omega * c.s / (level.a * level.n * (level.n + 2.0 * c.s))  # B_n / A_n
        with mp.workdps(30):
            s, a, e, m, w = (mp.mpf(c.s), mp.mpf(level.a), mp.mpf(level.energy),
                             mp.mpf(p.mass), mp.mpf(level.omega))
            av, as_ = mp.mpf(p.alpha_v), mp.mpf(p.alpha_s)
            n = level.n

            def u(r):
                return r * (2 * a * r) ** (s - 1) * mp.e ** (-a * r) * mp.laguerre(n, 2 * s - 1, 2 * a * r)

            def v(r):
                return mp.mpf(ratio) * r * (2 * a * r) ** s * mp.e ** (-a * r) * mp.laguerre(n - 1, 2 * s + 1, 2 * a * r)

            r0 = mp.mpf("1e-12")
            coul = (av * e + as_ * m) / s
            row1 = w * u(r0) + (-mp.diff(v, r0) - s / r0 * v(r0) + coul * v(r0))
            rel = abs(row1) / abs(w * u(r0))
        assert rel < 1e-11


class TestScaleAndTheta:
    def test_rest_energy(self):
        assert scale_and_theta(0.0, 1.0) == (1.0, 0.0)

    def test_three_four_five(self):
        a, theta = scale_and_theta(0.8, 1.0)
        assert a == pytest.approx(0.6, rel=1e-15)
        assert theta == pytest.approx(math.log(0.6), rel=1e-14)

    def test_rejects_unbound(self):
        with pytest.raises(NoBoundState):
            scale_and_theta(1.0, 1.0)
        with pytest.raises(NoBoundState):
            scale_and_theta(-1.2, 1.0)

    @pytest.mark.parametrize("ulps", range(-3, 4))
    def test_largest_scale_is_the_last_with_a_finite_cube(self, ulps):
        # the closed-form constants take a**3, which raises OverflowError from about 5.6438e102 on
        mass = float.fromhex("0x1.428a2f98d728bp+341")
        for _ in range(abs(ulps)):
            mass = math.nextafter(mass, math.copysign(math.inf, ulps))
        want = math.sqrt(mass * mass)
        try:
            want**3
        except OverflowError:
            with pytest.raises(NoBoundState):
                scale_and_theta(0.0, mass)
        else:
            assert scale_and_theta(0.0, mass)[0] == want

    def test_rejects_a_scale_that_underflows(self):
        with pytest.raises(NoBoundState):
            scale_and_theta(0.0, 1e-170)
        assert scale_and_theta(0.0, 1e-150)[0] == math.sqrt(1e-150 * 1e-150)


class TestInvariants:
    def test_sommerfeld_reduction_grid(self):
        for j, alignment, kap in ((0.5, Alignment.ALIGNED, -1.0),
                                  (1.5, Alignment.ALIGNED, -2.0),
                                  (0.5, Alignment.UNALIGNED, 1.0)):
            for alpha_v in (0.1, 0.5, 0.9 * abs(kap)):
                p = ProblemParams(3, j, alignment, alpha_v, 0.0, 1.0)
                c = derive_constants(p)
                for n in range(1, 11):
                    want = sommerfeld_energy(n, c.s, alpha_v, 1.0)
                    assert energy(n, c, p) == pytest.approx(want, rel=1e-12)

    def test_diagonalized_eigenvalue_identity(self):
        for p in (params_for(-1, 0.5, 0.2), params_for(-1, 0.8, 0.0), params_for(1, 0.3, 0.1)):
            c = derive_constants(p)
            for n in range(1, 9):
                e = energy(n, c, p)
                a = math.sqrt((p.mass - e) * (p.mass + e))
                assert abs(a * (n + c.s) - (p.alpha_v * e + p.alpha_s * p.mass)) < 1e-11

    def test_bound_level_consistency(self, default_params, default_constants):
        level = bound_level(3, default_params, default_constants)
        assert level.a**2 + level.energy**2 == pytest.approx(default_params.mass**2, rel=1e-12)
        assert level.theta == pytest.approx(math.log(level.a), rel=1e-14)

    def test_mass_scaling(self):
        # E_n is proportional to m at fixed couplings
        p1 = params_for(-1, 0.5, 0.2, mass=1.0)
        p2 = replace(p1, mass=2.5)
        c1, c2 = derive_constants(p1), derive_constants(p2)
        assert energy(2, c2, p2) == pytest.approx(2.5 * energy(2, c1, p1), rel=1e-14)
