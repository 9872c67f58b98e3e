import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dirac_coulomb import (
    Alignment,
    DerivedConstants,
    DomainError,
    ProblemParams,
    SingularTransform,
    SupercriticalCoupling,
    derive_constants,
    kappa,
    radial_channel,
)
from reference import coupling_matrix, decoupling_matrix


def make_constants(kap, alpha_v, alpha_s):
    s = math.sqrt(kap**2 - (alpha_v + alpha_s) * (alpha_v - alpha_s))
    return DerivedConstants(kappa=kap, s=s, alpha_plus=alpha_v + alpha_s,
                            alpha_minus=alpha_v - alpha_s)


class TestKappa:
    def test_d3_j_half_aligned(self):
        assert kappa(3, 0.5, Alignment.ALIGNED) == -1.0

    def test_d3_j_half_unaligned(self):
        assert kappa(3, 0.5, Alignment.UNALIGNED) == 1.0

    def test_d5_j_three_halves_aligned(self):
        assert kappa(5, 1.5, Alignment.ALIGNED) == -3.0

    @given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=10),
           st.sampled_from([Alignment.ALIGNED, Alignment.UNALIGNED]))
    def test_magnitude_identity(self, dim, half_steps, alignment):
        j = 0.5 + half_steps
        assert abs(kappa(dim, j, alignment)) == j + (dim - 2) / 2.0

    def test_rejects_integer_j(self):
        with pytest.raises(DomainError):
            kappa(3, 1.0, Alignment.ALIGNED)


class TestDeriveConstants:
    def test_equal_couplings_give_abs_kappa(self):
        p = ProblemParams(3, 0.5, Alignment.ALIGNED, 0.3, 0.3, 1.0)
        c = derive_constants(p)
        assert c.s == 1.0

    def test_vector_only(self):
        p = ProblemParams(3, 0.5, Alignment.ALIGNED, 0.5, 0.0, 1.0)
        c = derive_constants(p)
        assert c.s == pytest.approx(math.sqrt(0.75), rel=1e-15)

    def test_supercritical_raises(self):
        p = ProblemParams(3, 0.5, Alignment.ALIGNED, 1.2, 0.0, 1.0)
        with pytest.raises(SupercriticalCoupling):
            derive_constants(p)

    def test_bargmann_indices(self, default_constants):
        # s fixes both channels: Bargmann indices s (u) and s + 1 (v)
        s = default_constants.s
        assert radial_channel("u", s).bargmann == s
        assert radial_channel("v", s).bargmann == s + 1.0

    @given(st.floats(min_value=0.05, max_value=0.9), st.floats(min_value=0.0, max_value=0.8))
    def test_s_depends_only_on_coupling_difference(self, alpha_v, shift):
        # alpha_v^2 - alpha_s^2 fixed while both couplings move
        base = ProblemParams(3, 0.5, Alignment.ALIGNED, alpha_v, 0.0, 1.0)
        moved = ProblemParams(3, 0.5, Alignment.ALIGNED,
                              math.sqrt(alpha_v**2 + shift**2), shift, 1.0)
        s0 = derive_constants(base).s
        s1 = derive_constants(moved).s
        assert s1 == pytest.approx(s0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            ProblemParams(1, 0.5, Alignment.ALIGNED, 0.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            ProblemParams(3, 0.5, Alignment.ALIGNED, 0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            ProblemParams(3, 0.5, Alignment.ALIGNED, 0.5, -0.1, 1.0)
        with pytest.raises(DomainError):
            ProblemParams(3, 0.5, Alignment.ALIGNED, 0.5, 0.0, 0.0)
        with pytest.raises(DomainError):
            ProblemParams(3, 0.75, Alignment.ALIGNED, 0.5, 0.0, 1.0)


class TestDecoupling:
    def test_zero_coupling_matrix(self):
        c = make_constants(-1.0, 0.0, 0.0)
        assert np.array_equal(decoupling_matrix(c), np.array([[2.0, 0.0], [0.0, 2.0]]))

    def test_similarity_diagonalizes(self):
        # direct matrix arithmetic oracle
        c = make_constants(-1.0, 0.5, 0.2)
        m = decoupling_matrix(c)
        diag = np.linalg.inv(m) @ coupling_matrix(c) @ m
        expect = np.diag([-c.s, c.s])
        assert np.max(np.abs(diag - expect)) < 1e-12

    def test_singular_when_s_equals_kappa(self):
        c = make_constants(1.0, 0.0, 0.0)
        with pytest.raises(SingularTransform):
            decoupling_matrix(c)

    @given(st.floats(min_value=0.05, max_value=0.8), st.floats(min_value=0.0, max_value=0.5),
           st.sampled_from([-1.0, -2.0, 1.0, 2.0]))
    def test_coupling_matrix_eigenvalues_are_pm_s(self, alpha_v, alpha_s, kap):
        if kap**2 <= alpha_v**2 - alpha_s**2:
            return
        c = make_constants(kap, alpha_v, alpha_s)
        eig = np.sort(np.real(np.linalg.eigvals(coupling_matrix(c))))
        assert abs(eig[0] + c.s) < 1e-12 and abs(eig[1] - c.s) < 1e-12
