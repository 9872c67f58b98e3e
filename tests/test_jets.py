"""The jet-space su(1,1) oracles: the generators applied to the values of f, f', ...

The family pass, the ladder projections and the scaling identities apply
K0, K+-, A0 and A1 to jets (f, f', ..., f^(k)) on a grid instead of to exact
symbolic images.  These tests hold the jets to mpmath, the jet images to
RadialOperator.apply, and the oracles to their tolerances with room to spare.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from dirac_coulomb import Alignment, LaguerreSum, OperatorKind, ProblemParams, RadialOperator, algebra, sturmian
from dirac_coulomb import su11_commutator_report, verification
from dirac_coulomb import radial_channel
from dirac_coulomb.algebra import SU11_RELATIONS, _relative_residual

GRID = verification._algebra_grid()


def sample_functions():
    """Sturmians of both channels, and a sum with a complex coefficient and decay."""
    mixed = (LaguerreSum.single(1.3, power=0.87, decay=0.6, degree=3, alpha=2.1, argscale=2.0)
             + LaguerreSum.single(0.25 - 0.5j, power=1.87, decay=0.6 + 0.2j, degree=2, alpha=2.1, argscale=2.0))
    return [sturmian("v", 1, 0.866), sturmian("v", 6, 2.2), sturmian("u", 0, 1.5), sturmian("u", 4, 0.6), mixed]


@pytest.mark.parametrize("centrifugal", [None, 0.3])
@pytest.mark.parametrize("kind", list(OperatorKind))
def test_jet_images_match_the_symbolic_images(kind, centrifugal):
    # orders 0..2 of L f from the order-4 jet of f, against L f and its exact derivatives
    # f^(m) joins the scale of order m, so that K- on the lowest Sturmian, which is 0, compares noise to f
    for f in sample_functions():
        op = RadialOperator(kind, 0.866, centrifugal)
        jet = algebra._jets(GRID, [f], 4)[:, 0]
        want = op.apply(f)
        for got, f_m in zip(algebra._image(kind, op._cent(), jet, GRID), jet):
            assert np.max(_relative_residual(got - want(GRID), [want(GRID), f_m])) <= 1e-12, (kind, f)
            want = want.derivative()


@pytest.mark.parametrize("channel,n,s", [("v", 1, 0.866), ("v", 7, 2.2), ("u", 0, 0.6), ("u", 5, 1.5)])
def test_sturmian_jets_match_mpmath(channel, n, s):
    # the closed form of radial.sturmian, differentiated by mpmath at 30 digits
    radii = np.array([0.05, 0.4, 1.7, 6.0, 23.0])
    jet = algebra._jets(radii, [sturmian(channel, n, s)], 4)[:, 0]
    with mp.workdps(30):
        power = mp.mpf(s) if channel == "v" else mp.mpf(s) - 1
        degree = n - 1 if channel == "v" else n
        norm = 2 * mp.sqrt(mp.factorial(degree) / mp.gamma(degree + 2 * power + 2))

        def f(r):
            return norm * (2 * r) ** power * mp.exp(-r) * mp.laguerre(degree, 2 * power + 1, 2 * r)

        for k in range(5):
            want = np.array([float(mp.diff(f, mp.mpf(r), k)) for r in radii])
            assert np.allclose(jet[k], want, rtol=1e-12, atol=0.0), k


@pytest.mark.parametrize("s", [0.6, 0.866, 1.5, 2.2])
@pytest.mark.parametrize("channel", ["u", "v"])
def test_a_wrong_constant_fails_every_relation_and_the_casimir(channel, s):
    levels = range(0, 10) if channel == "u" else range(1, 11)
    sigma = radial_channel(channel, s).sigma
    for fault in (sigma * sigma, sigma * (sigma + 1.0) + 0.05):
        reports = su11_commutator_report(channel, s, levels, GRID, fault_centrifugal=fault)
        for rep in reports[:3]:
            assert not rep.passed and rep.residual_max >= 1e-3, rep.name
        casimir = [rep for rep in reports if rep.name == "casimir"]
        assert len(casimir) == len(levels)
        assert all(not rep.passed and rep.residual_max >= 1e-3 for rep in casimir)
        # A0 f is the Z side's, which keeps the true realization
        assert all(rep.passed for rep in reports if rep.name == "a0_eigenvalue")


JET_CHECKS = (*SU11_RELATIONS, "casimir", "a0_eigenvalue", "ladder_coefficients", "scaling_identities")


@pytest.mark.parametrize("dimension,j,alignment,alpha_v,alpha_s,mass", [
    (2, 0.5, Alignment.ALIGNED, 0.3, 0.1, 1e-4),
    (3, 1.5, Alignment.UNALIGNED, 1.2, 0.5, 1e-2),
    (4, 0.5, Alignment.ALIGNED, 0.9, 0.0, 1.0),
    (5, 2.5, Alignment.UNALIGNED, 2.0, 1.1, 30.0),
    (6, 1.5, Alignment.ALIGNED, 3.1, 2.0, 1e3),
    (6, 0.5, Alignment.UNALIGNED, 0.05, 0.02, 0.5),
])
def test_jet_checks_pass_with_room_on_benchmark_like_problems(dimension, j, alignment, alpha_v, alpha_s, mass):
    params = ProblemParams(dimension=dimension, j=j, alignment=alignment, alpha_v=alpha_v, alpha_s=alpha_s,
                           mass=mass)
    registry = verification._registry(False)
    for name in JET_CHECKS:
        residuals, _ = registry[name](params)
        assert max(residuals) <= verification.DEFAULT_TOLERANCES[name] / 1000.0, name
        assert all(math.isfinite(r) for r in residuals)
