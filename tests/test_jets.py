"""The jet-space su(1,1) oracles: the generators applied to the values of f, f', ...

The family pass, the ladder projections and the scaling identities apply
K0, K+-, A0 and A1 to jets (f, f', ..., f^(k)) on a grid instead of to exact
symbolic images.  These tests hold LaguerreSum.jets to the derivative()
chain bit for bit and to mpmath, the jet images to RadialOperator.apply, and
the oracles to their tolerances with room to spare.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirac_coulomb import Alignment, DomainError, LaguerreSum, OperatorKind, ProblemParams, RadialOperator, algebra
from dirac_coulomb import build_rule, radial_channel, sturmian, su11_commutator_report, verification
from dirac_coulomb.algebra import SU11_RELATIONS, _ladder_rule_key, _relative_residual
from reference import chain_jets

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
        jet = (LaguerreSum.jets(GRID, 4, f) if len(f) == 1 else chain_jets(GRID, [f], 4))[:, 0]
        want = op.apply(f)
        for got, f_m in zip(algebra._image(kind, op._cent(), jet, GRID), jet):
            assert np.max(_relative_residual(got - want(GRID), [want(GRID), f_m])) <= 1e-12, (kind, f)
            want = want.derivative()


@pytest.mark.parametrize("channel,n,s", [("v", 1, 0.866), ("v", 7, 2.2), ("u", 0, 0.6), ("u", 5, 1.5)])
def test_sturmian_jets_match_mpmath(channel, n, s):
    # the closed form of radial.sturmian, differentiated by mpmath at 30 digits
    radii = np.array([0.05, 0.4, 1.7, 6.0, 23.0])
    jet = LaguerreSum.jets(radii, 4, sturmian(channel, n, s))[:, 0]
    with mp.workdps(30):
        power = mp.mpf(s) if channel == "v" else mp.mpf(s) - 1
        degree = n - 1 if channel == "v" else n
        norm = 2 * mp.sqrt(mp.factorial(degree) / mp.gamma(degree + 2 * power + 2))

        def f(r):
            return norm * (2 * r) ** power * mp.exp(-r) * mp.laguerre(degree, 2 * power + 1, 2 * r)

        for k in range(5):
            want = np.array([float(mp.diff(f, mp.mpf(r), k)) for r in radii])
            assert np.allclose(jet[k], want, rtol=1e-12, atol=0.0), k


def same_jets(r, order, functions):
    """LaguerreSum.jets of the functions, asserted equal to the chain's bit for bit (nan matching nan)."""
    with np.errstate(all="ignore"):
        got, want = LaguerreSum.jets(r, order, *functions), chain_jets(r, functions, order)
    assert got.shape == want.shape == (order + 1, len(functions), r.size)
    assert np.array_equal(got, want, equal_nan=True)
    return got


@settings(max_examples=80)
@given(s=st.one_of(st.floats(min_value=0.05, max_value=60.0), st.sampled_from([1.0, 2.0, 3.0])),
       channels=st.sampled_from(["u", "v", "uv"]), first=st.integers(0, 6), count=st.integers(1, 10),
       theta=st.sampled_from([0.0, 0.7, -0.7, math.log(2.0)]), where=st.sampled_from(["grid", "rule"]),
       order=st.sampled_from([2, 4]))
def test_jets_keep_the_bits_of_the_derivative_chain(s, channels, first, count, theta, where, order):
    # the family pass's grid and the ladder's rule nodes; a dilated function on e^-theta r, as the scaling check
    fs = [sturmian(channel, n, s) for channel in channels
          for n in range(radial_channel(channel, s).lowest + first, radial_channel(channel, s).lowest + first + count)]
    r = GRID if where == "grid" else build_rule(*_ladder_rule_key(channels[0], first + count, s)).nodes / 2.0
    if theta:
        fs, r = [f.scaled(theta) for f in fs], math.exp(-theta) * r
    same_jets(r, order, fs)


@pytest.mark.parametrize("s", [1.0, 2.0, 3.0, 0.866])
@pytest.mark.parametrize("channel", ["u", "v"])
def test_the_chain_keeps_its_terms_in_pattern_order(channel, s):
    # derivative j's terms are keyed (i p-steps, l n-steps) in the order (-i, l), also where an integer
    # sigma ends the p-steps at power 0 or a low degree ends the n-steps: the kernel adds them in that order
    low = radial_channel(channel, s).lowest
    for n in range(low, low + 4):
        f = sturmian(channel, n, s)
        (p0, _, g, _, _), = f._map
        for _ in range(4):
            f = f.derivative()
            keys = [(-round(p0 - p), g - m) for p, _, m, _, _ in f._map]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)
        same_jets(GRID, 4, [sturmian(channel, n, s)])


@pytest.mark.parametrize("s", [0.07, 0.09])
def test_powers_step_down_one_at_a_time(s):
    # sigma - 1.0 - 1.0 is not sigma - 2.0 at these s: the kernel must round as the chain does
    assert s - 1.0 - 1.0 != s - 2.0 or s - 1.0 - 1.0 - 1.0 != s - 3.0
    same_jets(GRID, 4, [sturmian("v", n, s) for n in range(1, 6)])


def test_jets_at_integer_sigma_add_no_term_of_the_power_below_zero():
    # at sigma = 0 the chain has no p-step child, so r = 0 stays finite; the kernel's zero
    # coefficient of r^-1 is a term it must not add (0 * inf would be nan)
    r = np.array([0.0, 0.5, 3.0])
    with np.errstate(divide="ignore"):
        jet = same_jets(r, 4, [sturmian("u", n, 1.0) for n in range(0, 4)])
    assert np.isfinite(jet).all()


def test_jets_of_a_sturmian_whose_coefficient_underflows_are_zero():
    empty = sturmian("v", 3, 400.0)
    assert len(empty) == 0
    jet = same_jets(GRID, 4, [sturmian("v", 1, 0.866), empty, sturmian("u", 2, 1.5)])
    assert not jet[:, 1].any() and jet[:, 0].all()


def test_jets_that_overflow_take_the_chains_inf_and_nan():
    # r^150 overflows on the rule's far nodes: the kernel adds the terms again in complex arithmetic
    r = build_rule(40, radial_channel("v", 150.0).alpha).nodes / 2.0
    jet = same_jets(r, 4, [sturmian("v", n, 150.0) for n in range(1, 6)])
    assert not np.isfinite(jet).all() and np.isfinite(jet[:, :, 0]).all()


@pytest.mark.parametrize("f", [
    LaguerreSum.single(1.0, 0.5, 1.0) + LaguerreSum.single(2.0, 1.5, 1.0),
    LaguerreSum.single(1.0 - 0.5j, 0.5, 1.0),
    LaguerreSum.single(1.0, 0.5, 1.0 + 0.2j),
], ids=["two_terms", "complex_coefficient", "complex_decay"])
def test_jets_reject_a_sum_of_several_or_complex_terms(f):
    with pytest.raises(DomainError, match="at most one real term"):
        LaguerreSum.jets(GRID, 2, sturmian("v", 1, 0.866), f)


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
