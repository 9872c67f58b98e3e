"""The verify checks compute each intermediate once and print the same bits.

Each reference below is the per-call code the checks ran before they shared
work: every operator image rebuilt from its own formula and evaluated with
fresh caches, one commutator relation at a time, every Sturmian evaluated
inside each Gram integrand, every ladder rule rebuilt, and the LaguerreSum
operations merged term by term.  Results are compared with ==, never with a
tolerance.
"""

import math
from collections import Counter

import numpy as np
import pytest

from dirac_coulomb import Alignment, LaguerreSum, ProblemParams, physical_components, sturmian, verification
from dirac_coulomb.algebra import (
    OperatorKind,
    RadialOperator,
    _relative_residual,
    _su11_family_residuals,
    channel_realization,
    _ladder_projections,
    _ladder_rule_key,
    ladder_matrix_elements,
    scaling_identity_residual,
    su11_commutator_report,
    SU11_RELATIONS,
)
from dirac_coulomb.quadrature import build_rule, integrate_radial
from dirac_coulomb.report import VerificationReport
from test_verify_table import test_each_check_builds_each_distinct_rule_once as _builds_each_rule_once


def seeded_problem(seed):
    """A subcritical problem drawn the way the verify benchmark draws them."""
    rng = np.random.default_rng([6, seed])
    dimension, j = int(rng.integers(2, 7)), 0.5 + int(rng.integers(0, 3))
    aligned = bool(rng.random() < 0.5)
    kap = (2 * j + dimension - 2) / 2.0
    alpha_v = (0.05 + 0.85 * rng.random()) * kap
    return ProblemParams(dimension=dimension, j=j,
                         alignment=Alignment.ALIGNED if aligned else Alignment.UNALIGNED,
                         alpha_v=alpha_v, alpha_s=0.8 * rng.random() * alpha_v,
                         mass=10.0 ** rng.uniform(-4.0, 8.0))


@pytest.fixture(params=["default", 1, 2, 3])
def problem(request, default_params):
    return default_params if request.param == "default" else seeded_problem(request.param)


FAMILIES = (("v", range(1, 11)), ("u", range(0, 10)))


# ----------------------------------------------------------------------
# references: the per-call code before evaluations were shared


def reference_apply(op, f):
    """op.apply(f) as it was written before the generators shared their parts:
    one formula per kind, K+- building their own A1 image."""
    kind = op.kind
    if kind in (OperatorKind.A0, OperatorKind.A1, OperatorKind.K0):
        sign = -1.0 if kind is OperatorKind.A1 else 1.0
        pr2 = f.derivative().derivative() * (-1.0) - f.derivative().times_power(-1) * 2.0
        return (pr2.times_power(1) + f.times_power(-1) * op._cent() + f.times_power(1) * sign) * 0.5
    a1 = reference_apply(RadialOperator(OperatorKind.A1, op.s, op.centrifugal), f)
    i_a2 = f.derivative().times_power(1) + f
    return a1 + i_a2 if kind is OperatorKind.KPLUS else a1 - i_a2


def su11_relation(name, sigma, fault_centrifugal):
    """Operators (X, Y, [(c_j, Z_j)]) of one relation; a fault constant
    replaces sigma(sigma+1) in the commuted pair only."""
    x, y, expected = SU11_RELATIONS[name]
    return (
        RadialOperator(x, sigma, fault_centrifugal),
        RadialOperator(y, sigma, fault_centrifugal),
        [(coef, RadialOperator(z, sigma)) for coef, z in expected],
    )


def reference_commutator(x, y, expected, f, grid):
    xy = reference_apply(x, reference_apply(y, f))(grid)
    yx = reference_apply(y, reference_apply(x, f))(grid)
    zval = np.zeros(grid.shape, dtype=complex)
    for coef, z in expected:
        zval = zval + coef * np.asarray(reference_apply(z, f)(grid), dtype=complex)
    return _relative_residual(xy - yx - zval, [xy, yx, zval, f(grid)])


def reference_casimir(channel, n, s, grid):
    sigma = channel_realization(channel, s)
    k_barg = sigma + 1.0
    f = sturmian(channel, n, s)
    kp = RadialOperator(OperatorKind.KPLUS, sigma)
    km = RadialOperator(OperatorKind.KMINUS, sigma)
    k0 = RadialOperator(OperatorKind.K0, sigma)
    k0f = reference_apply(k0, f)
    lhs = (reference_apply(kp, reference_apply(km, f)) * (-1.0) + reference_apply(k0, k0f) - k0f)(grid)
    rhs = k_barg * (k_barg - 1.0) * f(grid)
    return _relative_residual(lhs - rhs, [lhs, rhs, f(grid)])


def reference_a0(channel, n, s, grid):
    f = sturmian(channel, n, s)
    lhs = reference_apply(RadialOperator(OperatorKind.A0, channel_realization(channel, s)), f)(grid)
    rhs = (n + s) * f(grid)
    return _relative_residual(lhs - rhs, [lhs, rhs])


def reference_gram(channel, s, n_count):
    n_start = 0 if channel == "u" else 1
    fns = [sturmian(channel, n, s) for n in range(n_start, n_start + n_count)]
    rule = build_rule(max(48, n_count + 16), 2.0 * s + 1.0 if channel == "v" else 2.0 * s - 1.0)
    return [integrate_radial(lambda r: fi(r) * fns[j](r) * r, 1.0, rule)
            for i, fi in enumerate(fns) for j in range(i, len(fns))]


def reference_ladder(channel, n, s, rule):
    sigma = channel_realization(channel, s)
    f_n = sturmian(channel, n, s)
    kp = reference_apply(RadialOperator(OperatorKind.KPLUS, sigma), f_n)
    km = reference_apply(RadialOperator(OperatorKind.KMINUS, sigma), f_n)
    f_up = sturmian(channel, n + 1, s)
    up = integrate_radial(lambda r: f_up(r) * kp(r) * r, 1.0, rule)
    if (n if channel == "u" else n - 1) >= 1:
        f_dn = sturmian(channel, n - 1, s)
        down = integrate_radial(lambda r: f_dn(r) * km(r) * r, 1.0, rule)
    else:
        norm_sq = integrate_radial(lambda r: abs(km(r)) ** 2 * r, 1.0, rule)
        down = math.sqrt(max(float(np.real(norm_sq)), 0.0))
    return float(np.real(up)), float(np.real(down))


def reference_scaling(theta, fns, grid, sigma):
    a0 = RadialOperator(OperatorKind.A0, sigma)
    a1 = RadialOperator(OperatorKind.A1, sigma)
    ch, sh = math.cosh(theta), math.sinh(theta)
    residuals = []
    for f in fns:
        f_scaled = f.scaled(theta)
        a0f, a1f = reference_apply(a0, f)(grid), reference_apply(a1, f)(grid)
        conj0 = reference_apply(a0, f_scaled).scaled(-theta)(grid)
        conj1 = reference_apply(a1, f_scaled).scaled(-theta)(grid)
        for lhs, parts in [
            (conj0 - (ch * a0f + sh * a1f), [conj0, a0f, a1f]),
            (conj1 - (sh * a0f + ch * a1f), [conj1, a0f, a1f]),
            ((conj0 + conj1) - math.exp(theta) * (a0f + a1f), [conj0 + conj1, a0f + a1f]),
            ((conj0 - conj1) - math.exp(-theta) * (a0f - a1f), [conj0 - conj1, a0f - a1f]),
        ]:
            residuals.append(_relative_residual(lhs, parts))
    return np.concatenate(residuals)


def reference_merge(pairs):
    merged = {}
    for key, coef in pairs:
        if coef != 0:
            merged[key] = merged.get(key, 0.0 + 0.0j) + complex(coef)
    return {k: c for k, c in merged.items() if c != 0}


def bits(f):
    """Terms with each coefficient as its repr, which tells -0.0 from 0.0."""
    return [(t[1:], repr(t.coef)) for t in f.terms]


def reference_bits(merged):
    return [(key, repr(c)) for key, c in merged.items()]


def captured_residuals(monkeypatch):
    """The residual arrays handed to VerificationReport.from_residuals, in order."""
    seen = []
    original = VerificationReport.from_residuals.__func__

    def capture(cls, name, residuals, tolerance, context=None):
        seen.append(np.array(residuals))
        return original(cls, name, residuals, tolerance, context)

    monkeypatch.setattr(VerificationReport, "from_residuals", classmethod(capture))
    return seen


# ----------------------------------------------------------------------
# bit-identical residuals


@pytest.mark.parametrize("centrifugal", [None, 0.3])
def test_generator_images_match_the_per_kind_formulas(centrifugal):
    f = sturmian("v", 3, 0.866)
    for g in (f, mixed_sum(), reference_apply(RadialOperator(OperatorKind.KPLUS, 0.866), f)):
        for kind in OperatorKind:
            op = RadialOperator(kind, 0.866, centrifugal)
            assert bits(op.apply(g)) == bits(reference_apply(op, g)), kind


@pytest.mark.parametrize("which", list(SU11_RELATIONS))
def test_commutator_residuals_per_function(problem, which, monkeypatch):
    # the family pass gives every relation's residuals; each must be the per-relation body's
    grid = verification._algebra_grid()
    seen = captured_residuals(monkeypatch)
    for s in verification._s_grid(problem):
        for channel, n_range in FAMILIES:
            sigma = channel_realization(channel, s)
            relation = su11_relation(which, sigma, None)
            want = [reference_commutator(*relation, sturmian(channel, n, s), grid) for n in n_range]
            got = _su11_family_residuals(channel, s, n_range, grid, None)[which]
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
            start = len(seen)
            su11_commutator_report(channel, s, n_range, grid)
            reports = dict(zip(SU11_RELATIONS, seen[start:start + 3]))
            assert np.array_equal(reports[which], np.concatenate(want))


@pytest.mark.parametrize("which", list(SU11_RELATIONS))
def test_commutator_residuals_with_a_wrong_realization(which):
    # the commuted pair then differs from the expected side, so no image is shared
    s, grid = 0.866, verification._algebra_grid()
    for channel, n_range in FAMILIES:
        relation = su11_relation(which, channel_realization(channel, s), s * s)
        got = _su11_family_residuals(channel, s, n_range, grid, s * s)[which]
        for g, n in zip(got, n_range):
            assert np.array_equal(g, reference_commutator(*relation, sturmian(channel, n, s), grid))


def test_casimir_and_a0_residuals(problem, monkeypatch):
    # the family pass gives each Sturmian's Casimir and A0 residuals, in its own report
    grid = verification._algebra_grid()
    seen = captured_residuals(monkeypatch)
    for s in verification._s_grid(problem):
        for channel, n_range in FAMILIES:
            got = _su11_family_residuals(channel, s, n_range, grid, None)
            start = len(seen)
            su11_commutator_report(channel, s, n_range, grid)
            reported = seen[start + 3:]
            for i, n in enumerate(n_range):
                casimir, a0 = reference_casimir(channel, n, s, grid), reference_a0(channel, n, s, grid)
                assert np.array_equal(got["casimir"][i], casimir)
                assert np.array_equal(got["a0_eigenvalue"][i], a0)
                assert np.array_equal(reported[2 * i], casimir)
                assert np.array_equal(reported[2 * i + 1], a0)


@pytest.mark.parametrize("channel", ["u", "v"])
def test_gram_entries(problem, channel, monkeypatch):
    entries = []
    original = verification.integrate_radial

    def recorded(f, scale, rule):
        entries.append(original(f, scale, rule))
        return entries[-1]

    monkeypatch.setattr(verification, "integrate_radial", recorded)
    for s in verification._s_grid(problem):
        worst = verification._gram_residual(channel, s, 12)
        want = reference_gram(channel, s, 12)
        assert entries == want
        targets = [1.0 if i == j else 0.0 for i in range(12) for j in range(i, 12)]
        assert worst == max(abs(float(np.real(v)) - t) for v, t in zip(want, targets))
        entries.clear()


def test_ladder_check_matches_per_call_rules(problem):
    residuals, _ = verification._check_ladder(problem)
    want = []
    for s in verification._s_grid(problem):
        for channel in ("u", "v"):
            k = channel_realization(channel, s) + 1.0
            n_start = 0 if channel == "u" else 1
            for n in range(n_start, n_start + 5):
                up, down = ladder_matrix_elements(channel, n, s)  # builds its own rule
                ng = n - n_start
                up_want = math.sqrt((ng + 1.0) * (2.0 * k + ng))
                want.append(abs(up - up_want) / up_want)
                if ng >= 1:
                    down_want = math.sqrt(ng * (2.0 * k + ng - 1.0))
                    want.append(abs(down - down_want) / down_want)
                else:
                    want.append(abs(down))
    assert residuals == want


def test_ladder_projections_match_per_call_body(problem):
    for s in verification._s_grid(problem):
        for channel in ("u", "v"):
            n_start = 0 if channel == "u" else 1
            for n in range(n_start, n_start + 5):
                rule = build_rule(*_ladder_rule_key(channel, n, s))
                assert _ladder_projections(channel, n, s, rule) == reference_ladder(channel, n, s, rule)


def test_scaling_residuals_match_per_call_body(problem, monkeypatch):
    grid = verification._algebra_grid()
    s = verification._s_grid(problem)[-1]
    fns = [sturmian("v", n, s) for n in (1, 2, 4)] + [sturmian("u", n, s) for n in (0, 3)]
    seen = captured_residuals(monkeypatch)
    for theta in (0.0, 0.7, -0.7, math.log(2.0), 2.9):
        scaling_identity_residual(theta, fns, grid, s)
        assert seen.pop().tobytes() == reference_scaling(theta, fns, grid, s).tobytes()


# ----------------------------------------------------------------------
# work done once


def test_ladder_builds_each_distinct_rule_once(default_params, monkeypatch):
    _builds_each_rule_once(default_params, "ladder_coefficients", 10, monkeypatch)


def test_default_verify_builds_26_rules_over_25_keys(default_params, default_constants, monkeypatch):
    # the assemblers build none: their constants are exact, so every rule here belongs to a check
    import dirac_coulomb

    built = []
    original = build_rule

    def counted(order, alpha):
        built.append((order, alpha))
        return original(order, alpha)

    for name in ("algebra", "coherent", "radial", "verification"):
        monkeypatch.setattr(getattr(dirac_coulomb, name), "build_rule", counted, raising=False)
    verification.run_suite(default_params)
    assert (len(built), len(set(built))) == (26, 25)
    assert Counter(order for order, _ in built) == {16: 1, 32: 11, 48: 14}
    # normalization's rule for the problem's own s, which coherent_norm builds again
    assert [key for key, times in Counter(built).items() if times > 1] == [(48, 2.0 * default_constants.s)]


def test_oracles_compute_each_laguerre_factor_once(default_params, default_constants, monkeypatch):
    from dirac_coulomb import radial, radialfn, spectrum

    computed = []
    original = radialfn.laguerre

    def recorded(n, alpha, x):
        computed.append((n, alpha, np.asarray(x).tobytes()))
        return original(n, alpha, x)

    def once(call):
        computed.clear()
        call()
        assert computed and len(computed) == len(set(computed))

    monkeypatch.setattr(radialfn, "laguerre", recorded)
    s, grid = default_constants.s, verification._algebra_grid()
    for n in (1, 2, 5):
        level = spectrum.bound_level(n, default_params, default_constants)
        once(lambda: radial.ode_residual_first_order(radial.assemble_spinor(level, default_constants)))
        for channel, component in zip("uv", physical_components(level, default_constants)):
            once(lambda: radial.ode_residual_second_order(component, level, default_constants,
                                                          channel=channel))
    for channel, n in (("u", 0), ("u", 3), ("v", 1), ("v", 4)):
        once(lambda: _ladder_projections(channel, n, s, build_rule(*_ladder_rule_key(channel, n, s))))
        once(lambda: scaling_identity_residual(0.7, [sturmian(channel, n, s)], grid, s))


@pytest.mark.parametrize("channel", ["u", "v"])
def test_gram_evaluates_each_sturmian_once(channel, monkeypatch):
    made, evaluated = [], Counter()
    original_evaluate = LaguerreSum.evaluate

    def counted(self, *args):
        evaluated[id(self)] += 1
        return original_evaluate(self, *args)

    def recorded(*args):
        made.append(sturmian(*args))
        return made[-1]

    monkeypatch.setattr(LaguerreSum, "evaluate", counted)
    monkeypatch.setattr(verification, "sturmian", recorded)
    verification._gram_residual(channel, 0.866, 12)
    assert len(made) == 12
    assert [evaluated[id(f)] for f in made] == [1] * 12


# ----------------------------------------------------------------------
# LaguerreSum operations keep the merged coefficients bit for bit


def mixed_sum():
    # repeated keys, a complex coefficient and a complex decay
    parts = [LaguerreSum.single(c, power=p, decay=d, degree=n, alpha=2.1, argscale=2.0)
             for c, p, d, n in [(1.3, 0.87, 0.6, 3), (-0.4, 1.87, 0.6, 2), (0.25 - 0.5j, 0.87, 0.6, 2),
                                (0.7, 0.87, 0.6 + 0.2j, 3), (-1e-300, 1.87, 0.6, 3)]]
    return sum(parts[1:], parts[0])


@pytest.mark.parametrize("scalar", [-1.0, 2.5, -1.0j, 0.5 - 0.25j, 0.0, 1e-310, -0.0])
def test_scalar_product(scalar):
    f = mixed_sum()
    want = reference_merge((key, c * scalar) for key, c in f._map.items())
    assert bits(f * scalar) == bits(scalar * f) == reference_bits(want)


def test_negation_clears_negative_zero_parts():
    f = mixed_sum() * -1.0
    assert all(math.copysign(1.0, t.coef.imag) == 1.0 for t in f.terms if t.coef.imag == 0.0)


def test_sum_difference_and_power():
    f, g = mixed_sum(), mixed_sum().derivative()
    assert bits(f + g) == reference_bits(reference_merge([*f._map.items(), *g._map.items()]))
    assert bits(f - f) == []
    minus = reference_merge((key, c * -1.0) for key, c in g._map.items())
    assert bits(f - g) == reference_bits(reference_merge([*f._map.items(), *minus.items()]))
    for k in (1, -1, 0.5):
        shifted = reference_merge(((p + k, d, n, a, b), c) for (p, d, n, a, b), c in f._map.items())
        assert bits(f.times_power(k)) == reference_bits(shifted)


def test_times_power_merges_powers_that_round_together():
    f = (LaguerreSum.single(1.0, power=1e-17, decay=1.0)
         + LaguerreSum.single(2.0, power=0.0, decay=1.0))
    assert len(f) == 2
    assert [(t.power, t.coef) for t in f.times_power(1.0).terms] == [(1.0, 3.0 + 0j)]


@pytest.mark.parametrize("k", [1, -1, 0.5, 2.0])
def test_times_power_fast_path_matches_the_merge(k):
    # distinct shifted keys skip the merge; keys that round together fall back to it
    colliding = (LaguerreSum.single(1.0, power=1e-17, decay=1.0)
                 + LaguerreSum.single(2.0, power=0.0, decay=1.0))
    images = RadialOperator(OperatorKind.KMINUS, 0.866).apply(sturmian("v", 3, 0.866))
    for f in (mixed_sum(), mixed_sum().derivative(), mixed_sum() * -1.0, images, colliding):
        merged = LaguerreSum._of(((p + k, d, n, a, b), c) for (p, d, n, a, b), c in f._map.items())
        assert bits(f.times_power(k)) == bits(merged)
    assert len(colliding.times_power(k)) == 1
