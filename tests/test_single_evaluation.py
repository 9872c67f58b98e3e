"""The verify checks compute each intermediate once and print the same bits.

Each reference below is the per-call code the checks would run if they shared
no work: every jet of a test function built from fresh derivatives and
evaluated alone, term by term, every operator image taken from its own jet,
one commutator relation and one Sturmian at a time, every Sturmian evaluated
inside each Gram integrand, every ladder rule rebuilt, and the LaguerreSum
operations merged term by term.  Results are compared with ==, never with a
tolerance.
"""

import math
from collections import Counter
from functools import partial

import numpy as np
import pytest

from dirac_coulomb import (Alignment, LaguerreSum, LaguerreTerm, ProblemParams, algebra, assemble_coherent_spinor,
                           assemble_spinor, derive_constants, physical_components, radial_channel, sturmian,
                           sturmian_coherent, verification)
from dirac_coulomb.algebra import (
    OperatorKind,
    RadialOperator,
    _relative_residual,
    _su11_family_residuals,
    _ladder_projections,
    _ladder_rule_key,
    scaling_identity_residual,
    su11_commutator_report,
    SU11_RELATIONS,
)
from dirac_coulomb.quadrature import build_rule, integrate_radial
from dirac_coulomb.radial import radial_window
from dirac_coulomb.report import VerificationReport
from dirac_coulomb.special import laguerre
from reference import ladder_matrix_elements, second_order_residual
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
    """RadialOperator.apply(f) as it was written before the generators shared
    their parts: one formula per kind, K+- building their own A1 image."""
    kind = op.kind
    if kind in (OperatorKind.A0, OperatorKind.A1, OperatorKind.K0):
        sign = -1.0 if kind is OperatorKind.A1 else 1.0
        pr2 = f.derivative().derivative() * (-1.0) + f.derivative().times_power(-1) * 2.0 * -1.0
        return (pr2.times_power(1) + f.times_power(-1) * op._cent() + f.times_power(1) * sign) * 0.5
    a1 = reference_apply(RadialOperator(OperatorKind.A1, op.s, op.centrifugal), f)
    i_a2 = f.derivative().times_power(1) + f
    return a1 + i_a2 if kind is OperatorKind.KPLUS else a1 + i_a2 * -1.0


def su11_relation(name, sigma, fault_centrifugal):
    """Operators (X, Y, [(c_j, Z_j)]) of one relation; a fault constant
    replaces sigma(sigma+1) in the commuted pair only."""
    x, y, expected = SU11_RELATIONS[name]
    return (
        RadialOperator(x, sigma, fault_centrifugal),
        RadialOperator(y, sigma, fault_centrifugal),
        [(coef, RadialOperator(z, sigma)) for coef, z in expected],
    )


def reference_jet(f, r, order):
    """f, f', ..., f^(order) on r, each derivative built afresh and evaluated alone."""
    jet = [reference_evaluate(r, f)[0]]
    for _ in range(order):
        f = LaguerreSum._of(f._map.items()).derivative()
        jet.append(reference_evaluate(r, f)[0])
    return jet


def image(op, jet, r):
    """The jet of op g from the jet of g on r."""
    return algebra._image(op.kind, op._cent(), jet, r)


def twice(x, y, f, r):
    """X Y f on r, from f's own jet."""
    return image(x, image(y, reference_jet(f, r, 4), r), r)[0]


def reference_commutator(x, y, expected, f, grid):
    xy, yx = twice(x, y, f, grid), twice(y, x, f, grid)
    zval = sum(coef * image(z, reference_jet(f, grid, 2), grid)[0] for coef, z in expected)
    return _relative_residual(xy - yx - zval, [xy, yx, zval, f(grid)])


def reference_casimir(channel, n, s, grid):
    sigma = radial_channel(channel, s).sigma
    k_barg = sigma + 1.0
    f = sturmian(channel, n, s)
    kp = RadialOperator(OperatorKind.KPLUS, sigma)
    km = RadialOperator(OperatorKind.KMINUS, sigma)
    k0 = RadialOperator(OperatorKind.K0, sigma)
    lhs = twice(k0, k0, f, grid) - twice(kp, km, f, grid) - image(k0, reference_jet(f, grid, 2), grid)[0]
    rhs = k_barg * (k_barg - 1.0) * f(grid)
    return _relative_residual(lhs - rhs, [lhs, rhs, f(grid)])


def reference_a0(channel, n, s, grid):
    f = sturmian(channel, n, s)
    lhs = image(RadialOperator(OperatorKind.A0, radial_channel(channel, s).sigma), reference_jet(f, grid, 2), grid)[0]
    rhs = (n + s) * f(grid)
    return _relative_residual(lhs - rhs, [lhs, rhs])


def reference_gram(channel, s, n_count):
    n_start = 0 if channel == "u" else 1
    fns = [sturmian(channel, n, s) for n in range(n_start, n_start + n_count)]
    rule = build_rule(max(48, n_count + 16), 2.0 * s + 1.0 if channel == "v" else 2.0 * s - 1.0)
    return [integrate_radial(lambda r: fi(r) * fns[j](r) * r, 1.0, rule)
            for i, fi in enumerate(fns) for j in range(i, len(fns))]


def reference_ladder(channel, n, s, rule):
    sigma = radial_channel(channel, s).sigma
    f_n = sturmian(channel, n, s)

    def kp(r):
        return image(RadialOperator(OperatorKind.KPLUS, sigma), reference_jet(f_n, r, 2), r)[0]

    def km(r):
        return image(RadialOperator(OperatorKind.KMINUS, sigma), reference_jet(f_n, r, 2), r)[0]

    f_up = sturmian(channel, n + 1, s)
    up = integrate_radial(lambda r: f_up(r) * kp(r) * r, 1.0, rule)
    if (n if channel == "u" else n - 1) >= 1:
        f_dn = sturmian(channel, n - 1, s)
        down = integrate_radial(lambda r: f_dn(r) * km(r) * r, 1.0, rule)
    else:
        norm_sq = integrate_radial(lambda r: abs(km(r)) ** 2 * r, 1.0, rule)
        down = math.sqrt(max(float(np.real(norm_sq)), 0.0))
    return float(np.real(up)), float(np.real(down))


def reference_scaling(theta, fns, grid, sigmas):
    ch, sh = math.cosh(theta), math.sinh(theta)
    residuals = []
    shrink = math.exp(-theta)
    for f, sigma in zip(fns, sigmas):
        a0 = RadialOperator(OperatorKind.A0, sigma)
        a1 = RadialOperator(OperatorKind.A1, sigma)
        a0f, a1f = (image(op, reference_jet(f, grid, 2), grid)[0] for op in (a0, a1))
        # S_-theta g (r) = e^-theta g(e^-theta r), with S_theta f from LaguerreSum.scaled
        conj0, conj1 = (shrink * image(op, reference_jet(f.scaled(theta), shrink * grid, 2), shrink * grid)[0]
                        for op in (a0, a1))
        for lhs, parts in [
            (conj0 - (ch * a0f + sh * a1f), [conj0, a0f, a1f]),
            (conj1 - (sh * a0f + ch * a1f), [conj1, a0f, a1f]),
            ((conj0 + conj1) - math.exp(theta) * (a0f + a1f), [conj0 + conj1, a0f + a1f]),
            ((conj0 - conj1) - math.exp(-theta) * (a0f - a1f), [conj0 - conj1, a0f - a1f]),
        ]:
            residuals.append(_relative_residual(lhs, parts))
    return np.concatenate(residuals)


def reference_evaluate(r, *sums):
    """LaguerreSum.evaluate_all as it was before the batch kernel: each sum adds
    its terms one by one, with one cache of r**power, exp(-decay r) and
    L_n^alpha(argscale r) shared by all the sums."""
    rv = np.asarray(r, dtype=float)
    powers, decays, polys = {}, {}, {}
    values = []
    for f in sums:
        out = np.zeros(rv.shape, dtype=complex)
        for (p, d, n, a, b), c in f._map.items():
            if p not in powers:
                powers[p] = rv ** p
            if d not in decays:
                decays[d] = np.exp(-d * rv)
            if (n, a, b) not in polys:
                polys[n, a, b] = laguerre(n, a, b * rv)
            out += c * powers[p] * decays[d] * polys[n, a, b]
        out = out.real if f.is_real else out
        values.append(out.item() if np.isscalar(r) else out)
    return values


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
            sigma = radial_channel(channel, s).sigma
            relation = su11_relation(which, sigma, None)
            want = [reference_commutator(*relation, sturmian(channel, n, s), grid) for n in n_range]
            got = _su11_family_residuals([(channel, s, n_range)], grid, None)[which]
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
        relation = su11_relation(which, radial_channel(channel, s).sigma, s * s)
        got = _su11_family_residuals([(channel, s, n_range)], grid, s * s)[which]
        for g, n in zip(got, n_range):
            assert np.array_equal(g, reference_commutator(*relation, sturmian(channel, n, s), grid))


def test_casimir_and_a0_residuals(problem, monkeypatch):
    # the family pass gives each Sturmian's Casimir and A0 residuals, in its own report
    grid = verification._algebra_grid()
    seen = captured_residuals(monkeypatch)
    for s in verification._s_grid(problem):
        for channel, n_range in FAMILIES:
            got = _su11_family_residuals([(channel, s, n_range)], grid, None)
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
    # all 78 entries of a family are the rows of one integral, each with the bits of its own
    entries = []
    original = verification.integrate_radial

    def recorded(f, scale, rule):
        entries.append(original(f, scale, rule))
        return entries[-1]

    monkeypatch.setattr(verification, "integrate_radial", recorded)
    residuals, _ = verification._check_orthonormality(channel, {}, problem)
    s_values = verification._s_grid(problem)
    assert len(entries) == len(residuals) == len(s_values)
    targets = [1.0 if i == j else 0.0 for i in range(12) for j in range(i, 12)]
    for s, got, worst in zip(s_values, entries, residuals):
        want = reference_gram(channel, s, 12)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert worst == max(abs(float(np.real(v)) - t) for v, t in zip(want, targets))


def test_ladder_check_matches_per_call_rules(problem):
    residuals, _ = verification._check_ladder({}, problem)
    want = []
    for s in verification._s_grid(problem):
        for channel in ("u", "v"):
            k = radial_channel(channel, s).sigma + 1.0
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
    # the levels of one rule are projected together, each as alone
    for s in verification._s_grid(problem):
        for channel in ("u", "v"):
            n_start = 0 if channel == "u" else 1
            levels = range(n_start, n_start + 5)
            rule = build_rule(*_ladder_rule_key(channel, n_start, s))
            jet = LaguerreSum.jets(rule.nodes / 2.0, 2, *(sturmian(channel, n, s) for n in range(n_start, n_start + 6)))
            want = [reference_ladder(channel, n, s, rule) for n in levels]
            assert _ladder_projections(channel, levels, s, rule, jet) == want
            assert [_ladder_projections(channel, [n], s, rule, jet)[0] for n in levels] == want


def test_ode_second_check_matches_the_chain_of_each_component(problem):
    # the 20 components of the check's one jets call, each with the residuals of its own chain
    residuals, _ = verification._check_ode_second({}, problem)
    want = [float(np.max(second_order_residual(component, level, constants, channel)))
            for constants, level in verification._levels(problem, 5)
            for channel, component in zip("vu", physical_components(level, constants)[::-1])]
    assert residuals == want


def test_scaling_residuals_match_per_call_body(problem, monkeypatch):
    grid = verification._algebra_grid()
    s = verification._s_grid(problem)[-1]
    probes = (("v", 1), ("v", 2), ("v", 4), ("u", 0), ("u", 3))
    fns = [sturmian(channel, n, s) for channel, n in probes]
    sigmas = [radial_channel(channel, s).sigma for channel, _ in probes]
    thetas = (0.0, 0.7, -0.7, math.log(2.0), 2.9)
    seen = []  # the four identities' residual arrays of each theta, in turn

    def capture(lhs, parts):
        seen.append(_relative_residual(lhs, parts))
        return seen[-1]

    monkeypatch.setattr(algebra, "_relative_residual", capture)
    # all thetas in one batch, and each alone
    maxima = scaling_identity_residual(thetas, fns, grid, sigmas)
    assert [scaling_identity_residual([theta], fns, grid, sigmas)[0] for theta in thetas] == maxima
    for i, theta in enumerate([*thetas, *thetas]):
        want = reference_scaling(theta, fns, grid, sigmas)
        assert np.stack(seen[4 * i:4 * i + 4], axis=1).tobytes() == want.tobytes()  # function by function
        assert maxima[i % len(thetas)] == float(np.max(want))


# ----------------------------------------------------------------------
# work done once


def test_ladder_builds_each_distinct_rule_once(default_params, monkeypatch):
    _builds_each_rule_once(default_params, "ladder_coefficients", 10, monkeypatch)


def test_default_verify_builds_25_rules_in_one_call(default_params, default_constants, monkeypatch):
    # the assemblers build none: their constants are exact, so every rule here belongs to a check
    import dirac_coulomb

    calls = []
    original = dirac_coulomb.quadrature.build_rules

    def counted(keys):
        calls.append(list(keys))
        return original(calls[-1])

    # build_rule calls quadrature.build_rules; the suite reads every rule from one build_rules call
    for name in ("algebra", "coherent", "quadrature", "radial", "verification"):
        monkeypatch.setattr(getattr(dirac_coulomb, name), "build_rules", counted, raising=False)
    verification.run_suite(default_params)
    (built,) = calls
    assert len(built) == len(set(built)) == 25
    assert Counter(order for order, _ in built) == {16: 1, 32: 11, 48: 13}
    # normalization's rule for the problem's own s, which coherent_norm reads too
    assert (48, 2.0 * default_constants.s) in built


def test_suite_rules_give_each_check_the_residuals_of_rules_built_alone(problem, monkeypatch):
    batched = verification.run_suite(problem)
    monkeypatch.setattr(verification, "build_rules", lambda keys: [build_rule(*key) for key in keys])
    assert verification.run_suite(problem) == batched


def reference_normalization(params):
    """The normalization check with each variant's own rule, F and G evaluated apart."""
    residuals = []
    for constants, level in verification._levels(params, 8):
        rule = build_rule(48, 2.0 * constants.s)
        spinor = assemble_spinor(level, constants)
        total = integrate_radial(lambda r: spinor.F(r) ** 2 + spinor.G(r) ** 2, level.a, rule)
        residuals.append(abs(float(np.real(total)) - 1.0))
    return residuals


def reference_coherent_norm(params):
    """The coherent_norm check with its own rule, F and G evaluated apart."""
    constants = derive_constants(params)
    rule = build_rule(48, 2.0 * constants.s)
    residuals = []
    for mod in verification.XI_GRID:
        for xi in (mod, -mod, mod * np.exp(1.1j)):
            spinor = assemble_coherent_spinor(params, constants, xi)
            decay = spinor.a_ref * (1.0 + xi) / (1.0 - xi)
            total = integrate_radial(lambda r: np.abs(spinor.F(r)) ** 2 + np.abs(spinor.G(r)) ** 2,
                                     complex(decay).real, rule)
            residuals.append(abs(float(np.real(total)) - 1.0))
    return residuals


def test_norm_checks_evaluate_f_and_g_together_with_the_same_bits(problem, monkeypatch):
    evaluated = []
    original_all = LaguerreSum.evaluate_all

    def kernel(r, *sums):
        evaluated.append(len(sums))
        return original_all(r, *sums)

    monkeypatch.setattr(LaguerreSum, "evaluate_all", staticmethod(kernel))
    memo = {}
    got = verification._check_normalization(memo, problem)[0], verification._check_coherent_norm(memo, problem)[0]
    assert evaluated == [2] * 25  # one evaluation of (F, G) per spinor: 16 levels, then 9 coherent states
    assert got == (reference_normalization(problem), reference_coherent_norm(problem))


def test_oracles_compute_each_laguerre_factor_once(default_params, default_constants, monkeypatch):
    # each (alpha, argscale r) recurrence runs once per kernel call: in evaluate_all through laguerre
    # for a lone degree and through laguerre_sequence for several, in jets as one row of its one column
    from dirac_coulomb import radial, radialfn, spectrum

    runs, calls = [], []
    original_all, original_jets, original_laguerre, original_sequence = (
        LaguerreSum.evaluate_all, LaguerreSum.jets, radialfn.laguerre, radialfn.laguerre_sequence)

    def kernel(r, *sums):
        calls.append(len(runs))
        return original_all(r, *sums)

    def jets(r, order, *sums):
        calls.append(len(runs))
        return original_jets(r, order, *sums)

    def lone(n, alpha, x):
        runs.append((alpha, np.asarray(x).tobytes()))
        return original_laguerre(n, alpha, x)

    def sequence(alpha, x):
        if np.isscalar(alpha):
            runs.append((alpha, np.asarray(x).tobytes()))
        else:
            runs.extend((a, row.tobytes()) for a, row in zip(np.ravel(alpha).tolist(), x))
        return original_sequence(alpha, x)

    def once(call):
        runs.clear()
        calls.clear()
        call()
        assert calls and runs
        for start, end in zip(calls, [*calls[1:], len(runs)]):
            assert len(set(runs[start:end])) == end - start

    monkeypatch.setattr(LaguerreSum, "evaluate_all", staticmethod(kernel))
    monkeypatch.setattr(LaguerreSum, "jets", staticmethod(jets))
    monkeypatch.setattr(radialfn, "laguerre", lone)
    monkeypatch.setattr(radialfn, "laguerre_sequence", sequence)
    s, grid = default_constants.s, verification._algebra_grid()
    for n in (1, 2, 5):
        level = spectrum.bound_level(n, default_params, default_constants)
        once(lambda: radial.ode_residual_first_order(radial.assemble_spinor(level, default_constants)))
        once(lambda: radial.ode_residual_second_order(physical_components(level, default_constants)[1], level,
                                                      default_constants))
    # the batched checks, each in one kernel call: every Gram family, every ladder rule, the v and u
    # components of every level, and the functions and their dilations of the scaling identities
    for check in (partial(verification._check_orthonormality, "u"),
                  partial(verification._check_orthonormality, "v"),
                  verification._check_ladder, verification._check_ode_second):
        once(lambda: check({}, default_params))
    probes = [("v", 1), ("v", 2), ("v", 4), ("u", 0), ("u", 3)]
    once(lambda: scaling_identity_residual([0.0, 0.7, -0.7], [sturmian(channel, n, s) for channel, n in probes], grid,
                                           [radial_channel(channel, s).sigma for channel, _ in probes]))
    once(lambda: su11_commutator_report("v", s, range(1, 11), grid))
    once(lambda: verification.coherent_closed_residuals(s, [("u", 0.4), ("v", 0.4), ("u", -0.2j)]))


def test_default_verify_makes_one_jets_call_per_check(default_params, monkeypatch):
    # the check that runs each LaguerreSum.jets call of a default suite, in turn
    calls, running = [], []
    original_jets = LaguerreSum.jets

    def kernel(r, order, *sums):
        calls.append(running[-1])
        return original_jets(r, order, *sums)

    monkeypatch.setattr(LaguerreSum, "jets", staticmethod(kernel))
    for name, check in verification._registry(False).items():
        running.append(name)
        check(default_params)
    assert calls == ["sturmian_orthonormality_u", "sturmian_orthonormality_v", "commutator_k0_kplus",
                     "ladder_coefficients", "scaling_identities", "ode_second_order"]


def test_closed_forms_are_evaluated_in_one_call(problem, monkeypatch):
    # the check's 12 closed forms in one evaluate_all call, each with the bits of its own evaluation
    s = derive_constants(problem).s
    requests = [(channel, xi) for channel in ("u", "v") for mod in verification.XI_GRID
                for xi in (mod, mod * np.exp(2.0j))]
    grid = np.geomspace(*radial_window(1.0), 200)
    want = []
    for channel, xi in requests:
        closed = sturmian_coherent(channel, s, xi)(grid)
        values, _, _ = verification.coherent_truncated_sum(channel, s, xi, grid)
        want.append(float(np.max(np.abs(closed - values)) / np.max(np.abs(closed))))
    evaluated = []
    original_all = LaguerreSum.evaluate_all
    monkeypatch.setattr(LaguerreSum, "evaluate_all",
                        staticmethod(lambda r, *sums: evaluated.append(len(sums)) or original_all(r, *sums)))
    assert verification._check_coherent_closed({}, problem)[0] == want
    assert evaluated == [12]


@pytest.mark.parametrize("channel", ["u", "v"])
def test_gram_evaluates_each_sturmian_once(default_params, channel, monkeypatch):
    # the 12 Sturmians of each of the 5 families, each built once and evaluated once, in one order-0 jets call
    made, gathered = [], []
    original_jets = LaguerreSum.jets

    def kernel(r, order, *sums):
        gathered.append((order, np.asarray(r), sums))
        return original_jets(r, order, *sums)

    def recorded(*args):
        made.append(sturmian(*args))
        return made[-1]

    monkeypatch.setattr(LaguerreSum, "jets", staticmethod(kernel))
    monkeypatch.setattr(verification, "sturmian", recorded)
    verification._check_orthonormality(channel, {}, default_params)
    assert len(made) == 60
    ((order, r, sums),) = gathered
    assert order == 0 and [id(f) for f in sums] == [id(f) for f in made]
    # each family on its own rule's radii
    for i, s in enumerate(verification._s_grid(default_params)):
        nodes = build_rule(48, radial_channel(channel, s).alpha).nodes / 2.0
        assert all(np.array_equal(row, nodes) for row in r[12 * i:12 * i + 12])


@pytest.mark.parametrize("levels", [range(1, 11), range(1, 4), range(2, 9)])
def test_family_pass_makes_one_kernel_call_per_family(levels, monkeypatch):
    # the jets (f, ..., f^(4)) of all the family's Sturmians, in one call
    calls = []
    original_jets = LaguerreSum.jets

    def kernel(r, order, *sums):
        calls.append((order, [bits(f) for f in sums]))
        return original_jets(r, order, *sums)

    monkeypatch.setattr(LaguerreSum, "jets", staticmethod(kernel))
    su11_commutator_report("v", 0.866, levels, verification._algebra_grid())
    assert calls == [(4, [bits(sturmian("v", n, 0.866)) for n in levels])]


# ----------------------------------------------------------------------
# the batch kernel keeps the bits of the term-by-term loop


def same_bits(got, want):
    """Equal values (nan matching nan), equal types and equal signs of every part."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    for g, w in ((got.real, want.real), (got.imag, want.imag)):
        assert np.array_equal(g, w, equal_nan=True)
        assert np.array_equal(np.signbit(g), np.signbit(w))


def family_block(channel, s, levels):
    """The sums a family pass hands the kernel: the jet (f, ..., f^(4)) of each Sturmian."""
    sums = []
    for n in levels:
        sums.append(sturmian(channel, n, s))
        for _ in range(4):
            sums.append(sums[-1].derivative())
    return sums


def tiny_sums():
    # coefficients near and below the smallest normal double
    return [LaguerreSum.single(1e-310, power=0.87, decay=0.6, degree=2, alpha=2.1, argscale=2.0),
            LaguerreSum.single(-1e-300, power=1.87, decay=0.6, degree=3, alpha=2.1, argscale=2.0)
            + LaguerreSum.single(1e-310, power=0.5, decay=1.0)]


KERNEL_BLOCKS = {
    "repeated_keys": lambda: [mixed_sum().derivative(), mixed_sum().derivative().derivative()],
    "complex": lambda: [mixed_sum(), mixed_sum() * (0.5 - 2j)],
    "tiny": tiny_sums,
    "empty": lambda: [mixed_sum() + mixed_sum() * -1.0, sturmian("v", 2, 0.866), mixed_sum() + mixed_sum() * -1.0],
    "mixed_real_and_complex": lambda: [sturmian("u", 3, 1.5), mixed_sum(), *tiny_sums(), sturmian("v", 1, 1.5)],
    "family_block_v": lambda: family_block("v", 0.866, range(1, 6)),
    "family_block_u": lambda: family_block("u", 2.2, range(5, 7)),
    # r**300 overflows: the float products give inf where the complex ones give nan
    "overflow": lambda: [LaguerreSum.single(1e-300, power=300.0, decay=0.5), sturmian("v", 3, 0.866)],
    # finite products whose sums overflow: the float sums reach the same inf as the complex real parts
    "sum_overflow": lambda: [LaguerreSum(LaguerreTerm(sign * 1.5e307, 0.01 * k, 0.0, 0, 0.0, 1.0)
                                         for k in range(17)) for sign in (1.0, -1.0)],
    # more than 16 terms at a 1-D r: a complex batch, and a real batch whose float products overflow
    "complex_batch": lambda: [f * (0.5 - 2j) for f in family_block("v", 0.866, range(1, 4))] + [mixed_sum()],
    "overflow_batch": lambda: [LaguerreSum.single(1e-300, power=300.0, decay=0.5),
                               *family_block("v", 0.866, range(1, 4))],
}


@pytest.mark.parametrize("block", list(KERNEL_BLOCKS))
@pytest.mark.parametrize("r", [np.geomspace(0.02, 30.0, 57), 1.3, np.array([1.3]), np.geomspace(1.0, 4e3, 9),
                               np.array(1.3), np.geomspace(0.02, 30.0, 57).reshape(3, 19)],
                         ids=["grid", "scalar", "one_point", "far", "zero_d", "two_d"])
def test_kernel_matches_the_term_by_term_loop(block, r):
    sums = KERNEL_BLOCKS[block]()
    with np.errstate(all="ignore"):
        got = LaguerreSum.evaluate_all(r, *sums)
        want = reference_evaluate(r, *sums)
    assert len(got) == len(sums)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        same_bits(g, w)
    if block in ("overflow", "overflow_batch") and np.size(r) > 1:
        assert np.isnan(got[0]).any()


def test_kernel_of_no_sums():
    assert LaguerreSum.evaluate_all(np.geomspace(0.1, 1.0, 5)) == ()


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
    assert bits(f + f * -1.0) == []
    minus = reference_merge((key, c * -1.0) for key, c in g._map.items())
    assert bits(f + g * -1.0) == reference_bits(reference_merge([*f._map.items(), *minus.items()]))
    images = RadialOperator(OperatorKind.KMINUS, 0.866).apply(sturmian("v", 3, 0.866))
    for h in (f, g, f * -1.0, images):
        for k in (1, -1, 0.5, 2.0):
            shifted = reference_merge(((p + k, d, n, a, b), c) for (p, d, n, a, b), c in h._map.items())
            assert bits(h.times_power(k)) == reference_bits(shifted)


def test_times_power_merges_powers_that_round_together():
    f = (LaguerreSum.single(1.0, power=1e-17, decay=1.0)
         + LaguerreSum.single(2.0, power=0.0, decay=1.0))
    assert len(f) == 2
    assert [(t.power, t.coef) for t in f.times_power(1.0).terms] == [(1.0, 3.0 + 0j)]
