"""The one-pass evaluators give bit for bit what per-degree evaluation gives.

Each reference below evaluates every degree and every term on its own,
with its own copy of the Laguerre recurrence run from degree 0, as the
library did before it ran each recurrence once and before it summed the
coherent series in blocks of degrees; results are compared with ==, never
with a tolerance.
"""

import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dirac_coulomb import LaguerreSum, laguerre, laguerre_sequence, radial_channel, verification
from dirac_coulomb.coherent import sturmian_coherent, truncation_order
from dirac_coulomb.special import log_gamma
from dirac_coulomb.verification import (
    coherent_closed_residuals,
    coherent_truncated_sum,
    coherent_truncated_sums,
    generating_reference_sum,
)
from reference import sturmian_term

# the grid of coherent_closed_residuals
GRID = np.geomspace(0.01, 40.0, 200)

# {(alpha, x bytes): [L_0, L_1, ...]} of the last (alpha, x) asked for: a higher degree at the
# same (alpha, x) continues the same loop from degree 0, so long series stay linear in the degree
_LADDER = {}


def laguerre_from_zero(n, alpha, x):
    scalar = np.isscalar(x)
    xv = np.asarray(x, dtype=float)
    key = (alpha, xv.tobytes())
    if key not in _LADDER:
        _LADDER.clear()
        _LADDER[key] = [np.ones_like(xv), 1.0 + alpha - xv]
    ladder = _LADDER[key]
    for k in range(len(ladder) - 1, n):
        ladder.append(((2.0 * k + 1.0 + alpha - xv) * ladder[k] - (k + alpha) * ladder[k - 1]) / (k + 1.0))
    return float(ladder[n]) if scalar else ladder[n]


def generating_per_degree(nu, y, x, rel_tail=1e-16):
    y = complex(y)
    total = 0.0 + 0.0j
    quiet = 0
    for n in range(4000):
        term = laguerre_from_zero(n, nu, x) * y**n
        total += term
        if abs(term) <= rel_tail * max(abs(total), 1.0):
            quiet += 1
            if quiet >= 4:
                break
        else:
            quiet = 0
    return total


def term_by_term(f, r):
    rv = np.asarray(r, dtype=float)
    out = np.zeros(rv.shape, dtype=complex)
    for t in f.terms:
        out += (t.coef * rv ** t.power * np.exp(-t.decay * rv)
                * laguerre_from_zero(t.degree, t.alpha, t.argscale * rv))
    return out.real if f.is_real else out


@lru_cache(maxsize=None)
def sturmian_on_grid(channel, n, s):
    # many xi share a basis function; each is still made from degree 0.  Its one term is
    # evaluated as term_by_term does, but without the LaguerreSum merge, which drops a
    # coefficient that underflowed to 0: where r^s overflows, that term is 0 * inf = nan
    t = sturmian_term(channel, n, s)
    return (0j + complex(t.coef) * GRID ** t.power * np.exp(-complex(t.decay) * GRID)
            * laguerre_from_zero(t.degree, t.alpha, t.argscale * GRID)).real


def coherent_per_degree(channel, s, xi, sup_tail=1e-10):
    k = radial_channel(channel, s).sigma + 1.0
    xi = complex(xi)
    n_l2 = truncation_order(k, xi)
    total = np.zeros(GRID.shape, dtype=complex)
    # every Perelomov weight up front, n_l2 + 400 of them
    pref = (1.0 - abs(xi) ** 2) ** k
    lg2k = log_gamma(2.0 * k)
    weights = np.empty(n_l2 + 401, dtype=complex)
    for n in range(weights.size):
        weights[n] = pref * math.exp(0.5 * (log_gamma(n + 2.0 * k) - log_gamma(n + 1.0) - lg2k)) * xi**n
    scale = 0.0
    quiet = 0
    n_used = 0
    for ng in range(weights.size):
        term = weights[ng] * sturmian_on_grid(channel, ng if channel == "u" else ng + 1, s)
        total += term
        scale = max(scale, float(np.max(np.abs(total))))
        n_used = ng
        if ng >= n_l2:
            if float(np.max(np.abs(term))) <= sup_tail * scale:
                quiet += 1
                if quiet >= 3:
                    break
            else:
                quiet = 0
    return total, n_used, n_l2


class TestLaguerreSequence:
    @pytest.mark.parametrize("x", [0.0, 0.37, 7.5, 63.0])
    def test_scalar_matches_every_degree(self, x):
        for k, value in zip(range(61), laguerre_sequence(2.3, x)):
            assert type(value) is float
            assert value == laguerre(k, 2.3, x) == laguerre_from_zero(k, 2.3, x)

    def test_array_matches_every_degree(self):
        x = np.geomspace(1e-3, 80.0, 41)
        for k, value in zip(range(61), laguerre_sequence(0.9, x)):
            assert np.array_equal(value, laguerre(k, 0.9, x))
            assert np.array_equal(value, laguerre_from_zero(k, 0.9, x))

    def test_column_of_orders_matches_each_scalar_order(self):
        orders = (-0.9, 0.3, 2.3, 41.0, 119.0)
        x = np.geomspace(1e-3, 250.0, 41)
        rows = zip(*(laguerre_sequence(a, x) for a in orders))
        for k, stacked, scalar in zip(range(400), laguerre_sequence(np.array(orders)[:, None], x), rows):
            assert stacked.shape == (len(orders), x.size)
            assert stacked.tobytes() == np.array(scalar).tobytes()

    def test_column_of_orders_beside_rows_of_arguments(self):
        # row i runs order i on its own x, as LaguerreSum.jets runs each distinct (order, argscale)
        orders, scales = np.array([[-0.9], [0.3], [0.3], [41.0]]), np.array([[2.0], [2.0], [1.4], [0.5]])
        r = np.geomspace(1e-3, 120.0, 41)
        rows = zip(*(laguerre_sequence(a, b * r) for a, b in zip(orders[:, 0], scales[:, 0])))
        for k, stacked, scalar in zip(range(200), laguerre_sequence(orders, scales * r), rows):
            assert stacked.tobytes() == np.array(scalar).tobytes()


class TestSeriesSums:
    @pytest.mark.parametrize("nu, y, x", [(1.5, 0.3, 0.5), (2.4, -0.55, 2.0),
                                          (3.0, 0.7 * np.exp(2j * np.pi / 3.0), 1.0),
                                          (2.4, 0.3 + 0.2j, 1.0)])
    def test_generating_reference_sum(self, nu, y, x):
        # alone, and among the verify check's ys in both orders: each sum keeps the bits it has alone
        ys = [y, 0.3, -0.3, 0.55, -0.55, 0.7, 0.3 + 0.2j, 0.7 * np.exp(2j * np.pi / 3.0)]
        for batch in ([y], ys, ys[::-1]):
            assert generating_reference_sum(nu, batch, x) == [generating_per_degree(nu, v, x) for v in batch]

    # at s = 18 and 28 with |xi| >= 0.85 the closed form and the series disagree
    # (the large-s coherent defect): only equality with the reference is asserted
    @pytest.mark.parametrize("channel", ["u", "v"])
    @pytest.mark.parametrize("s, xi", [(0.888, 0.4 * np.exp(2.0j)), (1.7, 0.6 + 0.6j), (0.6, -0.2)] + [
        pytest.param(s, mod * np.exp(1j * phase), id=f"s{s}-mod{mod}-phase{phase:.3g}")
        for s in (0.3, 1.0, 3.0, 8.0, 18.0, 28.0) for mod in (0.0, 0.5, 0.85, 0.9)
        for phase in (0.0, 2.0, math.pi, -1.1)])
    def test_coherent_truncated_sum(self, channel, s, xi):
        values, n_used, n_l2 = coherent_truncated_sum(channel, s, xi, GRID)
        want, want_used, want_l2 = coherent_per_degree(channel, s, xi)
        assert (n_used, n_l2) == (want_used, want_l2)
        assert values.tobytes() == want.tobytes()
        closed = sturmian_coherent(channel, s, xi)(GRID)
        assert coherent_closed_residuals(s, [(channel, xi)]) == [float(
            np.max(np.abs(closed - want)) / np.max(np.abs(closed)))]

    @settings(max_examples=30)
    @given(s=st.floats(math.log(0.05), math.log(60.0)).map(math.exp),
           requests=st.lists(st.tuples(st.sampled_from("uv"), st.one_of(
               st.just(0j), st.builds(lambda mod, phase: mod * np.exp(1j * phase),
                                      st.floats(0.0, 0.95), st.floats(-math.pi, math.pi)))),
               min_size=1, max_size=4))
    @example(s=60.0, requests=[("v", 0.95), ("u", -0.95j), ("v", 0j), ("v", 0.95)])
    @example(s=0.05, requests=[("u", 0.9 * np.exp(2.0j)), ("u", 0j)])
    @example(s=250.0, requests=[("u", 0.3), ("v", -0.5 + 0.2j)])  # r^s overflows: values that are not finite
    def test_batch_matches_the_per_degree_loop(self, s, requests):
        # blocks of one row, of an odd size and of the full size
        want = [coherent_per_degree(channel, s, xi) for channel, xi in requests]
        sturmian_on_grid.cache_clear()
        for rows in (1, 7, 64):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(verification, "_BLOCK_ROWS", rows)
                got = coherent_truncated_sums(s, requests, GRID)
            for (values, n_used, n_l2), (ref, ref_used, ref_l2) in zip(got, want, strict=True):
                assert (n_used, n_l2) == (ref_used, ref_l2)
                assert values.tobytes() == ref.tobytes()

    def test_memory_stays_within_a_few_blocks(self):
        # at |xi| = 0.999 the series run past N_l2 = 17,542 (u) and 20,542 (v), and only a few
        # blocks of degrees are held at once
        tracemalloc.start()
        try:
            coherent_closed_residuals(0.8888194417315589, [("u", 0.999), ("v", 0.999)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


def repeated_key_sum():
    # several powers and decays share each (degree, alpha, argscale)
    parts = [LaguerreSum.single(c, power=p, decay=d, degree=n, alpha=a, argscale=b)
             for c, p, d, n, a, b in [(1.3, 0.87, 0.6, 3, 2.1, 2.0), (-0.4, 1.87, 0.6, 3, 2.1, 2.0),
                                      (0.7, 0.87, 0.9, 3, 2.1, 2.0), (2.2, 0.87, 0.6, 2, 4.1, 2.0),
                                      (-1.1, -0.13, 0.6, 2, 4.1, 2.0), (0.5, 0.87, 0.6, 3, 2.1, 1.5)]]
    return sum(parts[1:], parts[0])


class TestLaguerreSumEvaluation:
    def test_repeated_keys_match_term_by_term(self):
        f = repeated_key_sum()
        r = np.geomspace(0.02, 30.0, 57)
        assert len({t[3:] for t in f.terms}) < len(f)
        assert np.array_equal(f(r), term_by_term(f, r))
        g = f.derivative().derivative()
        assert np.array_equal(g(r), term_by_term(g, r))
        assert f(1.3) == term_by_term(f, 1.3).item()

    def test_complex_sum_matches_term_by_term(self):
        f = repeated_key_sum() + LaguerreSum.single(0.2 - 0.9j, power=0.87, decay=0.6 + 0.4j,
                                                    degree=3, alpha=2.1, argscale=2.0)
        r = np.geomspace(0.02, 30.0, 57)
        assert np.array_equal(f(r), term_by_term(f, r))

    def test_evaluate_all_matches_each_sum_alone(self):
        f = repeated_key_sum()
        g = f.derivative() + LaguerreSum.single(0.2 - 0.9j, power=0.87, decay=0.6 + 0.4j,
                                                degree=3, alpha=2.1, argscale=2.0)
        r = np.geomspace(0.02, 30.0, 57)
        fv, gv = LaguerreSum.evaluate_all(r, f, g)
        assert fv.tobytes() == term_by_term(f, r).tobytes()
        assert gv.tobytes() == term_by_term(g, r).tobytes()
        fs, gs = LaguerreSum.evaluate_all(1.3, f, g)
        assert (type(fs), type(gs)) == (float, complex)
        assert (fs, gs) == (term_by_term(f, 1.3).item(), term_by_term(g, 1.3).item())


class TestImmutability:
    def test_derivative_unchanged_by_scaling(self):
        f = repeated_key_sum()
        r = np.geomspace(0.05, 20.0, 31)
        before = f.derivative()(r)
        _ = f * 2
        assert np.array_equal(f.derivative()(r), before)
        assert np.array_equal((f * 2).derivative()(r), term_by_term((f * 2).derivative(), r))

    def test_operations_leave_operands_alone(self):
        f = repeated_key_sum()
        g = LaguerreSum.single(0.3, power=1.0, decay=0.6, degree=1, alpha=2.1, argscale=2.0)
        f_terms, g_terms = f.terms, g.terms
        f.derivative().derivative()
        f.times_power(-1)
        f.scaled(0.4)
        f + g
        f + g * -1.0
        2.5 * f
        f(np.geomspace(0.1, 5.0, 9))
        assert f.terms == f_terms
        assert g.terms == g_terms
