import cmath
import contextlib
import io
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from dirac_coulomb import (
    CoherentLabel,
    DomainError,
    assemble_coherent_spinor,
    bound_level,
    build_rule,
    cli,
    coherent,
    coherent_ratio_Bn_prime,
    integrate_radial,
    perelomov_weights,
    physical_coherent_components,
    sturmian,
    sturmian_coherent,
    truncation_order,
    verification,
)
from dirac_coulomb.verification import coherent_truncated_sum

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def reference_weights(k, xi, n_max):
    """The weights as formed before the log-space branch (math.exp raises past the doubles)."""
    xi = complex(xi)
    pref = (1.0 - abs(xi) ** 2) ** k
    lg2k = math.lgamma(2.0 * k)
    return np.array([pref * math.exp(0.5 * (math.lgamma(n + 2.0 * k) - math.lgamma(n + 1.0) - lg2k)) * xi**n
                     for n in range(n_max + 1)], dtype=complex)


def reference_truncation_order(k, xi, l2_tail=1e-14):
    """truncation_order before its loop invariants were hoisted."""
    rho = abs(complex(xi)) ** 2
    if rho == 0.0:
        return 0
    lg2k = math.lgamma(2.0 * k)
    n = 0
    while True:
        log_c2_next = (2.0 * k * math.log1p(-rho) + math.lgamma(n + 1 + 2.0 * k) - math.lgamma(n + 2.0)
                       - lg2k + (n + 1) * math.log(rho))
        q = rho * (n + 1 + 2.0 * k) / (n + 2.0)
        if q < 1.0 and math.exp(log_c2_next) / (1.0 - q) < l2_tail:
            return n
        n += 1


class TestWeights:
    def test_identity_displacement(self):
        w = perelomov_weights(1.866, 0.0, 4)
        assert w[0] == 1.0
        assert np.all(w[1:] == 0.0)

    def test_normalization_at_tail_bound(self):
        k, xi = 1.866, 0.5
        n_max = truncation_order(k, xi)
        w = perelomov_weights(k, xi, n_max)
        assert np.sum(np.abs(w) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_first_ratio(self):
        k, xi = 1.3, 0.45
        w = perelomov_weights(k, xi, 1)
        assert abs(w[1]) ** 2 / abs(w[0]) ** 2 == pytest.approx(2.0 * k * abs(xi) ** 2, rel=1e-13)

    @pytest.mark.parametrize("xi", [0.7, 0.7 * cmath.exp(2.1j), 0.3 - 0.2j, 0.0])
    def test_weights_stay_finite_past_the_double_range(self, xi):
        # sqrt(Gamma(n + 800) / (n! Gamma(800))) passes the doubles at n = 1,362, where c_n ~ 1e-20
        w = perelomov_weights(400.0, xi, 2000)
        assert np.isfinite(w).all()
        assert np.sum(np.abs(w) ** 2) == pytest.approx(1.0, abs=1e-10)
        assert w[:1362].tobytes() == reference_weights(400.0, xi, 1361).tobytes()
        assert np.abs(w[1362:]).max() < 1e-19
        # across and past the switch to log space, c_{n+1} / c_n = xi sqrt((n + 2k) / (n + 1))
        # (at |xi| = 0.7 no weight there underflows; the smaller labels' weights are 0 there)
        n = np.arange(1300, 1999)
        if abs(xi) > 0.5:
            assert np.allclose(w[n + 1] / w[n], xi * np.sqrt((n + 800.0) / (n + 1.0)), rtol=1e-11, atol=0)

    @pytest.mark.parametrize("xi", [0.5, 0.3 + 0.2j, -0.85j, 0.95 * cmath.exp(0.4j)])
    def test_default_problem_weights_keep_their_bits(self, default_constants, xi):
        for k in (default_constants.s, default_constants.s + 1.0):
            n_max = truncation_order(k, xi) + 400
            assert perelomov_weights(k, xi, n_max).tobytes() == reference_weights(k, xi, n_max).tobytes()

    def test_truncation_order_matches_the_unhoisted_loop_on_a_grid(self, monkeypatch):
        for tail in (1e-14, 1e-8):
            monkeypatch.setattr(coherent, "L2_TAIL", tail)  # read at each call
            for k in (0.05, 0.5, 0.866, 1.866, 7.3, 60.0, 400.0):
                for mod in (1e-8, 0.01, 0.3, 0.7, 0.9, 0.99):
                    for phase in (0.0, 1.0, -2.5):
                        xi = mod * cmath.exp(1j * phase)
                        assert truncation_order(k, xi) == reference_truncation_order(k, xi, tail)

    def test_truncation_order_matches_the_unhoisted_loop_on_the_benchmark_deck(self, monkeypatch):
        calls = []

        def recording(k, xi):
            calls.append((k, xi))
            return truncation_order(k, xi)

        monkeypatch.setattr(verification, "truncation_order", recording)
        for op in workloads.state_queries(1):
            if op.kind == "coherent":
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main(list(op.argv))
        assert len(calls) >= 300
        for k, xi in calls:
            assert truncation_order(k, xi) == reference_truncation_order(k, xi)

    def test_domain(self):
        with pytest.raises(DomainError):
            perelomov_weights(1.0, 1.0, 3)
        with pytest.raises(DomainError):
            perelomov_weights(-0.5, 0.3, 3)
        with pytest.raises(DomainError):
            truncation_order(1.0, 1.0 + 0.0j)


class TestSturmianCoherent:
    def test_identity_reduces_to_lowest_state(self):
        s = 0.866
        r = np.geomspace(0.01, 40.0, 150)
        for channel, lowest_n in (("u", 0), ("v", 1)):
            reduced = sturmian_coherent(channel, s, 0.0)(r)
            base = sturmian(channel, lowest_n, s)(r)
            assert np.max(np.abs(reduced - base)) < 1e-12

    def test_truncated_sum_oracle_real_label(self):
        s, xi, r = 0.866, 0.4, 1.3
        closed = sturmian_coherent("v", s, xi)(r)
        n_max = truncation_order(s + 1.0, xi)
        w = perelomov_weights(s + 1.0, xi, n_max + 25)
        series = sum(w[ng] * sturmian("v", ng + 1, s)(r) for ng in range(len(w)))
        assert closed == pytest.approx(series, rel=1e-10)

    def test_truncated_sum_oracle_complex_label(self):
        s, xi, r = 0.866, 0.3 + 0.2j, 2.0
        closed = sturmian_coherent("u", s, xi)(r)
        n_max = truncation_order(s, xi)
        w = perelomov_weights(s, xi, n_max + 25)
        series = sum(w[ng] * sturmian("u", ng, s)(r) for ng in range(len(w)))
        assert closed == pytest.approx(series, rel=1e-10)

    def test_closed_vs_sum_supremum(self):
        # both channels, real and complex phases, certified truncation
        s = 0.888
        grid = np.geomspace(0.01, 40.0, 200)
        for channel in ("u", "v"):
            for mod in (0.2, 0.4, 0.6):
                for xi in (mod, mod * cmath.exp(2.0j)):
                    closed = sturmian_coherent(channel, s, xi)(grid)
                    series, n_used, n_l2 = coherent_truncated_sum(channel, s, xi, grid)
                    assert n_used >= n_l2
                    rel = np.max(np.abs(closed - series)) / np.max(np.abs(closed))
                    assert rel < 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            sturmian_coherent("v", 0.9, 1.2)
        with pytest.raises(DomainError):
            sturmian_coherent("x", 0.9, 0.2)


class TestPhysicalComponents:
    def test_functional_form(self):
        # v(r, xi) proportional to (2r)^{s+1} e^{-ar} e^{-2 a r xi/(1-xi)} / (1-xi)^{2s+2}
        s, xi, a_ref = 0.866, 0.5, 0.6
        _, v_p = physical_coherent_components(s, xi, a_ref)
        r = np.geomspace(0.05, 20.0, 30)
        shape = (2.0 * r) ** (s + 1.0) * np.exp(-a_ref * r) * np.exp(-2.0 * a_ref * r * xi / (1.0 - xi)) \
            / (1.0 - xi) ** (2.0 * s + 2.0)
        ratio = v_p(r) / shape
        assert np.max(np.abs(ratio - ratio[0])) < 1e-12 * abs(ratio[0])

    def test_peak_moves_outward_along_the_radial_family(self):
        # xi = -tanh(tau/2): increasing tau pushes the density outward
        s, a_ref = 0.866, 0.35
        r = np.geomspace(1e-3, 400.0, 4000)
        peaks = []
        for t in (0.0, 0.3, 0.6, 0.8, 0.9):
            _, v_p = physical_coherent_components(s, -t, a_ref)
            peaks.append(r[np.argmax(np.abs(v_p(r)) ** 2)])
        assert all(b > a for a, b in zip(peaks, peaks[1:]))


class TestRatio:
    def test_identity_label_value(self, default_params, default_constants):
        level = bound_level(1, default_params, default_constants)
        s = default_constants.s
        got = coherent_ratio_Bn_prime(s, 0.0, level.a, level.omega)
        want = level.omega / level.a * math.sqrt(s / (2.0 * (2.0 * s + 1.0)))
        assert got == pytest.approx(want, rel=1e-14)

    def test_real_label_gives_real_ratio(self, default_params, default_constants):
        level = bound_level(1, default_params, default_constants)
        ratio = coherent_ratio_Bn_prime(default_constants.s, 0.37, level.a, level.omega)
        assert complex(ratio).imag == 0.0

    def test_small_r_limit_consistency(self, default_params, default_constants):
        # Richardson extraction of the r -> 0 coefficients of the coupled
        # system row applied to the coherent components
        s = default_constants.s
        level = bound_level(1, default_params, default_constants)
        xi = 0.4
        u_p, v_p = physical_coherent_components(s, xi, level.a)
        r1 = 1e-6 / level.a
        r2 = 0.5 * r1

        def leading(f, power):
            return 2.0 * f(r2) / r2**power - f(r1) / r1**power

        series = level.omega * leading(u_p, s) / ((2.0 * s + 1.0) * leading(v_p, s + 1.0))
        closed = coherent_ratio_Bn_prime(s, xi, level.a, level.omega)
        assert abs(closed - series) / abs(closed) < 1e-9


class TestCoherentSpinor:
    def test_identity_label_matches_component_mixture(self, default_params, default_constants):
        # pointwise comparison oracle: (F, G) must be the decoupling mixture
        # of the physical coherent pair with the closed-form B'/A' ratio, up to
        # one overall constant
        c = default_constants
        s, kap = c.s, c.kappa
        for xi in (0.0, 0.35, 0.2 + 0.3j):
            spinor = assemble_coherent_spinor(default_params, c, xi)
            u_p, v_p = physical_coherent_components(s, xi, spinor.a_ref)
            ratio = coherent_ratio_Bn_prime(s, xi, spinor.a_ref, spinor.omega_ref)
            r = np.geomspace(0.1, 25.0, 40)
            f_mix = (s - kap) * u_p(r) - c.alpha_minus * ratio * v_p(r)
            g_mix = -c.alpha_plus * u_p(r) + (s - kap) * ratio * v_p(r)
            fv, gv = spinor(r)
            const = fv[0] / f_mix[0]
            assert np.max(np.abs(fv - const * f_mix)) < 1e-10 * np.max(np.abs(fv))
            assert np.max(np.abs(gv - const * g_mix)) < 1e-10 * np.max(np.abs(fv))

    def test_norm_is_one(self, default_params, default_constants):
        # xi = 0 is the identity displacement (scaled lowest pair)
        c = default_constants
        for xi in (0.0, 0.3):
            spinor = assemble_coherent_spinor(default_params, c, xi)
            decay = spinor.a_ref * (1.0 + xi) / (1.0 - xi)
            rule = build_rule(48, 2.0 * c.s)
            total = integrate_radial(lambda r: np.abs(spinor.F(r)) ** 2 + np.abs(spinor.G(r)) ** 2,
                                     decay, rule)
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_decay_condition_always_holds_inside_disc(self):
        # Re[(1+xi)/(1-xi)] = (1-|xi|^2)/|1-xi|^2 > 0 for |xi| < 1, so the
        # non-normalizable branch is an internal assertion only
        for xi in (0.99, -0.99, 0.7j, -0.5 + 0.8j, 0.9 * cmath.exp(2.9j)):
            val = (1.0 + xi) / (1.0 - xi)
            want = (1.0 - abs(xi) ** 2) / abs(1.0 - xi) ** 2
            assert complex(val).real == pytest.approx(want, rel=1e-12)
            assert complex(val).real > 0.0

    def test_phase_convention_real_label(self, default_params, default_constants):
        spinor = assemble_coherent_spinor(default_params, default_constants, 0.25)
        f_at_ref, _ = spinor(1.0 / spinor.a_ref)
        assert complex(f_at_ref).imag == pytest.approx(0.0, abs=1e-15)
        assert complex(f_at_ref).real > 0.0

    def test_comparison_reported(self, default_params, default_constants):
        spinor = assemble_coherent_spinor(default_params, default_constants, 0.4)
        assert spinor.normalization.quadrature_constant > 0.0
        assert spinor.normalization.closed_form is not None

    def test_domain(self, default_params, default_constants):
        with pytest.raises(DomainError):
            assemble_coherent_spinor(default_params, default_constants, 1.0)


class TestLabel:
    def test_round_trip(self):
        for xi in (0.3, -0.5, 0.2 + 0.6j, 0.0, -0.1 - 0.7j):
            label = CoherentLabel.from_xi(xi)
            back = -math.tanh(0.5 * label.tau) * cmath.exp(-1.0j * label.phi)  # xi from (tau, phi)
            assert abs(back - complex(xi)) < 1e-14

    def test_eta_identity(self):
        label = CoherentLabel.from_xi(0.6)
        assert label.eta == pytest.approx(math.log(1.0 - 0.36), rel=1e-14)
        assert label.eta <= 0.0

    def test_rejects_boundary(self):
        with pytest.raises(DomainError):
            CoherentLabel.from_xi(1.0)
