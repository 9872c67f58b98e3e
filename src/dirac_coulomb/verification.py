"""The full oracle suite behind `verify` and the acceptance tests.

Every check pits a closed form against an independent route: quadrature
moments against gamma values, the spectrum against its algebraic
reductions, basis functions against their defining ODEs and inner
products, the operator algebra against its commutation table, and the
coherent closed forms against truncated group expansions.  One table,
_CHECKS, names every check with its default tolerance and its code; its
order and count are part of the CLI contract.  A check returns its
residuals and context, and run_suite turns each into a VerificationReport.
Shared work is done once per suite, in the memo _registry hands every check.
"""

from __future__ import annotations

import math
import sys
from contextlib import suppress
from dataclasses import replace
from functools import partial
from itertools import islice, tee

import numpy as np

from .algebra import (
    _ladder_projections,
    _ladder_rule_key,
    _su11_family_residuals,
    SU11_RELATIONS,
    scaling_identity_residual,
)
from .coherent import (
    _perelomov_weight_sequence,
    assemble_coherent_spinor,
    coherent_ratio_Bn_prime,
    perelomov_weights,
    physical_coherent_components,
    sturmian_coherent,
    truncation_order,
)
from .errors import DiracCoulombError
from .problem import Alignment, ProblemParams, derive_constants
from .quadrature import build_rules, integrate_radial
from .radial import (
    _second_order_residual,
    _sturmian_coefs,
    assemble_spinor,
    default_residual_grid,
    ode_residual_first_order,
    physical_components,
    radial_channel,
    radial_window,
    sturmian,
)
from .radialfn import LaguerreSum
from .report import VerificationReport
from .special import laguerre_generating_closed, laguerre_sequence, log_gamma
from .spectrum import bound_level, energy

__all__ = [
    "DEFAULT_TOLERANCES",
    "VERIFY_CHECK_NAMES",
    "VERIFY_CHECK_COUNT",
    "resolve_tolerances",
    "run_suite",
    "generating_reference_sum",
    "coherent_truncated_sums",
    "coherent_truncated_sum",
    "coherent_closed_residuals",
    "sommerfeld_energy",
]

STURMIAN_S_GRID = (0.6, 0.866, 1.5, 2.2)
XI_GRID = (0.2, 0.4, 0.6)
_MOMENT_RULES = ((16, 0.0), (32, 2.6), (48, 0.8))  # the quadrature_moments rules
REL_TAIL = 1e-16  # generating_reference_sum stops after four terms this small, relative to the sum
SUP_TAIL = 1e-10  # coherent_truncated_sums stops after three terms this small, relative to the sum


# ----------------------------------------------------------------------
# reference-series helpers shared with the test suite


def generating_reference_sum(nu: float, ys, x: float) -> list[complex]:
    """For each y of ``ys``, the truncated sum_n L_n^nu(x) y^n, extended until the
    running term is negligible (REL_TAIL) for several consecutive degrees; one
    Laguerre sequence serves every y, and each y adds its own terms and stops alone."""
    sums = []
    for y, lag in zip(map(complex, ys), tee(laguerre_sequence(nu, x), len(ys))):
        total = 0.0 + 0.0j
        quiet = 0
        for n, value in zip(range(4000), lag):
            term = value * y**n
            total += term
            if abs(term) <= REL_TAIL * max(abs(total), 1.0):
                quiet += 1
                if quiet >= 4:
                    break
            else:
                quiet = 0
        sums.append(total)
    return sums


# the most degrees in a block of coherent_truncated_sums: a first block of all N_l2 + 3 raised the peak RSS
_BLOCK_ROWS = 64


def coherent_truncated_sums(s: float, requests, grid: np.ndarray) -> list:
    """Group-basis expansions of coherent states on a grid, (values, N_used, N_l2) for each
    (channel, xi) of ``requests``: each series runs past the order N_l2 = truncation_order(k, xi)
    of the L^2 tail bound until, three degrees in a row, max |term| <= SUP_TAIL max |partial sum|
    (or N_l2 + 400).
    One pass over blocks of degrees serves all requests: one Laguerre recurrence for a column
    of both channels' orders, each channel's basis values, and each request's terms, running
    sums (a sequential accumulate; np.sum adds pairwise) and row maxima for its stopping rule.
    The bits are those of adding w_g ((c_g r^sigma) e^-r L_g).real one degree at a time in
    complex arithmetic: e^-r is exp(-(1+0j) r).real (the real exp may differ in the last bit),
    basis values are float64 products (the complex products' real parts if all are finite, else
    complex ones), and |.| is np.abs of complex values (np.hypot differs)."""
    grid = np.asarray(grid, dtype=float)
    channels = {channel: radial_channel(channel, s) for channel, _ in requests}
    lag = laguerre_sequence(np.array([[ch.alpha] for ch in channels.values()]), 2.0 * grid)
    r_p = {channel: grid ** ch.sigma for channel, ch in channels.items()}
    coefs = {channel: _sturmian_coefs(ch, ch.lowest, s) for channel, ch in channels.items()}
    e_r = np.exp(-(1.0 + 0j) * grid)
    live = []  # [request index, channel, weights, N_l2, running sum, scale, quiet]
    for i, (channel, xi) in enumerate(requests):
        k = channels[channel].sigma + 1.0  # as the algebra forms it: for s < 0.5 not ch.bargmann bit for bit
        live.append([i, channel, _perelomov_weight_sequence(k, complex(xi)),
                     truncation_order(k, complex(xi)), np.zeros(grid.shape, dtype=complex), 0.0, 0])
    results, start = [None] * len(requests), 0
    while live:
        n_min = min(req[3] for req in live)  # no series stops before degree N_l2 + 2
        rows = min(_BLOCK_ROWS, max(n_min + 3 - start, 4 + n_min // 4))  # later blocks grow with N_l2
        lags = np.array(list(islice(lag, rows)))  # (degree, channel, point)
        basis = {}
        for j, (channel, ch) in enumerate(channels.items()):
            c = np.fromiter(islice(coefs[channel], rows), float, rows)[:, None]
            with np.errstate(over="ignore", invalid="ignore"):
                basis[channel] = c * r_p[channel] * e_r.real * lags[:, j]
            if not np.isfinite(basis[channel]).all():
                basis[channel] = (c.astype(complex) * r_p[channel] * e_r * lags[:, j]).real
        for req in list(live):
            i, channel, weights, n_l2, total, scale, quiet = req
            terms = np.fromiter(islice(weights, rows), complex, rows)[:, None] * basis[channel]
            lo = min(max(n_l2 - start, 0), rows)  # the rule reads the terms from degree N_l2 on
            term_max = np.abs(terms[lo:]).max(axis=1).tolist()
            np.add(total, terms[0], out=terms[0])  # total + term, in that order even for nan
            sums = np.add.accumulate(terms, axis=0)
            sum_max = np.abs(sums).max(axis=1).tolist()
            scale = max([scale, *sum_max[:lo]])
            for row, top in enumerate(term_max, lo):
                scale = max(scale, sum_max[row])
                quiet = quiet + 1 if top <= SUP_TAIL * scale else 0
                if quiet >= 3 or start + row == n_l2 + 400:
                    results[i] = (sums[row].copy(), start + row, n_l2)
                    live.remove(req)
                    break
            req[4:] = sums[-1], scale, quiet
        start += rows
    return results


def coherent_truncated_sum(channel: str, s: float, xi: complex, grid: np.ndarray):
    """The (values, N_used, N_l2) of coherent_truncated_sums for the one request (channel, xi)."""
    return coherent_truncated_sums(s, [(channel, xi)], grid)[0]


def coherent_closed_residuals(s: float, requests) -> list[float]:
    """For each (channel, xi) of ``requests``, the sup-norm distance between the closed-form
    coherent state and its truncated group expansion on radial_window(1), relative to its peak."""
    grid = np.geomspace(*radial_window(1.0), 200)
    closed = LaguerreSum.evaluate_all(grid, *(sturmian_coherent(channel, s, xi) for channel, xi in requests))
    series = coherent_truncated_sums(s, requests, grid)
    return [float(np.max(np.abs(c - values)) / np.max(np.abs(c))) for c, (values, _, _) in zip(closed, series)]


def sommerfeld_energy(n: int, s: float, alpha_v: float, mass: float) -> float:
    """Closed form of the alpha_s = 0 spectrum: m (1 + alpha_v^2/(n+s)^2)^{-1/2}."""
    return mass / math.sqrt(1.0 + (alpha_v / (n + s)) ** 2)


# ----------------------------------------------------------------------
# shared setup of the checks


def _s_grid(params):
    """The acceptance s-grid plus the problem's own s."""
    return STURMIAN_S_GRID + (derive_constants(params).s,)


def _algebra_grid():
    return np.geomspace(0.05, 30.0, 60)


def _levels(params, n_max):
    """(constants, level) for n = 1..n_max at the problem's couplings, then
    at one variant: alpha_s switched off, or set to 0.4 alpha_v if it is 0."""
    variant = replace(params, alpha_s=0.0 if params.alpha_s != 0.0 else 0.4 * params.alpha_v)
    for p in (params, variant):
        constants = derive_constants(p)
        for n in range(1, n_max + 1):
            yield constants, bound_level(n, p, constants)


def _rules(memo, params, keys):
    """The quadrature rules of ``keys``, from the suite's memo.  The first read builds every rule
    the suite reads in one build_rules call; if that raises (a variant with no bound spectrum, a
    rule that does not converge), each read builds its own and raises what its check raises."""
    if missing := [key for key in keys if key not in memo]:
        with suppress(DiracCoulombError):
            s_values = _s_grid(params)  # the keys of the moment, orthonormality, ladder and normalization checks
            batch = list(dict.fromkeys([*_MOMENT_RULES, *((48, radial_channel(channel, s).alpha)
                                                          for channel in ("u", "v") for s in s_values),
                                        *(_ladder_rule_key(channel, radial_channel(channel, s).lowest + 4, s)
                                          for s in s_values for channel in ("u", "v")),
                                        *((48, 2.0 * constants.s) for constants, _ in _levels(params, 1))]))
            memo.update(zip(batch, build_rules(batch)))
        if missing := [key for key in missing if key not in memo]:
            memo.update(zip(missing, build_rules(missing)))
    return [memo[key] for key in keys]


# ----------------------------------------------------------------------
# individual checks: check(memo, params) -> (residuals, context); the table binds
# the leading argument of the parametrized ones, _registry the suite's memo


def _check_quadrature_moments(memo, params):
    residuals = []
    for rule in _rules(memo, params, _MOMENT_RULES):
        for k in (0, 1, 3, 5, 7, 2 * rule.nodes.size - 1):
            got = rule.integrate_moment(k)
            want = math.exp(log_gamma(rule.alpha + k + 1.0))
            residuals.append(abs(got - want) / want)
    return residuals, {"orders": "16,32,48"}


def _check_spectrum_free_limit(memo, params):
    free = replace(params, alpha_v=1e-12, alpha_s=1e-12)
    constants = derive_constants(free)
    residuals = [abs(energy(n, constants, free) / free.mass - 1.0) for n in range(1, 11)]
    return residuals, {"alpha": 1e-12, "n_max": 10}


def _sommerfeld_grid(params):
    """D = 3, alpha_s = 0 variants of ``params`` at kappa = -1, -2, +1."""
    for j, alignment in ((0.5, Alignment.ALIGNED), (1.5, Alignment.ALIGNED), (0.5, Alignment.UNALIGNED)):
        kap = -(j + 0.5) if alignment is Alignment.ALIGNED else j + 0.5
        for alpha_v in (0.1, 0.5, 0.9 * abs(kap)):
            yield replace(params, dimension=3, j=j, alignment=alignment, alpha_v=alpha_v, alpha_s=0.0)


def _check_sommerfeld(memo, params):
    residuals = []
    for p in _sommerfeld_grid(params):
        constants = derive_constants(p)
        for n in range(1, 9):
            e = energy(n, constants, p)
            residuals.append(abs(e - sommerfeld_energy(n, constants.s, p.alpha_v, p.mass)) / p.mass)
    return residuals, {"kappas": "-1,-2,+1", "n_max": 8}


def _check_diagonalization(memo, params):
    residuals = []
    for p in (params, *_sommerfeld_grid(params)):
        constants = derive_constants(p)
        for n in range(1, 9):
            e = energy(n, constants, p)
            a = math.sqrt((p.mass - e) * (p.mass + e))
            lhs = a * (n + constants.s) - (p.alpha_v * e + p.alpha_s * p.mass)
            residuals.append(abs(lhs) / p.mass)
    return residuals, {"n_max": 8}


def _check_orthonormality(channel, memo, params):
    # max |<f_i, f_j> - delta_ij| over the first 12 Sturmians at each s, on the radii integrate_radial
    # uses at scale 1 on its rule; the entries i <= j of a family are the rows of one integral
    s_values = _s_grid(params)
    rules = _rules(memo, params, [(48, radial_channel(channel, s).alpha) for s in s_values])  # 48 >= 12 + 16
    lowest = radial_channel(channel, 1.0).lowest
    values = LaguerreSum.jets(np.repeat([rule.nodes / 2.0 for rule in rules], 12, axis=0), 0,
                              *(sturmian(channel, n, s) for s in s_values for n in range(lowest, lowest + 12)))
    i, j = np.triu_indices(12)
    residuals = []
    for f, rule in zip(values.reshape(len(rules), 12, -1), rules):
        entries = integrate_radial(lambda r: f[i] * f[j] * r, 1.0, rule)
        residuals.append(max(0.0, *np.abs(np.real(entries) - (i == j)).tolist()))
    return residuals, {"channel": channel, "count": 12}


# For each pointwise algebra check, the labels whose residual it reads from a
# family pass, as offsets above the channel's lowest label; None reads a
# relation's maximum over the family.
_FAMILY_PROBES = {**{name: (None,) for name in SU11_RELATIONS}, "casimir": (0, 2), "a0_eigenvalue": (0, 1, 4)}


def _check_family(which, memo, params):
    """The residuals of one pointwise algebra check, read from the su(1,1)
    pass over the families of the first ten Sturmians of each channel at each
    s.  ``memo`` maps (s, channel) to that family's ten row maxima of each
    residual of _su11_family_residuals; a relation reads their maximum.
    _registry gives the five checks of one suite the same fresh memo, so
    whichever runs first runs one pass for every family, and the others read it."""
    grid = _algebra_grid()
    s_values = _s_grid(params)
    keys = [(s, channel) for s in s_values for channel in ("v", "u")]
    if missing := list(dict.fromkeys(key for key in keys if key not in memo)):
        batch = [(channel, s, range(low, low + 10)) for s, channel in missing
                 for low in [radial_channel(channel, s).lowest]]
        maxima = {name: rows.max(axis=1) for name, rows in _su11_family_residuals(batch, grid, None).items()}
        memo.update((key, {name: rows[10 * i:10 * i + 10] for name, rows in maxima.items()})
                        for i, key in enumerate(missing))
    residuals = [float(np.max(memo[key][which]) if offset is None else memo[key][which][offset])
                 for key in keys for offset in _FAMILY_PROBES[which]]
    return residuals, {"families": len(residuals)} if which in SU11_RELATIONS else {"s_values": len(s_values)}


def _check_ladder(memo, params):
    residuals = []
    s_values = _s_grid(params)
    channels = [(channel, s, radial_channel(channel, s)) for s in s_values for channel in ("u", "v")]
    # order max(32, n + 10) = 32: one rule for all five levels of a family, and its six Sturmians' jets on its radii
    rules = _rules(memo, params, [_ladder_rule_key(channel, ch.lowest + 4, s) for channel, s, ch in channels])
    jet = LaguerreSum.jets(np.repeat([rule.nodes / 2.0 for rule in rules], 6, axis=0), 2, *(
        sturmian(channel, n, s) for channel, s, ch in channels for n in range(ch.lowest, ch.lowest + 6)))
    for i, ((channel, s, ch), rule) in enumerate(zip(channels, rules)):
        k = ch.sigma + 1.0  # as the algebra forms it: for s < 0.5 not ch.bargmann bit for bit
        levels = range(ch.lowest, ch.lowest + 5)
        for n, (up, down) in zip(levels, _ladder_projections(channel, levels, s, rule, jet[:, 6 * i:6 * i + 6])):
            ng = n - ch.lowest
            up_want = math.sqrt((ng + 1.0) * (2.0 * k + ng))
            residuals.append(abs(up - up_want) / up_want)
            if ng >= 1:
                down_want = math.sqrt(ng * (2.0 * k + ng - 1.0))
                residuals.append(abs(down - down_want) / down_want)
            else:
                residuals.append(abs(down))
    return residuals, {"s_values": len(s_values)}


def _check_scaling(memo, params):
    grid = _algebra_grid()
    s = derive_constants(params).s
    probes = (("v", 1), ("v", 2), ("v", 4), ("u", 0), ("u", 3))
    fns = [sturmian(channel, n, s) for channel, n in probes]
    sigmas = [radial_channel(channel, s).sigma for channel, _ in probes]
    thetas = (0.0, 0.7, -0.7, math.log(2.0))
    return scaling_identity_residual(thetas, fns, grid, sigmas), {"thetas": "0,+-0.7,ln2"}


def _check_ode_first(perturb: bool, memo, params):
    residuals = []
    for constants, level in _levels(params, 5):
        spinor = assemble_spinor(level, constants)
        factor = 1.01 if perturb else 1.0
        residuals.append(float(np.max(ode_residual_first_order(spinor, perturb_F=factor)[0])))
    return residuals, {"n_max": 5, "perturbed": perturb}


def _check_ode_second(memo, params):
    parts = [(constants, level, channel, f, default_residual_grid(level.a)) for constants, level in _levels(params, 5)
             for channel, f in zip("vu", physical_components(level, constants)[::-1])]
    jet = LaguerreSum.jets(np.array([grid for *_, grid in parts]), 2, *(f for _, _, _, f, _ in parts))
    residuals = [float(np.max(_second_order_residual(jet[:, i], grid, level, constants, channel)))
                 for i, (constants, level, channel, _, grid) in enumerate(parts)]
    return residuals, {"n_max": 5, "channels": "u,v"}


def _check_normalization(memo, params):
    residuals = []
    for constants, level in _levels(params, 8):  # one rule per variant: order 48 >= n + 24 for every n <= 8
        (rule,) = _rules(memo, params, [(48, 2.0 * constants.s)])
        spinor = assemble_spinor(level, constants)
        total = integrate_radial(lambda r: np.sum(np.abs(spinor(r)) ** 2, axis=0), level.a, rule)  # F, G at once
        residuals.append(abs(float(np.real(total)) - 1.0))
    return residuals, {"n_max": 8}


def _check_generating(memo, params):
    residuals = []
    ys = [0.3, -0.3, 0.55, -0.55, 0.7, 0.3 + 0.2j, 0.7 * np.exp(2j * np.pi / 3.0)]
    for nu in (1.5, 2.4, 3.0):
        for x in (0.5, 1.0, 2.0):
            for y, reference in zip(ys, generating_reference_sum(nu, ys, x)):
                closed = laguerre_generating_closed(nu, y, x)
                residuals.append(abs(closed - reference) / max(abs(reference), 1e-30))
    return residuals, {"nu": "1.5,2.4,3.0", "x": "0.5,1,2"}


def _check_perelomov_norm(memo, params):
    s = derive_constants(params).s
    residuals = []
    for k in (s, s + 1.0):
        for mod in XI_GRID:
            for xi in (mod, mod * np.exp(1.7j)):
                n_max = truncation_order(k, xi)
                w = perelomov_weights(k, xi, n_max)
                residuals.append(abs(float(np.sum(np.abs(w) ** 2)) - 1.0))
    return residuals, {"xi": "0.2,0.4,0.6"}


def _check_coherent_identity(memo, params):
    s = derive_constants(params).s
    grid = np.geomspace(*radial_window(1.0), 200)
    residuals = []
    for channel in ("u", "v"):
        lowest = sturmian(channel, radial_channel(channel, s).lowest, s)(grid)
        reduced = sturmian_coherent(channel, s, 0.0)(grid)
        residuals.append(float(np.max(np.abs(reduced - lowest))))
    return residuals, {"xi": 0.0}


def _check_coherent_closed(memo, params):
    residuals = coherent_closed_residuals(derive_constants(params).s, [
        (channel, xi) for channel in ("u", "v") for mod in XI_GRID for xi in (mod, mod * np.exp(2.0j))])
    return residuals, {"xi": "0.2,0.4,0.6", "channels": "u,v"}


def _check_coherent_norm(memo, params):
    constants = derive_constants(params)
    (rule,) = _rules(memo, params, [(48, 2.0 * constants.s)])
    residuals = []
    for mod in XI_GRID:
        for xi in (mod, -mod, mod * np.exp(1.1j)):
            spinor = assemble_coherent_spinor(params, constants, xi)
            decay = spinor.a_ref * (1.0 + xi) / (1.0 - xi)
            total = integrate_radial(lambda r: np.sum(np.abs(spinor(r)) ** 2, axis=0), complex(decay).real, rule)
            residuals.append(abs(float(np.real(total)) - 1.0))
    return residuals, {"xi": "+-0.2,0.4,0.6"}


def _check_coherent_ratio(memo, params):
    constants = derive_constants(params)
    s = constants.s
    ref = bound_level(1, params, constants)
    residuals = []
    for xi in (0.0, 0.4, -0.3, 0.3 + 0.3j):
        u_p, v_p = physical_coherent_components(s, xi, ref.a)
        r1 = 1e-6 / ref.a
        r2 = 0.5 * r1

        def leading(f, power):
            f1, f2 = f(r1), f(r2)
            if min(abs(f2), r2**power) >= sys.float_info.min:
                c1 = f1 / r1**power
                c2 = f2 / r2**power
            else:  # f(r) or r**power is not a normal double (large s): divide r**power out of f's terms
                c1, c2 = f.times_power(-power)(np.array([r1, r2]))
            return 2.0 * c2 - c1  # Richardson: removes the O(r) correction

        ratio_series = ref.omega * leading(u_p, s) / ((2.0 * s + 1.0) * leading(v_p, s + 1.0))
        ratio_closed = coherent_ratio_Bn_prime(s, xi, ref.a, ref.omega)
        residuals.append(abs(ratio_closed - ratio_series) / abs(ratio_closed))
    return residuals, {"xi": "0,0.4,-0.3,0.3+0.3i"}


# ----------------------------------------------------------------------
# the suite

# name -> (default tolerance, check), in report order
_CHECKS = {
    "quadrature_moments": (1e-12, _check_quadrature_moments),
    "spectrum_free_limit": (1e-11, _check_spectrum_free_limit),
    "sommerfeld_reduction": (1e-12, _check_sommerfeld),
    "diagonalization_identity": (1e-11, _check_diagonalization),
    "sturmian_orthonormality_u": (1e-10, partial(_check_orthonormality, "u")),
    "sturmian_orthonormality_v": (1e-10, partial(_check_orthonormality, "v")),
    "commutator_k0_kplus": (1e-8, _check_family),
    "commutator_k0_kminus": (1e-8, _check_family),
    "commutator_kminus_kplus": (1e-8, _check_family),
    "ladder_coefficients": (1e-8, _check_ladder),
    "casimir": (1e-8, _check_family),
    "a0_eigenvalue": (1e-9, _check_family),
    "scaling_identities": (1e-9, _check_scaling),
    "ode_first_order": (1e-8, partial(_check_ode_first, False)),
    "ode_second_order": (1e-7, _check_ode_second),
    "normalization": (1e-8, _check_normalization),
    "generating_function": (1e-10, _check_generating),
    "perelomov_norm": (1e-12, _check_perelomov_norm),
    "coherent_identity_limit": (1e-12, _check_coherent_identity),
    "coherent_closed_vs_sum": (1e-8, _check_coherent_closed),
    "coherent_norm": (1e-8, _check_coherent_norm),
    "coherent_ratio_limit": (1e-9, _check_coherent_ratio),
}

DEFAULT_TOLERANCES: dict[str, float] = {name: tol for name, (tol, _) in _CHECKS.items()}
VERIFY_CHECK_NAMES = tuple(_CHECKS)
VERIFY_CHECK_COUNT = len(VERIFY_CHECK_NAMES)


def _registry(perturb: bool):
    """{name: check(params)} in report order, each bound to one fresh memo that lives
    as long as this registry: the five pointwise algebra checks, bound to their name
    too, keep their su(1,1) family passes in it by (s, channel), and the checks that
    integrate the suite's quadrature rules by (order, alpha) (_rules).  ``perturb`` is
    the fault-injection hook: its first-order ODE check scales F by 1% and must fail."""
    memo = {}
    registry = {}
    for name, (_, check) in _CHECKS.items():
        if check is _check_family:
            check = partial(_check_family, name)
        elif perturb and name == "ode_first_order":
            check = partial(_check_ode_first, True)
        registry[name] = partial(check, memo)
    return registry


def resolve_tolerances(overrides) -> dict[str, float]:
    """Every check's tolerance: the defaults with the (key, value) pairs of
    ``overrides`` applied in order.  An unknown key, or a value that is not
    a finite number, raises DiracCoulombError naming the key."""
    tolerances = dict(DEFAULT_TOLERANCES)
    for key, value in overrides:
        if key not in tolerances:
            raise DiracCoulombError(f"unknown tolerance key {key!r}")
        try:
            tolerances[key] = float(value)
        except (TypeError, ValueError) as exc:
            raise DiracCoulombError(f"tolerance value for {key!r} is not a number: {value!r}") from exc
        if not math.isfinite(tolerances[key]):
            raise DiracCoulombError(f"tolerance value for {key!r} must be finite, got {value!r}")
    return tolerances


def run_suite(params: ProblemParams, tolerances: dict[str, float] | None = None,
              perturb: bool = False) -> list[VerificationReport]:
    """Run every check at its (possibly overridden) tolerance; see _registry
    for ``perturb``."""
    tolerances = resolve_tolerances((tolerances or {}).items())
    reports = []
    for name, check in _registry(perturb).items():
        residuals, context = check(params)
        reports.append(VerificationReport.from_residuals(name, residuals, tolerances[name], context))
    return reports
