"""The full oracle suite behind `verify` and the acceptance tests.

Every check pits a closed form against an independent route: quadrature
moments against gamma values, the spectrum against its algebraic
reductions, basis functions against their defining ODEs and inner
products, the operator algebra against its commutation table, and the
coherent closed forms against truncated group expansions.  Each check
yields one VerificationReport; the registry order and count are part of
the CLI contract.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .algebra import (
    a0_eigenvalue_residual,
    casimir_residual,
    channel_realization,
    commutator_residual,
    ladder_matrix_elements,
    scaling_identity_residual,
    su11_relation,
)
from .coherent import (
    assemble_coherent_spinor,
    coherent_ratio_Bn_prime,
    perelomov_weights,
    physical_coherent_components,
    sturmian_coherent,
    truncation_order,
)
from .errors import DiracCoulombError
from .problem import Alignment, ProblemParams, derive_constants
from .quadrature import build_rule, integrate_radial
from .radial import (
    assemble_spinor,
    default_residual_grid,
    ode_residual_first_order,
    ode_residual_second_order,
    physical_components,
    sturmian,
)
from .report import VerificationReport
from .special import laguerre, laguerre_generating_closed, log_gamma
from .spectrum import bound_level, energy

__all__ = [
    "DEFAULT_TOLERANCES",
    "VERIFY_CHECK_NAMES",
    "VERIFY_CHECK_COUNT",
    "run_suite",
    "generating_reference_sum",
    "coherent_truncated_sum",
    "coherent_closed_residual",
    "sommerfeld_energy",
]

STURMIAN_S_GRID = (0.6, 0.866, 1.5, 2.2)
XI_GRID = (0.2, 0.4, 0.6)

DEFAULT_TOLERANCES: dict[str, float] = {
    "quadrature_moments": 1e-12,
    "spectrum_free_limit": 1e-11,
    "sommerfeld_reduction": 1e-12,
    "diagonalization_identity": 1e-11,
    "sturmian_orthonormality_u": 1e-10,
    "sturmian_orthonormality_v": 1e-10,
    "commutator_k0_kplus": 1e-8,
    "commutator_k0_kminus": 1e-8,
    "commutator_kminus_kplus": 1e-8,
    "ladder_coefficients": 1e-8,
    "casimir": 1e-8,
    "a0_eigenvalue": 1e-9,
    "scaling_identities": 1e-9,
    "ode_first_order": 1e-8,
    "ode_second_order": 1e-7,
    "normalization": 1e-8,
    "generating_function": 1e-10,
    "perelomov_norm": 1e-12,
    "coherent_identity_limit": 1e-12,
    "coherent_closed_vs_sum": 1e-8,
    "coherent_norm": 1e-8,
    "coherent_ratio_limit": 1e-9,
}

VERIFY_CHECK_NAMES = tuple(DEFAULT_TOLERANCES)
VERIFY_CHECK_COUNT = len(VERIFY_CHECK_NAMES)


# ----------------------------------------------------------------------
# reference-series helpers shared with the test suite


def generating_reference_sum(nu: float, y: complex, x: float,
                             rel_tail: float = 1e-16) -> complex:
    """Truncated sum_n L_n^nu(x) y^n, extended until the running term is
    negligible for several consecutive degrees."""
    y = complex(y)
    total = 0.0 + 0.0j
    quiet = 0
    for n in range(4000):
        term = laguerre(n, nu, x) * y**n
        total += term
        if abs(term) <= rel_tail * max(abs(total), 1.0):
            quiet += 1
            if quiet >= 4:
                break
        else:
            quiet = 0
    return total


def coherent_truncated_sum(channel: str, s: float, xi: complex, grid: np.ndarray,
                           l2_tail: float = 1e-14, sup_tail: float = 1e-10):
    """Group-basis expansion of the coherent state on a grid.

    Truncation starts at the order given by the stated L^2 tail bound and
    is then extended until the added terms are pointwise negligible at
    ``sup_tail`` relative to the partial sum, so the series error sits
    well below the tolerance of any comparison made against it.  Returns
    (values, N_used, N_l2).
    """
    k = channel_realization(channel, s) + 1.0
    n_l2 = truncation_order(k, xi, l2_tail)
    grid = np.asarray(grid, dtype=float)
    total = np.zeros(grid.shape, dtype=complex)
    weights = perelomov_weights(k, xi, n_l2 + 400)
    scale = 0.0
    quiet = 0
    n_used = 0
    for ng in range(weights.size):
        n = ng if channel == "u" else ng + 1
        term = weights[ng] * sturmian(channel, n, s)(grid)
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


def coherent_closed_residual(channel: str, s: float, xi: complex) -> float:
    """Sup-norm distance between one channel's closed-form coherent state
    and its truncated group expansion on [1e-2, 40], relative to the
    closed form's peak."""
    grid = np.geomspace(0.01, 40.0, 200)
    closed = sturmian_coherent(channel, s, xi)(grid)
    series, _, _ = coherent_truncated_sum(channel, s, xi, grid)
    return float(np.max(np.abs(closed - series)) / np.max(np.abs(closed)))


def sommerfeld_energy(n: int, s: float, alpha_v: float, mass: float) -> float:
    """Closed form of the alpha_s = 0 spectrum: m (1 + alpha_v^2/(n+s)^2)^{-1/2}."""
    return mass / math.sqrt(1.0 + (alpha_v / (n + s)) ** 2)


# ----------------------------------------------------------------------
# individual checks


def _check_quadrature_moments(params, tol):
    residuals = []
    for order, alpha in ((16, 0.0), (32, 2.6), (48, 0.8)):
        rule = build_rule(order, alpha)
        for k in (0, 1, 3, 5, 7, 2 * order - 1):
            got = rule.integrate_moment(k)
            want = math.exp(log_gamma(alpha + k + 1.0))
            residuals.append(abs(got - want) / want)
    return VerificationReport.from_residuals("quadrature_moments", residuals, tol,
                                             context={"orders": "16,32,48"})


def _check_spectrum_free_limit(params, tol):
    free = replace(params, alpha_v=1e-12, alpha_s=1e-12)
    constants = derive_constants(free)
    residuals = [abs(energy(n, constants, free) / free.mass - 1.0) for n in range(1, 11)]
    return VerificationReport.from_residuals("spectrum_free_limit", residuals, tol,
                                             context={"alpha": 1e-12, "n_max": 10})


def _sommerfeld_grid():
    for j, alignment in ((0.5, Alignment.ALIGNED), (1.5, Alignment.ALIGNED), (0.5, Alignment.UNALIGNED)):
        kap = -(j + 0.5) if alignment is Alignment.ALIGNED else j + 0.5
        for alpha_v in (0.1, 0.5, 0.9 * abs(kap)):
            yield j, alignment, alpha_v


def _check_sommerfeld(params, tol):
    residuals = []
    for j, alignment, alpha_v in _sommerfeld_grid():
        p = replace(params, dimension=3, j=j, alignment=alignment, alpha_v=alpha_v, alpha_s=0.0)
        constants = derive_constants(p)
        for n in range(1, 9):
            e = energy(n, constants, p)
            residuals.append(abs(e - sommerfeld_energy(n, constants.s, alpha_v, p.mass)) / p.mass)
    return VerificationReport.from_residuals("sommerfeld_reduction", residuals, tol,
                                             context={"kappas": "-1,-2,+1", "n_max": 8})


def _check_diagonalization(params, tol):
    residuals = []
    grid = [params]
    for j, alignment, alpha_v in _sommerfeld_grid():
        grid.append(replace(params, dimension=3, j=j, alignment=alignment, alpha_v=alpha_v, alpha_s=0.0))
    for p in grid:
        constants = derive_constants(p)
        for n in range(1, 9):
            e = energy(n, constants, p)
            a = math.sqrt((p.mass - e) * (p.mass + e))
            lhs = a * (n + constants.s) - (p.alpha_v * e + p.alpha_s * p.mass)
            residuals.append(abs(lhs) / p.mass)
    return VerificationReport.from_residuals("diagonalization_identity", residuals, tol,
                                             context={"n_max": 8})


def _gram_residual(channel, s, n_count):
    n_start = 0 if channel == "u" else 1
    fns = [sturmian(channel, n, s) for n in range(n_start, n_start + n_count)]
    alpha = 2.0 * s + 1.0 if channel == "v" else 2.0 * s - 1.0
    rule = build_rule(max(48, n_count + 16), alpha)
    worst = 0.0
    for i, fi in enumerate(fns):
        for j in range(i, len(fns)):
            val = integrate_radial(lambda r: fi(r) * fns[j](r) * r, 1.0, rule)
            target = 1.0 if i == j else 0.0
            worst = max(worst, abs(float(np.real(val)) - target))
    return worst


def _check_orthonormality(channel):
    def check(params, tol):
        s_values = STURMIAN_S_GRID + (derive_constants(params).s,)
        residuals = [_gram_residual(channel, s, 12) for s in s_values]
        return VerificationReport.from_residuals(
            f"sturmian_orthonormality_{channel}", residuals, tol,
            context={"channel": channel, "count": 12},
        )

    return check


def _algebra_family(params):
    """(sigma, functions) pairs: first Sturmians of each channel at the
    acceptance s-grid plus the problem's own s."""
    out = []
    s_values = STURMIAN_S_GRID + (derive_constants(params).s,)
    for s in s_values:
        for channel, n_range in (("v", range(1, 11)), ("u", range(0, 10))):
            sigma = channel_realization(channel, s)
            fns = [sturmian(channel, n, s) for n in n_range]
            out.append((sigma, fns))
    return out


def _check_commutator(which):
    def check(params, tol):
        grid = np.geomspace(0.05, 30.0, 60)
        residuals = []
        for sigma, fns in _algebra_family(params):
            rep = commutator_residual(*su11_relation(which, sigma, None), fns, grid, tol, which)
            residuals.append(rep.residual_max)
        return VerificationReport.from_residuals(which, residuals, tol,
                                                 context={"families": len(residuals)})

    return check


def _check_ladder(params, tol):
    residuals = []
    s_values = STURMIAN_S_GRID + (derive_constants(params).s,)
    for s in s_values:
        for channel in ("u", "v"):
            k = channel_realization(channel, s) + 1.0
            n_start = 0 if channel == "u" else 1
            for n in range(n_start, n_start + 5):
                up, down = ladder_matrix_elements(channel, n, s)
                ng = n if channel == "u" else n - 1
                up_want = math.sqrt((ng + 1.0) * (2.0 * k + ng))
                residuals.append(abs(up - up_want) / up_want)
                if ng >= 1:
                    down_want = math.sqrt(ng * (2.0 * k + ng - 1.0))
                    residuals.append(abs(down - down_want) / down_want)
                else:
                    residuals.append(abs(down))
    return VerificationReport.from_residuals("ladder_coefficients", residuals, tol,
                                             context={"s_values": len(s_values)})


def _check_casimir(params, tol):
    grid = np.geomspace(0.05, 30.0, 60)
    residuals = []
    s_values = STURMIAN_S_GRID + (derive_constants(params).s,)
    for s in s_values:
        for channel, n in (("v", 1), ("v", 3), ("u", 0), ("u", 2)):
            residuals.append(casimir_residual(channel, n, s, grid).residual_max)
    return VerificationReport.from_residuals("casimir", residuals, tol,
                                             context={"s_values": len(s_values)})


def _check_a0(params, tol):
    grid = np.geomspace(0.05, 30.0, 60)
    residuals = []
    s_values = STURMIAN_S_GRID + (derive_constants(params).s,)
    for s in s_values:
        for channel, n_range in (("v", (1, 2, 5)), ("u", (0, 1, 4))):
            for n in n_range:
                residuals.append(a0_eigenvalue_residual(channel, n, s, grid).residual_max)
    return VerificationReport.from_residuals("a0_eigenvalue", residuals, tol,
                                             context={"s_values": len(s_values)})


def _check_scaling(params, tol):
    grid = np.geomspace(0.05, 30.0, 60)
    s = derive_constants(params).s
    fns = [sturmian("v", n, s) for n in (1, 2, 4)] + [sturmian("u", n, s) for n in (0, 3)]
    residuals = []
    for theta in (0.0, 0.7, -0.7, math.log(2.0)):
        residuals.append(scaling_identity_residual(theta, fns, grid, s).residual_max)
    return VerificationReport.from_residuals("scaling_identities", residuals, tol,
                                             context={"thetas": "0,+-0.7,ln2"})


def _coupling_variants(params):
    yield params
    if params.alpha_s != 0.0:
        yield replace(params, alpha_s=0.0)
    else:
        yield replace(params, alpha_s=0.4 * params.alpha_v)


def _check_ode_first(perturb: bool):
    def check(params, tol):
        residuals = []
        for p in _coupling_variants(params):
            constants = derive_constants(p)
            for n in range(1, 6):
                spinor = assemble_spinor(bound_level(n, p, constants), constants)
                factor = 1.01 if perturb else 1.0
                residuals.append(ode_residual_first_order(spinor, perturb_F=factor).residual_max)
        return VerificationReport.from_residuals("ode_first_order", residuals, tol,
                                                 context={"n_max": 5, "perturbed": perturb})

    return check


def _check_ode_second(params, tol):
    residuals = []
    for p in _coupling_variants(params):
        constants = derive_constants(p)
        for n in range(1, 6):
            level = bound_level(n, p, constants)
            u_t, v_t = physical_components(level, constants)
            grid = default_residual_grid(level.a)
            residuals.append(ode_residual_second_order(v_t, level, constants, grid, "v").residual_max)
            residuals.append(ode_residual_second_order(u_t, level, constants, grid, "u").residual_max)
    return VerificationReport.from_residuals("ode_second_order", residuals, tol,
                                             context={"n_max": 5, "channels": "u,v"})


def _check_normalization(params, tol):
    residuals = []
    for p in _coupling_variants(params):
        constants = derive_constants(p)
        for n in range(1, 9):
            spinor = assemble_spinor(bound_level(n, p, constants), constants)
            rule = build_rule(max(48, n + 24), 2.0 * constants.s)
            total = integrate_radial(lambda r: spinor.F(r) ** 2 + spinor.G(r) ** 2,
                                     spinor.level.a, rule)
            residuals.append(abs(float(np.real(total)) - 1.0))
    return VerificationReport.from_residuals("normalization", residuals, tol,
                                             context={"n_max": 8})


def _check_generating(params, tol):
    residuals = []
    ys = [0.3, -0.3, 0.55, -0.55, 0.7, 0.3 + 0.2j, 0.7 * np.exp(2j * np.pi / 3.0)]
    for nu in (1.5, 2.4, 3.0):
        for x in (0.5, 1.0, 2.0):
            for y in ys:
                closed = laguerre_generating_closed(nu, y, x)
                reference = generating_reference_sum(nu, y, x)
                residuals.append(abs(closed - reference) / max(abs(reference), 1e-30))
    return VerificationReport.from_residuals("generating_function", residuals, tol,
                                             context={"nu": "1.5,2.4,3.0", "x": "0.5,1,2"})


def _check_perelomov_norm(params, tol):
    s = derive_constants(params).s
    residuals = []
    for k in (s, s + 1.0):
        for mod in XI_GRID:
            for xi in (mod, mod * np.exp(1.7j)):
                n_max = truncation_order(k, xi, 1e-14)
                w = perelomov_weights(k, xi, n_max)
                residuals.append(abs(float(np.sum(np.abs(w) ** 2)) - 1.0))
    return VerificationReport.from_residuals("perelomov_norm", residuals, tol,
                                             context={"xi": "0.2,0.4,0.6"})


def _check_coherent_identity(params, tol):
    s = derive_constants(params).s
    grid = np.geomspace(0.01, 40.0, 200)
    residuals = []
    for channel in ("u", "v"):
        lowest = sturmian(channel, 0 if channel == "u" else 1, s)(grid)
        reduced = sturmian_coherent(channel, s, 0.0)(grid)
        residuals.append(float(np.max(np.abs(reduced - lowest))))
    return VerificationReport.from_residuals("coherent_identity_limit", residuals, tol,
                                             context={"xi": 0.0})


def _check_coherent_closed(params, tol):
    s = derive_constants(params).s
    residuals = [coherent_closed_residual(channel, s, xi)
                 for channel in ("u", "v") for mod in XI_GRID for xi in (mod, mod * np.exp(2.0j))]
    return VerificationReport.from_residuals("coherent_closed_vs_sum", residuals, tol,
                                             context={"xi": "0.2,0.4,0.6", "channels": "u,v"})


def _check_coherent_norm(params, tol):
    constants = derive_constants(params)
    residuals = []
    for mod in XI_GRID:
        for xi in (mod, -mod, mod * np.exp(1.1j)):
            spinor = assemble_coherent_spinor(params, constants, xi)
            decay = spinor.a_ref * (1.0 + xi) / (1.0 - xi)
            rule = build_rule(48, 2.0 * constants.s)
            total = integrate_radial(
                lambda r: np.abs(spinor.F(r)) ** 2 + np.abs(spinor.G(r)) ** 2,
                complex(decay).real, rule)
            residuals.append(abs(float(np.real(total)) - 1.0))
    return VerificationReport.from_residuals("coherent_norm", residuals, tol,
                                             context={"xi": "+-0.2,0.4,0.6"})


def _check_coherent_ratio(params, tol):
    constants = derive_constants(params)
    s = constants.s
    ref = bound_level(1, params, constants)
    residuals = []
    for xi in (0.0, 0.4, -0.3, 0.3 + 0.3j):
        u_p, v_p = physical_coherent_components(s, xi, ref.a)
        r1 = 1e-6 / ref.a
        r2 = 0.5 * r1

        def leading(f, power):
            c1 = f(r1) / r1**power
            c2 = f(r2) / r2**power
            return 2.0 * c2 - c1  # Richardson: removes the O(r) correction

        ratio_series = ref.omega * leading(u_p, s) / ((2.0 * s + 1.0) * leading(v_p, s + 1.0))
        ratio_closed = coherent_ratio_Bn_prime(s, xi, ref.a, ref.omega)
        residuals.append(abs(ratio_closed - ratio_series) / abs(ratio_closed))
    return VerificationReport.from_residuals("coherent_ratio_limit", residuals, tol,
                                             context={"xi": "0,0.4,-0.3,0.3+0.3i"})


def _registry(perturb: bool):
    return {
        "quadrature_moments": _check_quadrature_moments,
        "spectrum_free_limit": _check_spectrum_free_limit,
        "sommerfeld_reduction": _check_sommerfeld,
        "diagonalization_identity": _check_diagonalization,
        "sturmian_orthonormality_u": _check_orthonormality("u"),
        "sturmian_orthonormality_v": _check_orthonormality("v"),
        "commutator_k0_kplus": _check_commutator("commutator_k0_kplus"),
        "commutator_k0_kminus": _check_commutator("commutator_k0_kminus"),
        "commutator_kminus_kplus": _check_commutator("commutator_kminus_kplus"),
        "ladder_coefficients": _check_ladder,
        "casimir": _check_casimir,
        "a0_eigenvalue": _check_a0,
        "scaling_identities": _check_scaling,
        "ode_first_order": _check_ode_first(perturb),
        "ode_second_order": _check_ode_second,
        "normalization": _check_normalization,
        "generating_function": _check_generating,
        "perelomov_norm": _check_perelomov_norm,
        "coherent_identity_limit": _check_coherent_identity,
        "coherent_closed_vs_sum": _check_coherent_closed,
        "coherent_norm": _check_coherent_norm,
        "coherent_ratio_limit": _check_coherent_ratio,
    }


def run_suite(params: ProblemParams, tolerances: dict[str, float] | None = None,
              perturb: bool = False) -> list[VerificationReport]:
    """Run every check at its (possibly overridden) tolerance.

    ``perturb`` is the fault-injection hook: it scales F by 1% inside the
    first-order residual check, which must then fail.
    """
    overrides = dict(tolerances or {})
    unknown = set(overrides) - set(DEFAULT_TOLERANCES)
    if unknown:
        raise DiracCoulombError(f"unknown tolerance keys: {sorted(unknown)}")
    registry = _registry(perturb)
    reports = []
    for name in VERIFY_CHECK_NAMES:
        tol = float(overrides.get(name, DEFAULT_TOLERANCES[name]))
        reports.append(registry[name](params, tol))
    return reports
