"""Acceptance suite: every criterion at its pinned tolerance.

Each test prints one `[acceptance] NN name: PASS/FAIL` line (written to
the real stderr so it is visible regardless of capture settings) and then
asserts.  Tolerances are fixed here, not calibrated.
"""

import cmath
import csv
import json
import math
import sys

import numpy as np

import cli_support
from cli_support import run_cli
from dirac_coulomb import (
    Alignment,
    ProblemParams,
    VERIFY_CHECK_COUNT,
    assemble_spinor,
    bound_level,
    build_rule,
    derive_constants,
    energy,
    integrate_radial,
    laguerre_generating_closed,
    ode_residual_first_order,
    ode_residual_second_order,
    perelomov_weights,
    physical_components,
    radial_channel,
    scaling_identity_residual,
    sturmian,
    sturmian_coherent,
    su11_commutator_report,
    truncation_order,
)
from dirac_coulomb.verification import (
    coherent_truncated_sum,
    generating_reference_sum,
    sommerfeld_energy,
)
from reference import ladder_matrix_elements

S_GRID = (0.6, 0.866, 1.5, 2.2)
XI_MODULI = (0.2, 0.4, 0.6)


def _announce(num: int, name: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    line = f"[acceptance] {num:02d} {name}: {state}{detail}"
    cli_support.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stderr__, flush=True)


def _coupling_grid():
    out = []
    for alpha_v, alpha_s in ((0.5, 0.2), (0.5, 0.0), (0.7, 0.3)):
        out.append(ProblemParams(3, 0.5, Alignment.ALIGNED, alpha_v, alpha_s, 1.0))
    return out


def test_c01_spectrum_free_limit():
    p = ProblemParams(3, 0.5, Alignment.ALIGNED, 1e-12, 1e-12, 1.0)
    c = derive_constants(p)
    worst = max(abs(energy(n, c, p) / p.mass - 1.0) for n in range(1, 11))
    ok = worst < 1e-11
    _announce(1, "spectrum free limit", ok, f" (max={worst:.2e}, tol=1e-11)")
    assert ok


def test_c02_sommerfeld_reduction():
    worst = 0.0
    for j, alignment, kap in ((0.5, Alignment.ALIGNED, -1.0),
                              (1.5, Alignment.ALIGNED, -2.0),
                              (0.5, Alignment.UNALIGNED, 1.0)):
        for alpha_v in (0.1, 0.5, 0.9 * abs(kap)):
            p = ProblemParams(3, j, alignment, alpha_v, 0.0, 1.0)
            c = derive_constants(p)
            for n in range(1, 9):
                want = sommerfeld_energy(n, c.s, alpha_v, p.mass)
                worst = max(worst, abs(energy(n, c, p) - want) / want)
    ok = worst < 1e-12
    _announce(2, "sommerfeld reduction", ok, f" (max={worst:.2e}, tol=1e-12)")
    assert ok


def test_c03_diagonalization_identity():
    worst = 0.0
    grids = [ProblemParams(3, 0.5, Alignment.ALIGNED, 0.5, 0.2, 1.0)]
    for j, alignment, kap in ((0.5, Alignment.ALIGNED, -1.0),
                              (1.5, Alignment.ALIGNED, -2.0),
                              (0.5, Alignment.UNALIGNED, 1.0)):
        for alpha_v in (0.1, 0.5, 0.9 * abs(kap)):
            grids.append(ProblemParams(3, j, alignment, alpha_v, 0.0, 1.0))
    for p in grids:
        c = derive_constants(p)
        for n in range(1, 9):
            e = energy(n, c, p)
            a = math.sqrt((p.mass - e) * (p.mass + e))
            worst = max(worst, abs(a * (n + c.s) - (p.alpha_v * e + p.alpha_s * p.mass)))
    ok = worst < 1e-11
    _announce(3, "diagonalization identity", ok, f" (max={worst:.2e}, tol=1e-11)")
    assert ok


def test_c04_sturmian_orthonormality():
    worst = 0.0
    for s in S_GRID:
        for channel in ("u", "v"):
            start = 0 if channel == "u" else 1
            fns = [sturmian(channel, n, s) for n in range(start, start + 12)]
            alpha = 2.0 * s - 1.0 if channel == "u" else 2.0 * s + 1.0
            rule = build_rule(64, alpha)
            for i, fi in enumerate(fns):
                for jdx in range(i, len(fns)):
                    val = integrate_radial(lambda r: fi(r) * fns[jdx](r) * r, 1.0, rule)
                    worst = max(worst, abs(val - (1.0 if i == jdx else 0.0)))
    ok = worst < 1e-10
    _announce(4, "sturmian orthonormality", ok, f" (max={worst:.2e}, tol=1e-10)")
    assert ok


def test_c05_su11_algebra():
    grid = np.geomspace(0.05, 30.0, 60)
    worst = 0.0
    for s in S_GRID:
        for channel in ("u", "v"):
            sigma = radial_channel(channel, s).sigma
            k = sigma + 1.0
            start = 0 if channel == "u" else 1
            # the three relations on the family, then each Sturmian's Casimir and A0 eigenvalue
            for rep in su11_commutator_report(channel, s, range(start, start + 10), grid):
                worst = max(worst, rep.residual_max)
            for n in range(start, start + 5):
                up, down = ladder_matrix_elements(channel, n, s)
                ng = n if channel == "u" else n - 1
                up_want = math.sqrt((ng + 1.0) * (2.0 * k + ng))
                worst = max(worst, abs(up - up_want) / up_want)
                if ng >= 1:
                    down_want = math.sqrt(ng * (2.0 * k + ng - 1.0))
                    worst = max(worst, abs(down - down_want) / down_want)
                else:
                    worst = max(worst, abs(down))  # lowest-state annihilation
    ok = worst < 1e-8
    _announce(5, "su(1,1) algebra", ok, f" (max={worst:.2e}, tol=1e-8)")
    assert ok


def test_c06_scaling_identities():
    grid = np.geomspace(0.05, 30.0, 60)
    worst = 0.0
    for s in (0.866, 1.5):
        fns = [sturmian("v", n, s) for n in (1, 2, 4)]
        fns += [sturmian("u", n, s) for n in (0, 3)]
        sigmas = [s] * 3 + [s - 1.0] * 2
        worst = max(worst, *scaling_identity_residual((0.0, 0.7, -0.7, math.log(2.0)), fns, grid, sigmas))
    ok = worst < 1e-9
    _announce(6, "scaling identities", ok, f" (max={worst:.2e}, tol=1e-9)")
    assert ok


def test_c07_ode_residuals():
    worst1 = worst2 = 0.0
    sensitivity = math.inf
    for p in _coupling_grid():
        c = derive_constants(p)
        for n in range(1, 6):
            level = bound_level(n, p, c)
            spinor = assemble_spinor(level, c)
            worst1 = max(worst1, *ode_residual_first_order(spinor)[0])
            u_t, v_t = physical_components(level, c)
            worst2 = max(worst2, *ode_residual_second_order(v_t, level, c, "v")[0])
            worst2 = max(worst2, *ode_residual_second_order(u_t, level, c, "u")[0])
    level = bound_level(1, _coupling_grid()[0], derive_constants(_coupling_grid()[0]))
    spinor = assemble_spinor(level, derive_constants(_coupling_grid()[0]))
    sensitivity = max(ode_residual_first_order(spinor, perturb_F=1.01)[0])
    ok = worst1 < 1e-8 and worst2 < 1e-7 and sensitivity > 1e-3
    _announce(7, "ode residuals", ok,
              f" (first={worst1:.2e} tol=1e-8, second={worst2:.2e} tol=1e-7, "
              f"perturbed={sensitivity:.2e} > 1e-3)")
    assert ok


def test_c08_relativistic_normalization():
    worst = 0.0
    comparisons = []
    for p in _coupling_grid():
        c = derive_constants(p)
        for n in range(1, 9):
            spinor = assemble_spinor(bound_level(n, p, c), c)
            rule = build_rule(max(48, n + 24), 2.0 * c.s)
            total = integrate_radial(lambda r: spinor.F(r) ** 2 + spinor.G(r) ** 2,
                                     spinor.level.a, rule)
            worst = max(worst, abs(total - 1.0))
            comparisons.append(spinor.normalization)
    emitted = all(comp.quadrature_constant > 0.0 and comp.ratio is not None
                  for comp in comparisons)
    ok = worst < 1e-8 and emitted
    ratios = sorted(comp.ratio for comp in comparisons)
    _announce(8, "relativistic normalization", ok,
              f" (max|norm-1|={worst:.2e} tol=1e-8; closed-form ratio reported, "
              f"range [{ratios[0]:.4f}, {ratios[-1]:.4f}] over {len(comparisons)} cases)")
    assert ok


def test_c09_coherent_closed_vs_sum():
    # truncation from the stated L^2 tail bound (1e-14), extended until the
    # series' own sup-norm tail is certified below the comparison tolerance
    s = 0.888
    grid = np.geomspace(0.01, 40.0, 250)
    worst = 0.0
    min_margin = math.inf
    for channel in ("u", "v"):
        for mod in XI_MODULI:
            for xi in (mod, mod * cmath.exp(2.0j), -mod):
                closed = sturmian_coherent(channel, s, xi)(grid)
                series, n_used, n_l2 = coherent_truncated_sum(channel, s, xi, grid)
                assert n_used >= n_l2  # the stated tail bound is satisfied
                rel = float(np.max(np.abs(closed - series)) / np.max(np.abs(closed)))
                worst = max(worst, rel)
                min_margin = min(min_margin, n_used - n_l2)
    ok = worst < 1e-8
    _announce(9, "coherent closed form vs truncated sum", ok,
              f" (max={worst:.2e}, tol=1e-8, truncation extended >= {min_margin} past the L2 bound)")
    assert ok


def test_c10_coherent_identity_limit():
    grid = np.geomspace(0.01, 40.0, 250)
    s = 0.888
    worst_pointwise = 0.0
    for channel, lowest in (("u", 0), ("v", 1)):
        diff = np.abs(sturmian_coherent(channel, s, 0.0)(grid) - sturmian(channel, lowest, s)(grid))
        worst_pointwise = max(worst_pointwise, float(np.max(diff)))
    worst_norm = 0.0
    for k in (s, s + 1.0):
        for mod in XI_MODULI:
            for xi in (mod, mod * cmath.exp(1.3j)):
                n_max = truncation_order(k, xi)
                w = perelomov_weights(k, xi, n_max)
                worst_norm = max(worst_norm, abs(float(np.sum(np.abs(w) ** 2)) - 1.0))
    ok = worst_pointwise < 1e-12 and worst_norm < 1e-12
    _announce(10, "coherent identity limit", ok,
              f" (pointwise={worst_pointwise:.2e}, weight norm={worst_norm:.2e}, tol=1e-12)")
    assert ok


def test_c11_generating_function():
    worst = 0.0
    ys = [0.3, -0.3, 0.55, -0.55, 0.7, -0.7, 0.3 + 0.2j, 0.7 * cmath.exp(2j * math.pi / 3)]
    for nu in (1.5, 2.4, 3.0):
        for x in (0.5, 1.0, 2.0):
            for y in ys:
                closed = laguerre_generating_closed(nu, y, x)
                reference = generating_reference_sum(nu, y, x)
                worst = max(worst, abs(closed - reference) / max(abs(reference), 1e-30))
    ok = worst < 1e-10
    _announce(11, "generating function", ok, f" (max={worst:.2e}, tol=1e-10)")
    assert ok


def test_c12_cli_contract():
    base = ("--dimension", "3", "--j", "0.5", "--aligned",
            "--alpha-v", "0.5", "--alpha-s", "0.2", "--mass", "1")
    checks = {}

    args = ("spectrum", *base, "--n", "1..6")
    a, b = run_cli(*args), run_cli(*args)
    checks["byte_identical_json"] = a.stdout == b.stdout and bool(a.stdout)
    c, d = run_cli(*args, "--format", "csv"), run_cli(*args, "--format", "csv")
    checks["byte_identical_csv"] = c.stdout == d.stdout and bool(c.stdout)

    doc = json.loads(a.stdout.decode())
    csv_rows = list(csv.DictReader(c.stdout.decode().splitlines()))
    same = len(doc["rows"]) == len(csv_rows)
    for jrow, crow in zip(doc["rows"], csv_rows):
        for key, jval in jrow.items():
            cval = crow[key]
            if isinstance(jval, bool):
                same = same and cval == ("true" if jval else "false")
            elif jval is None:
                same = same and cval == ""
            elif isinstance(jval, (int, float)):
                same = same and float(cval) == float(jval)
            else:
                same = same and cval == str(jval)
    checks["cross_format_equal"] = same

    verify = run_cli("verify", "--format", "csv")
    checks["verify_exit_0"] = verify.returncode == 0
    checks["verify_count"] = len(list(csv.DictReader(verify.stdout.decode().splitlines()))) == VERIFY_CHECK_COUNT
    checks["perturb_exit_1"] = run_cli("verify", "--_perturb").returncode == 1
    checks["usage_exit_2"] = run_cli("spectrum", "--no-such-flag").returncode == 2
    checks["domain_exit_2"] = run_cli(
        "spectrum", *base[:-4], "--alpha-v", "2.0", "--alpha-s", "0", "--n", "1").returncode == 2

    ok = all(checks.values())
    failed = [name for name, good in checks.items() if not good]
    _announce(12, "cli determinism and formats", ok,
              "" if ok else f" (failed: {', '.join(failed)})")
    assert ok, failed
