"""`wavefunction` and `coherent` print byte for byte what the per-row path printed,
and the ODE oracles behind them give the same bits as their per-call bodies.

The references below are the code the CLI ran before it rendered these tables
as columns: one dict per row rendered by emit_json / emit_csv, each sum
evaluated on its own, with a fresh cache.  Outputs are compared with ==, arrays
by their bytes, never with a tolerance.  The truncated coherent series behind
the `coherent` report is compared with its per-degree reference in
test_single_pass.py.
"""

import numpy as np
import pytest

from dirac_coulomb import cli, derive_constants, verification
from dirac_coulomb.coherent import assemble_coherent_spinor
from dirac_coulomb.output import emit_csv, emit_json
from dirac_coulomb.radial import (
    _guard_scale,
    assemble_spinor,
    ode_residual_first_order,
    ode_residual_second_order,
    physical_components,
)
from dirac_coulomb.report import VerificationReport
from dirac_coulomb.spectrum import bound_level
from reference import second_order_residual


# ----------------------------------------------------------------------
# references: the per-call bodies before this rendering and evaluation sharing


def reference_first_order(spinor, perturb_F=1.0):
    level, constants = spinor.level, spinor.constants
    grid = np.geomspace(1e-2 / level.a, 40.0 / level.a, 400)
    k = constants.kappa
    m, e = level.mass, level.energy
    f_expr = spinor.F * perturb_F
    fv = f_expr(grid)
    gv = spinor.G(grid)
    fp = f_expr.derivative()(grid)
    gp = spinor.G.derivative()(grid)
    row1 = fp + (k * fv - constants.alpha_minus * gv) / grid - (m + e) * gv
    row2 = gp + (constants.alpha_plus * fv - k * gv) / grid - (m - e) * fv
    scale = _guard_scale(fv, gv, level.a, grid)
    residuals = np.concatenate([np.abs(row1) / scale, np.abs(row2) / scale])
    return residuals, {"n": level.n, "points": grid.size, "perturb_F": perturb_F}


def reference_second_order(component, level, constants, channel):
    grid = np.geomspace(1e-2 / level.a, 40.0 / level.a, 400)
    s = constants.s
    cent = s * (s + 1.0) if channel == "v" else s * (s - 1.0)
    m, e = level.mass, level.energy
    av = 0.5 * (constants.alpha_plus + constants.alpha_minus)
    as_ = 0.5 * (constants.alpha_plus - constants.alpha_minus)
    coulomb = av * e + as_ * m
    fv = component(grid)
    fp = component.derivative()(grid)
    fpp = component.derivative().derivative()(grid)
    row = -fpp - 2.0 * fp / grid + cent * fv / grid**2 - 2.0 * coulomb * fv / grid + (m * m - e * e) * fv
    op_mag = abs(m * m - e * e) + abs(cent) / grid**2 + 2.0 * abs(coulomb) / grid
    glob = np.max(np.abs(fv))
    scale = op_mag * np.maximum(np.abs(fv), np.minimum(level.a * grid, 1.0) * glob)
    return np.abs(row) / scale, {"n": level.n, "channel": channel, "points": grid.size}


def per_row_stdout(argv):
    """What `wavefunction` / `coherent` printed with one dict per row."""
    args = cli.build_parser().parse_args(argv)
    cli._apply_config(args)
    cli._fill_defaults(args)
    params = cli._problem_params(args)
    constants = derive_constants(params)
    tolerances = cli._parse_tolerances(args)
    if args.command == "wavefunction":
        level = bound_level(cli._parse_n_range(args.n)[0], params, constants)
        spinor = assemble_spinor(level, constants)
        grid = cli._grid(args, level.a)
        fv, gv = spinor.F(grid), spinor.G(grid)
        rows = [{"r": float(r), "F": float(f), "G": float(g)} for r, f, g in zip(grid, fv, gv)]
        _, v_t = physical_components(level, constants)
        oracles = {"ode_first_order": reference_first_order(spinor),
                   "ode_second_order": reference_second_order(v_t, level, constants, "v")}
        reports = [spinor.normalization.to_row()] + [
            VerificationReport.from_residuals(name, residuals, tolerances[name], context).to_row()
            for name, (residuals, context) in oracles.items()]
        extra = {"n": level.n, "energy_over_mass": level.energy / params.mass,
                 "scale_a": level.a, "omega": level.omega}
    else:
        xi = complex(float(args.xi_re), float(args.xi_im))
        spinor = assemble_coherent_spinor(params, constants, xi)
        grid = cli._grid(args, spinor.a_ref)
        fv, gv = np.asarray(spinor.F(grid), dtype=complex), np.asarray(spinor.G(grid), dtype=complex)
        rows = [{"r": float(r), "F_re": f.real, "F_im": f.imag, "G_re": g.real, "G_im": g.imag}
                for r, f, g in zip(grid, fv, gv)]
        closed = VerificationReport.from_residuals(
            "coherent_closed_vs_sum",
            verification.coherent_closed_residuals(constants.s, [(c, xi) for c in ("u", "v")]),
            tolerances["coherent_closed_vs_sum"], context={"xi_re": xi.real, "xi_im": xi.imag})
        reports = [spinor.normalization.to_row(), closed.to_row()]
        extra = {"xi_re": xi.real, "xi_im": xi.imag, "a_ref": spinor.a_ref, "omega_ref": spinor.omega_ref,
                 "tau": spinor.label.tau, "phi": spinor.label.phi, "eta": spinor.label.eta}
    extra.update({"grid_points": int(args.r_points), "grid_spacing": args.r_spacing})
    document = {"meta": cli._meta(args, params, extra), "rows": rows, "reports": reports}
    return emit_json(document) if args.format == "json" else emit_csv(rows)


# ----------------------------------------------------------------------
# the cases


def seeded_problem_argv(seed):
    """Problem flags drawn the way the state_queries benchmark draws them."""
    rng = np.random.default_rng([7, seed])
    dimension, j = int(rng.integers(2, 11)), 0.5 + int(rng.integers(0, 5))
    kap = (2 * j + dimension - 2) / 2.0
    alpha_v = (0.05 + 0.85 * rng.random()) * kap
    return ["--dimension", str(dimension), "--j", str(j),
            "--aligned" if rng.random() < 0.5 else "--unaligned",
            "--alpha-v", repr(alpha_v), "--alpha-s", repr(0.8 * rng.random() * alpha_v),
            "--mass", repr(10.0 ** rng.uniform(-3.0, 3.0))], rng


def seeded_argvs(seed):
    flags, rng = seeded_problem_argv(seed)
    xi = complex(0.9 * rng.random() * np.exp(2j * np.pi * rng.random()))
    return (["wavefunction", *flags, "--n", str(int(rng.integers(1, 40)))],
            ["coherent", *flags, f"--xi-re={xi.real!r}", f"--xi-im={xi.imag!r}"])


ARGVS = {
    **{f"{argv[0]}-seeded-{seed}": argv for seed in range(8) for argv in seeded_argvs(seed)},
    "wavefunction-two-points": ["wavefunction", "--n", "4", "--r-points", "2"],
    "coherent-two-points": ["coherent", "--xi-im=0.3", "--r-points", "2"],
    "wavefunction-linear": ["wavefunction", "--n", "7", "--r-spacing", "linear", "--r-max", "30"],
    "coherent-linear": ["coherent", "--xi-re=-0.85", "--r-spacing", "linear", "--r-min", "0.5"],
    "coherent-tolerance": ["coherent", "--xi-re=0.6", "--xi-im=0.6", "--tolerance",
                           "coherent_closed_vs_sum=1e-30"],
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", list(ARGVS))
def test_table_matches_per_row_path(name, fmt, capsys):
    argv = ARGVS[name] + ["--format", fmt]
    expected = per_row_stdout(argv)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", ["wavefunction", "coherent"])
def test_out_file_matches_per_row_path(command, fmt, tmp_path, capsys):
    out = tmp_path / f"table.{fmt}"
    argv = [command, "--xi-re=0.4", "--n", "3", "--format", fmt]
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == per_row_stdout(argv).encode("utf-8")


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", ["wavefunction", "coherent"])
def test_negative_zero_and_nan_in_the_grid(command, fmt, monkeypatch, capsys):
    # r = -0.0 prints as "-0" in the r column; r < 0 gives nan in F and G
    monkeypatch.setattr(cli, "_grid", lambda args, scale: np.array([-0.0, -1.5, 1e-300, 0.5, 2.0]))
    argv = [command, "--xi-re=-0.3", "--n", "2", "--format", fmt]
    with np.errstate(invalid="ignore"):
        expected = per_row_stdout(argv)
        assert cli.main(argv) == 0
    assert ("\n-0," if fmt == "csv" else '"r": -0,') in expected and "nan" in expected
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("command", ["wavefunction", "coherent"])
def test_config_format_other_than_json_prints_csv(command, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text('{"format": "csv", "xi_im": 0.2, "n": 3, "r_points": 17}')
    argv = [command, "--config", str(config)]
    expected = per_row_stdout(argv)
    assert expected.startswith("r,") and expected.count("\n") == 18
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected


# ----------------------------------------------------------------------
# bit-identical oracles


def seeded_levels(seed):
    flags, rng = seeded_problem_argv(seed)
    params = cli._problem_params(cli.build_parser().parse_args(["verify", *flags]))
    constants = derive_constants(params)
    for n in (1, 2, int(rng.integers(3, 40))):
        yield constants, bound_level(n, params, constants)


@pytest.mark.parametrize("seed", range(8))
def test_ode_oracles_match_per_call_bodies(seed):
    for constants, level in seeded_levels(seed):
        spinor = assemble_spinor(level, constants)
        for perturb in (1.0, 1.01):
            residuals, context = ode_residual_first_order(spinor, perturb_F=perturb)
            want, want_context = reference_first_order(spinor, perturb_F=perturb)
            assert residuals.tobytes() == want.tobytes() and context == want_context
        u_t, v_t = physical_components(level, constants)
        residuals, context = ode_residual_second_order(v_t, level, constants)
        want, want_context = reference_second_order(v_t, level, constants, "v")
        assert residuals.tobytes() == want.tobytes() and context == want_context
        # the u channel's equation, which only the verify check runs
        want, _ = reference_second_order(u_t, level, constants, "u")
        assert second_order_residual(u_t, level, constants, "u").tobytes() == want.tobytes()
