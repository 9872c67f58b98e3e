"""`spectrum` and `sweep` print byte for byte what the per-row path printed.

The reference below builds one SpectrumRecord per (alpha_v, alpha_s, n)
through derive_constants and spectrum.energy, as the CLI did before it
computed the table as columns, and renders the list of row dicts with
emit_json / emit_csv.  Outputs are compared with ==.
"""

import math

import numpy as np
import pytest

from dirac_coulomb import cli, output
from dirac_coulomb.errors import DiracCoulombError, SupercriticalCoupling
from dirac_coulomb.output import emit_csv, emit_json, emit_table, token
from dirac_coulomb.problem import derive_constants, kappa
from dirac_coulomb.report import SpectrumRecord
from dirac_coulomb.spectrum import energy
from test_state_tables import per_row_stdout as state_per_row_stdout


def record(params, n):
    kap = kappa(params.dimension, params.j, params.alignment)
    try:
        constants = derive_constants(params)
    except SupercriticalCoupling:
        return SpectrumRecord(params=params, n=n, kappa=kap, s=None, energy_over_mass=None,
                              scale_a=None, valid=False, status="supercritical")
    try:
        e = energy(n, constants, params)
    except DiracCoulombError:
        return SpectrumRecord(params=params, n=n, kappa=kap, s=constants.s, energy_over_mass=None,
                              scale_a=None, valid=False, status="no_bound_state")
    a = math.sqrt(max((params.mass - e) * (params.mass + e), 0.0))
    return SpectrumRecord(params=params, n=n, kappa=kap, s=constants.s,
                          energy_over_mass=e / params.mass, scale_a=a, valid=True, status="ok")


def per_row_stdout(argv):
    args = cli.build_parser().parse_args(argv)
    cli._apply_config(args)
    cli._fill_defaults(args)
    sweep = args.command == "sweep"
    av_values = cli._axis(*cli._parse_coupling_range(args.alpha_v, "alpha-v", sweep))
    as_values = cli._axis(*cli._parse_coupling_range(args.alpha_s, "alpha-s", sweep))
    ns = list(cli._parse_n_range(args.n))
    rows = [record(cli._problem_params(args, alpha_v=av, alpha_s=as_), n).to_row()
            for av in av_values for as_ in as_values for n in ns]
    base = cli._problem_params(args, alpha_v=av_values[0], alpha_s=as_values[0])
    extra = {"n_values": ns}
    if sweep:
        extra = {"alpha_v_values": av_values, "alpha_s_values": as_values, "n_values": ns,
                 "rows_total": len(rows)}
    document = {"meta": cli._meta(args, base, extra), "rows": rows, "reports": []}
    return emit_json(document) if args.format == "json" else emit_csv(rows)


def seeded_sweep(seed):
    """A grid crossing |kappa|, so that some of its cells are supercritical."""
    rng = np.random.default_rng([4, seed])
    dimension, two_j = int(rng.integers(2, 9)), 1 + 2 * int(rng.integers(0, 4))
    k = (two_j + dimension - 2) / 2.0
    n_lo = int(rng.integers(1, 30))
    return ["sweep", "--dimension", str(dimension), "--j", str(two_j / 2),
            "--aligned" if rng.random() < 0.5 else "--unaligned",
            "--mass", repr(10.0 ** rng.uniform(-4.0, 8.0)),
            f"--alpha-v={0.05 * k!r}..{1.5 * k * rng.uniform(0.9, 1.1)!r}..{int(rng.integers(1, 9))}",
            f"--alpha-s={0.0!r}..{0.4 * k * rng.random()!r}..{int(rng.integers(1, 6))}",
            "--n", f"{n_lo}..{n_lo + int(rng.integers(0, 12))}"]


ARGVS = {
    **{f"seeded-{seed}": seeded_sweep(seed) for seed in range(8)},
    "single-cell": ["sweep", "--alpha-v", "0.3..0.3..1", "--alpha-s", "0.1..0.1..1", "--n", "4"],
    "alpha-s-zero": ["sweep", "--alpha-v", "0.1..0.9..4", "--alpha-s", "0", "--n", "1..3"],
    "all-supercritical": ["sweep", "--alpha-v", "1.2..3..4", "--alpha-s", "0..0.5..3"],
    "s-squared-zero": ["sweep", "--alpha-v", "1..3..5", "--alpha-s", "0"],  # kappa^2 = alpha_v^2
    "n-to-400": ["sweep", "--dimension", "6", "--j", "2.5", "--alpha-v", "0.5..4..3",
                 "--alpha-s", "0.3", "--n", "1..400"],
    # more rows than one emit_table block (output._BLOCK_ROWS rows): 257 and 1,449 rows end in a
    # partial block, 512 in a whole one
    "rows-257": ["sweep", "--alpha-v", "0.05..1.5..257", "--alpha-s", "0.1", "--n", "1"],
    "rows-512": ["sweep", "--alpha-v", "0.1..1.4..16", "--alpha-s", "0..0.4..4", "--n", "1..8"],
    "rows-1449": ["sweep", "--dimension", "4", "--j", "1.5", "--mass", "3e5", "--alpha-v", "0.1..3.1..9",
                  "--alpha-s", "0..3..7", "--n", "2..24"],
    "spectrum-default": ["spectrum"],
    "spectrum-n-to-400": ["spectrum", "--alpha-v", "0.9", "--alpha-s", "0", "--n", "1..400"],
    **{f"{cmd}-free-limit-{mass}": [cmd, "--alpha-v", "1e-12", "--alpha-s", "1e-12",
                                    "--mass", mass, "--n", "1..5"]
       for cmd in ("spectrum", "sweep") for mass in ("1903.835011408123", "333.81042644711175")},
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", list(ARGVS))
def test_table_matches_per_row_path(name, fmt, capsys):
    argv = ARGVS[name] + ["--format", fmt]
    expected = per_row_stdout(argv)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("name", ["rows-257", "rows-512", "rows-1449"])
def test_large_cases_span_several_blocks(name, capsys):
    assert cli.main(ARGVS[name] + ["--format", "csv"]) == 0
    assert capsys.readouterr().out.count("\n") - 1 > output._BLOCK_ROWS


@pytest.mark.parametrize("block_rows", [1, 3, 7])
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", ["seeded-0", "seeded-5", "rows-512", "spectrum-default"])
def test_every_block_size_prints_the_per_row_path(name, fmt, block_rows, monkeypatch, capsys):
    monkeypatch.setattr(output, "_BLOCK_ROWS", block_rows)
    argv = ARGVS[name] + ["--format", fmt]
    expected = per_row_stdout(argv)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("points", [1000, 1001])
@pytest.mark.parametrize("argv", [["wavefunction", "--n", "3"], ["coherent", "--xi-re=-0.4", "--xi-im=0.5"]])
def test_state_tables_across_blocks_match_per_row_path(argv, points, fmt, capsys):
    argv = argv + ["--r-points", str(points), "--format", fmt]
    expected = state_per_row_stdout(argv)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected


def test_config_format_other_than_json_prints_csv(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text('{"format": "csv"}')
    for argv in (["spectrum", "--config", str(config)], ["sweep", "--config", str(config)]):
        expected = per_row_stdout(argv)
        assert expected.startswith("dimension,j,")
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == expected


def test_cases_reach_supercritical_cells_and_the_clamp(capsys):
    seen = ""
    for argv in ARGVS.values():
        cli.main(argv + ["--format", "csv"])
        seen += capsys.readouterr().out
    assert ",supercritical\n" in seen
    assert ",1,0,true,ok\n" in seen  # |E| clamped to m: E/m = 1 and a = 0


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_emit_table_matches_emit_json_and_emit_csv(fmt):
    keys = ("label", "x", "missing", "flag", "k%")
    label = '100% "quoted", once'
    varying = [(0.1, True, 3), (-2.5e-300, False, -1)]
    rows = [dict(zip(keys, (label, x, None, flag, k))) for x, flag, k in varying]
    meta = {"command": "table", "values": [1.5, None]}
    columns = [[token(v, fmt) for v in column] for column in zip(*varying)]
    for reports in ([], [{"check": "a", "value": -0.0, "context": "n=1;s=2"}, {"passed": True}]):
        expected = (emit_json({"meta": meta, "rows": rows, "reports": reports}) if fmt == "json"
                    else emit_csv(rows))
        assert emit_table(fmt, meta, keys, {"label": label, "missing": None}, columns, reports) == expected
