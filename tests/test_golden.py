"""The README commands, two deep-series commands, two spectrum tables, three
tolerance or fault-injection runs and two more state tables print byte for byte
what tests/golden records, and exit with the code recorded beside them.

The golden files are the stdout of ``dirac-coulomb`` for each command;
regenerate one only for a change that means to alter the output.
"""

from pathlib import Path

import pytest

from dirac_coulomb import cli

GOLDEN = Path(__file__).parent / "golden"

README_COMMANDS = {
    "spectrum.json": ["spectrum", "--dimension", "3", "--j", "0.5", "--aligned",
                      "--alpha-v", "0.5", "--alpha-s", "0", "--mass", "1", "--n", "1..5"],
    "wavefunction.csv": ["wavefunction", "--alpha-v", "0.5", "--alpha-s", "0.2", "--n", "2",
                         "--format", "csv"],
    "coherent.json": ["coherent", "--alpha-v", "0.5", "--alpha-s", "0.2", "--xi-re", "0.4"],
    "verify.json": ["verify"],
    "sweep.json": ["sweep", "--alpha-v", "0.1..0.9..5", "--alpha-s", "0..0.3..4", "--n", "1..3"],
    # |xi| ~ 0.85: the truncated group expansion runs deep
    "coherent_large_xi.json": ["coherent", "--alpha-v", "0.5", "--alpha-s", "0.2",
                               "--xi-re=0.6", "--xi-im=0.6"],
    "verify_unaligned_d5.json": ["verify", "--dimension", "5", "--j", "1.5", "--unaligned",
                                 "--alpha-v", "0.7", "--alpha-s", "0.3", "--mass", "1e-3"],
    # a grid whose large-alpha_v cells are supercritical
    "sweep_unaligned.csv": ["sweep", "--dimension", "4", "--j", "1.5", "--unaligned",
                            "--mass", "1e3", "--alpha-v", "0.2..3.5..7", "--alpha-s", "0..0.9..3",
                            "--n", "2..6", "--format", "csv"],
    "spectrum_rows.csv": ["spectrum", "--alpha-v", "0.5", "--alpha-s", "0.2", "--n", "1..40",
                          "--format", "csv"],
    # the fault-injected first-order ODE check and an overridden tolerance fail the suite
    "verify_perturb.json": ["verify", "--_perturb"],
    "verify_normalization_strict.csv": ["verify", "--tolerance", "normalization=1e-30",
                                        "--format", "csv"],
    "wavefunction_n3_tolerance.json": ["wavefunction", "--n", "3", "--tolerance",
                                       "ode_second_order=1e-3"],
    # a coherent table as CSV, and a high level on a linear grid
    "coherent_xi_neg085.csv": ["coherent", "--alpha-v", "0.5", "--alpha-s", "0.2", "--xi-re=-0.85",
                               "--format", "csv"],
    "wavefunction_n7_linear.json": ["wavefunction", "--alpha-v", "0.5", "--alpha-s", "0.2", "--n", "7",
                                    "--r-spacing", "linear"],
}
EXIT_CODES = {"verify_perturb.json": 1, "verify_normalization_strict.csv": 1}  # any other: 0


@pytest.mark.parametrize("name", list(README_COMMANDS))
def test_readme_command_output_is_byte_identical(name, capsys):
    assert cli.main(README_COMMANDS[name]) == EXIT_CODES.get(name, 0)
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / name).read_bytes()
