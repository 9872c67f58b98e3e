"""The README commands print byte for byte what tests/golden records.

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
}


@pytest.mark.parametrize("name", list(README_COMMANDS))
def test_readme_command_output_is_byte_identical(name, capsys):
    assert cli.main(README_COMMANDS[name]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / name).read_bytes()
