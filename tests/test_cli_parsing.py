"""The CLI's help, usage and argparse error output, pinned byte for byte.

tests/golden/cli_parsing.json records, for each argv below, the stdout,
stderr and exit code of ``cli.main`` at an 80-column terminal.  Regenerate
it only for a change that means to alter what the parser prints.
"""

import json
from pathlib import Path

import pytest

from dirac_coulomb import cli

GOLDEN = Path(__file__).parent / "golden" / "cli_parsing.json"

CASES = {
    "help": ["--help"],
    "spectrum_help": ["spectrum", "--help"],
    "wavefunction_help": ["wavefunction", "--help"],
    "coherent_help": ["coherent", "--help"],
    "verify_help": ["verify", "--help"],
    "sweep_help": ["sweep", "--help"],
    "version": ["--version"],
    "no_arguments": [],
    "unknown_command": ["bogus"],
    # unrecognized arguments are reported with the top-level usage
    "unknown_option": ["spectrum", "--bogus", "1"],
    "verify_only_option": ["spectrum", "--_perturb"],
    "top_level_option_after_command": ["spectrum", "--version"],
    "extra_positional": ["spectrum", "extra"],
    "trailing_separator": ["sweep", "--n", "1", "--"],
    # the top-level parser reads '--=...' as an ambiguous --help/--version
    "ambiguous_top_level": ["spectrum", "--=x"],
    "bad_float": ["spectrum", "--mass", "abc"],
    "bad_choice": ["sweep", "--r-spacing", "cubic"],
    "missing_value": ["wavefunction", "--dimension"],
    "ambiguous_abbreviation": ["spectrum", "--alpha", "0.3"],
    "exclusive_without_command": ["--aligned", "--unaligned"],
    "exclusive_after_command": ["spectrum", "--aligned", "--unaligned"],
}

PARSED = [
    ["verify", "--_perturb"],
    ["spectrum", "--dim", "3"],
    ["wavefunction", "--alpha-v=0.4", "--n", "2", "--tolerance", "ode_first_order=1e-6",
     "--tolerance", "ode_second_order=1e-5", "--unaligned"],
    ["coherent", "--xi-re=-0.5", "--xi-im", "0.1", "--format", "csv"],
    ["sweep", "--alpha-v", "0.1..0.9..5", "--r-spacing", "linear"],
]


def run(argv, capsys, monkeypatch) -> dict:
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return {"code": code, "stdout": out, "stderr": err}


@pytest.mark.parametrize("name", list(CASES))
def test_parser_output_is_byte_identical(name, capsys, monkeypatch):
    assert run(CASES[name], capsys, monkeypatch) == json.loads(GOLDEN.read_text("utf-8"))[name]


@pytest.mark.parametrize("argv", PARSED, ids=lambda argv: " ".join(argv))
def test_main_parses_as_the_full_parser(argv, monkeypatch):
    seen = []
    monkeypatch.setitem(cli._COMMANDS, argv[0], lambda args: seen.append(vars(args)) or 0)
    assert cli.main(argv) == 0
    want = cli.build_parser().parse_args(argv)
    cli._fill_defaults(want)  # as main does before it dispatches
    assert seen == [vars(want)]
    assert seen[0]["command"] == argv[0]


def test_verify_perturb_and_abbreviation_parse(monkeypatch):
    seen = []
    for command in ("verify", "spectrum"):
        monkeypatch.setitem(cli._COMMANDS, command, lambda args: seen.append(args) or 0)
    assert cli.main(["verify", "--_perturb"]) == 0
    assert cli.main(["spectrum", "--dim", "3"]) == 0
    assert seen[0].perturb is True
    assert seen[1].dimension == 3


@pytest.mark.parametrize("argv, joined", [
    (["coherent", "--xi-re", "-1e-3"], ["coherent", "--xi-re=-1e-3"]),
    (["coherent", "--xi-r", "-1e-3", "--xi-im", "-2E-1"], ["coherent", "--xi-re=-1e-3", "--xi-im=-2E-1"]),
    (["spectrum", "--n", "-2..3"], ["spectrum", "--n=-2..3"]),
    (["sweep", "--alpha-v", "-inf..0.5..2"], ["sweep", "--alpha-v=-inf..0.5..2"]),
    (["spectrum", "--mass", "-nan"], ["spectrum", "--mass=-nan"]),
    (["spectrum", "--mass", "-Infinity"], ["spectrum", "--mass=-Infinity"]),
], ids=lambda argv: " ".join(argv))
def test_a_word_that_starts_with_a_minus_and_a_digit_is_a_value(argv, joined, capsys, monkeypatch):
    # "-1e-3" is no plain number, yet as its own word it is the flag's value, as joined by "=";
    # so are -inf, -nan and -Infinity in any case, which reach the CLI's own "must be finite"
    want = run(joined, capsys, monkeypatch)
    assert run(argv, capsys, monkeypatch) == want
    assert want["code"] == (0 if argv[0] == "coherent" else 2)
