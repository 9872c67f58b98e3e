import ast
from pathlib import Path

import pytest
from hypothesis import settings

from cli_support import ACCEPTANCE_LINES
from dirac_coulomb import Alignment, ProblemParams, derive_constants

# Loaded before any test module is imported, so every @settings inherits it:
# each property test draws the same examples on every run, and with no example
# database nothing saved in .hypothesis/ by one run replays in the next.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def source_size() -> tuple[int, int]:
    """(lines, ast statements) of src/dirac_coulomb/*.py: the package's size figure."""
    lines = statements = 0
    for path in sorted((Path(__file__).parents[1] / "src" / "dirac_coulomb").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines += len(text.splitlines())
        statements += sum(isinstance(node, ast.stmt) for node in ast.walk(ast.parse(text)))
    return lines, statements


def pytest_terminal_summary(terminalreporter):
    """Echo one pass/fail line per acceptance criterion after the run, then the source size."""
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
    terminalreporter.write_line("src/dirac_coulomb/*.py: {:,} lines, {:,} ast statements".format(*source_size()))


@pytest.fixture(scope="session")
def default_params():
    return ProblemParams(dimension=3, j=0.5, alignment=Alignment.ALIGNED,
                         alpha_v=0.5, alpha_s=0.2, mass=1.0)


@pytest.fixture(scope="session")
def default_constants(default_params):
    return derive_constants(default_params)
