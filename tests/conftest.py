import pytest
from hypothesis import settings

from cli_support import ACCEPTANCE_LINES
from dirac_coulomb import Alignment, ProblemParams, derive_constants

# Loaded before any test module is imported, so every @settings inherits it:
# each property test draws the same examples on every run, and with no example
# database nothing saved in .hypothesis/ by one run replays in the next.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def pytest_terminal_summary(terminalreporter):
    """Echo one pass/fail line per acceptance criterion after the run."""
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def default_params():
    return ProblemParams(dimension=3, j=0.5, alignment=Alignment.ALIGNED,
                         alpha_v=0.5, alpha_s=0.2, mass=1.0)


@pytest.fixture(scope="session")
def default_constants(default_params):
    return derive_constants(default_params)
