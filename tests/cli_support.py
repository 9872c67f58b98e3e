"""Helpers shared by the CLI and acceptance tests.

Kept out of conftest.py so that ``import`` finds them by a name no other
test directory uses.
"""

import subprocess
import sys

ACCEPTANCE_LINES: list[str] = []


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """Run the CLI in a subprocess; output captured as bytes."""
    return subprocess.run(
        [sys.executable, "-m", "dirac_coulomb", *args],
        capture_output=True,
    )
