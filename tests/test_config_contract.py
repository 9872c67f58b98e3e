"""The config-file half of the CLI's input contract, as a Hypothesis property.

``spectrum --config FILE`` runs on drawn files: JSON objects whose keys are the
common flags' dests and unknown names, with values of every JSON type; JSON
documents that are not objects; and files that are not UTF-8.  Every run exits
0 or 2 without a traceback.  Exit 2 prints an ``error:`` line, and exit 0
prints a table with no nan or inf.
"""

import contextlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dirac_coulomb import cli

DESTS = sorted({action.dest for action in cli._common_arguments()._actions})

# No "/" in drawn text, so a drawn `out` names a file in the run's own directory.
TEXT = st.text(st.characters(exclude_characters="/"), max_size=8)
FLOATS = st.floats(min_value=-1e300, max_value=1e300)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | FLOATS | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=6,
)
# Values of each flag's type, in range more often than not, so that many drawn
# files get past the type and domain checks to a table.
FLAG_VALUES = {
    "dimension": st.integers(2, 12) | st.integers(),
    "j": st.sampled_from([0.5, 1.5, 2.5]) | FLOATS,
    "alignment": st.sampled_from(["aligned", "unaligned"]),
    "alpha_v": st.floats(0.01, 0.9) | FLOATS | st.sampled_from(["0.3", "0.1..0.9..4", "x"]),
    "alpha_s": st.floats(0.0, 0.3) | FLOATS | st.sampled_from(["0", "0..0.2..3"]),
    "mass": st.integers(-300, 300).map(lambda k: float(f"1e{k}")) | FLOATS,  # every decade
    "n": st.integers(1, 6) | st.integers() | st.sampled_from(["1..3", "2", "0..2"]),
    "xi_re": FLOATS, "xi_im": FLOATS, "r_min": FLOATS, "r_max": FLOATS,
    "r_points": st.integers(),
    "r_spacing": st.sampled_from(["linear", "log"]),
    "format": st.sampled_from(["json", "csv"]),
    "out": st.sampled_from(["out.json", ".", "missing/out.json", "nul\x00"]),
    "tolerance": st.dictionaries(TEXT | st.sampled_from(["ode_first_order"]), JSON_VALUES, max_size=2),
}
TYPED_CONFIGS = st.fixed_dictionaries({}, optional=FLAG_VALUES)


@st.composite
def any_configs(draw):
    """Any keys, the flags' dests among them, with values of every JSON type."""
    keys = draw(st.lists(st.sampled_from(DESTS) | TEXT, max_size=5, unique=True))
    return {key: draw(FLAG_VALUES.get(key, JSON_VALUES) | JSON_VALUES) for key in keys}


# (file bytes, the config object they hold or None)
CONFIG_FILES = st.one_of(
    TYPED_CONFIGS.map(lambda config: (json.dumps(config).encode(), config)),
    any_configs().map(lambda config: (json.dumps(config).encode(), config)),
    JSON_VALUES.filter(lambda value: not isinstance(value, dict))
    .map(lambda value: (json.dumps(value).encode(), None)),
    TYPED_CONFIGS.map(lambda config: (json.dumps(config).encode("utf-16"), None)),
    st.binary(max_size=8).map(lambda data: (b"\xff" + data, None)),
)


def _reject_constant(name):
    raise ValueError(f"non-finite value {name} in the output")


def check_spectrum_on(data: bytes, config: dict | None) -> None:
    """Run ``spectrum --config`` on a file holding ``data``, in a directory of its
    own, and check the contract; ``config`` is the object ``data`` encodes, if any."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "config.json")
        path.write_bytes(data)
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["spectrum", "--config", str(path)])
        finally:
            os.chdir(cwd)
        written = Path(tmp, config["out"]).read_text("utf-8") if code == 0 and config.get("out") else None
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
        return
    text = out.getvalue() if written is None else written
    if config.get("format") == "csv":
        assert not re.search(r"\b(nan|inf)\b", text)
    else:
        json.loads(text, parse_constant=_reject_constant)


@settings(max_examples=300, deadline=None)
@given(CONFIG_FILES)
def test_spectrum_on_any_config_file_exits_0_or_2(config_file):
    check_spectrum_on(*config_file)


# past about 1.3e154 in alpha_s, n or D the spectrum formula overflows: exit 2, never a nan row
@pytest.mark.parametrize("config", [{"alpha_s": 1e200}, {"n": 10**160}, {"dimension": 10**160}],
                         ids=["alpha_s", "n", "dimension"])
def test_spectrum_past_the_formula_overflow_keeps_the_contract(config):
    check_spectrum_on(json.dumps(config).encode(), config)
