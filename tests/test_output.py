"""output's one scalar chain: each format renders the values it supports the
same way, quotes CSV strings as csv.writer does, and raises TypeError on
anything else; verify's CSV table equals emit_csv of its report rows."""

import csv
import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dirac_coulomb import cli
from dirac_coulomb.output import emit_csv, emit_json, emit_table, token
from test_golden import README_COMMANDS


def csv_writer_field(text: str) -> str:
    """The field csv.writer writes for ``text``, as emit_csv configures it."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, "end"])
    assert buf.getvalue().endswith(",end\n")
    return buf.getvalue()[:-len(",end\n")]


@given(st.text(st.sampled_from([",", '"', "\n", "\r", " ", "a", ";", "="]), max_size=12) | st.text(max_size=8))
def test_csv_token_quotes_as_csv_writer(text):
    assert token(text, "csv") == csv_writer_field(text)


@pytest.mark.parametrize("value", [1 + 2j, np.complex128(0.5), object()])
def test_unsupported_scalar_raises_in_both_formats(value):
    with pytest.raises(TypeError, match="cannot serialize"):
        emit_json({"a": value})
    with pytest.raises(TypeError, match="cannot serialize"):
        emit_csv([{"a": value}])
    for fmt in ("json", "csv"):
        with pytest.raises(TypeError, match="cannot serialize"):
            token(value, fmt)


@pytest.mark.parametrize("cell", [[1.0, 2.0], (1,), {"a": 1}])
def test_container_cell_raises_in_csv(cell):
    with pytest.raises(TypeError, match="cannot serialize"):
        emit_csv([{"a": cell}])
    with pytest.raises(TypeError, match="cannot serialize"):
        emit_table("csv", {}, ("a",), {"a": cell}, [["x"]])


@pytest.mark.parametrize("argv", [
    ["verify"],
    ["verify", "--_perturb"],
    README_COMMANDS["verify_unaligned_d5.json"],
], ids=["default", "perturb", "unaligned_d5"])
def test_verify_csv_is_emit_csv_of_the_report_rows(argv, monkeypatch, capsys):
    reports, run_suite = [], cli.run_suite

    def recorded(*args, **kwargs):
        reports.extend(run_suite(*args, **kwargs))
        return reports

    monkeypatch.setattr(cli, "run_suite", recorded)
    code = cli.main([*argv, "--format", "csv"])
    assert code == (0 if all(rep.passed for rep in reports) else 1)
    out = capsys.readouterr().out
    assert out == emit_csv([rep.to_row() for rep in reports])
    assert '"' in out  # some context strings hold a ',' and are quoted
