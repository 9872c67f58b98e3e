import csv
import json

import pytest

from dirac_coulomb import (
    Alignment,
    NormalizationComparison,
    ProblemParams,
    SpectrumRecord,
    VerificationReport,
)
from dirac_coulomb.output import emit_csv, emit_json


def csv_row(row):
    """emit_csv of one row dict, read back with csv.DictReader and each field
    given the type of the row's own value: bit-faithful rendering makes it
    equal to the row."""
    (text,) = csv.DictReader(emit_csv([row]).splitlines())

    def typed(field, value):
        if value is None:
            return None if field == "" else field
        if isinstance(value, bool):
            return {"true": True, "false": False}.get(field, field)
        return type(value)(field)

    return {key: typed(text[key], value) for key, value in row.items()}


def json_row(row):
    """emit_json of one row dict, read back with json.loads."""
    return json.loads(emit_json({"rows": [row]}))["rows"][0]


def sample_record():
    params = ProblemParams(3, 1.5, Alignment.UNALIGNED, 0.37, 0.11, 2.0)
    return SpectrumRecord(params=params, n=4, kappa=2.0, s=1.9261749731259742,
                          energy_over_mass=0.99803918762261178,
                          scale_a=0.12517381192922693, valid=True, status="ok")


class TestVerificationReport:
    def test_passed_follows_tolerance(self):
        rep = VerificationReport.from_residuals("x", [1e-10, 3e-9], 1e-8)
        assert rep.passed and rep.residual_max == 3e-9
        rep = VerificationReport.from_residuals("x", [3e-8], 1e-8)
        assert not rep.passed

    def test_empty_residuals(self):
        rep = VerificationReport.from_residuals("x", [], 1e-8)
        assert rep.residual_max == 0.0 and rep.passed

    def test_context_string_is_canonical(self):
        rep = VerificationReport.from_residuals("x", [0.0], 1e-8,
                                                context={"b": 2, "a": True, "c": 0.5})
        assert rep.to_row()["context"] == "a=true;b=2;c=0.5"


class TestNormalizationComparison:
    def test_close_values_unflagged(self):
        comp = NormalizationComparison(1.0, 1.0 + 1e-9)
        assert not comp.flagged
        assert comp.ratio == pytest.approx(1.0, abs=1e-8)

    def test_discrepancy_flagged(self):
        comp = NormalizationComparison(1.0, 0.9)
        assert comp.flagged

    def test_missing_closed_form_flagged(self):
        comp = NormalizationComparison(1.0, None)
        assert comp.flagged and comp.ratio is None

    def test_requires_positive_quadrature_constant(self):
        with pytest.raises(ValueError):
            NormalizationComparison(0.0, 1.0)


class TestRoundTrip:
    def test_spectrum_columns_are_the_row_keys(self):
        assert tuple(sample_record().to_row()) == SpectrumRecord.COLUMNS

    def test_spectrum_record_survives_json(self):
        row = sample_record().to_row()
        assert json_row(row) == row  # bit-faithful floats via 17 significant digits

    def test_spectrum_record_survives_csv(self):
        row = sample_record().to_row()
        assert csv_row(row) == row

    def test_invalid_cell_round_trip(self):
        params = ProblemParams(3, 0.5, Alignment.ALIGNED, 2.0, 0.0, 1.0)
        rec = SpectrumRecord(params=params, n=1, kappa=-1.0, s=None,
                             energy_over_mass=None, scale_a=None,
                             valid=False, status="supercritical")
        assert json_row(rec.to_row()) == rec.to_row()


class TestCsvInvalidCells:
    def test_supercritical_row_survives_csv(self):
        params = ProblemParams(3, 0.5, Alignment.ALIGNED, 2.0, 0.0, 1.0)
        rec = SpectrumRecord(params=params, n=2, kappa=-1.0, s=None,
                             energy_over_mass=None, scale_a=None,
                             valid=False, status="supercritical")
        assert csv_row(rec.to_row()) == rec.to_row()

    def test_valid_row_survives_csv_without_coercion(self):
        row = sample_record().to_row()
        (text,) = csv.DictReader(emit_csv([row]).splitlines())
        assert text["valid"] == "true"
        assert csv_row(row) == row


class TestReportRoundTrips:
    def test_verification_report_round_trip(self):
        rep = VerificationReport.from_residuals("ode_first_order", [1.5e-12, 3.7e-11],
                                                1e-8, context={"n": 3, "channel": "v"})
        back = json_row(rep.to_row())
        assert back["check"] == rep.name
        assert back["residual_max"] == rep.residual_max
        assert back["residual_rms"] == rep.residual_rms
        assert back["tolerance"] == rep.tolerance
        assert back["passed"] == rep.passed
        assert back["context"] == rep.to_row()["context"]

    def test_verification_report_csv_round_trip(self):
        rep = VerificationReport.from_residuals("casimir", [2e-9], 1e-8, context={"s": 0.6})
        assert csv_row(rep.to_row()) == rep.to_row()

    def test_inconsistent_passed_rejected(self):
        # passed is derived from the residuals: a report cannot state its own
        rep = VerificationReport.from_residuals("x", [1e-6], 1e-8)
        assert rep.to_row()["passed"] is False
        with pytest.raises(TypeError):
            VerificationReport(name="x", residual_max=1e-6, residual_rms=1e-6, tolerance=1e-8, passed=True)

    def test_normalization_comparison_round_trip(self):
        row = NormalizationComparison(0.13002634482142336, 0.12109845844035204).to_row()
        assert json_row(row) == row
        assert csv_row(row) == row

    def test_normalization_comparison_missing_closed_form_round_trip(self):
        row = NormalizationComparison(0.5, None).to_row()
        assert row["closed_form"] is None and row["ratio"] is None
        assert csv_row(row) == row
