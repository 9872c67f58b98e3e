import json

import pytest

from dirac_coulomb import (
    Alignment,
    NormalizationComparison,
    ProblemParams,
    SpectrumRecord,
    VerificationReport,
    summarize,
)
from dirac_coulomb.output import emit_csv, emit_json, parse_csv_text


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


class TestSummarize:
    def test_empty(self):
        s = summarize([])
        assert s.total == 0 and s.n_passed == 0 and s.n_failed == 0 and s.all_passed

    def test_single_pass(self):
        s = summarize([VerificationReport.from_residuals("a", [0.0], 1e-8)])
        assert s.total == 1 and s.n_passed == 1 and s.n_failed == 0

    def test_mixed_counts_and_worst(self):
        reports = [
            VerificationReport.from_residuals("a", [1e-12], 1e-8),
            VerificationReport.from_residuals("a", [1e-6], 1e-8),
            VerificationReport.from_residuals("b", [1e-9], 1e-8),
            VerificationReport.from_residuals("c", [2e-8], 1e-8),
            VerificationReport.from_residuals("c", [1e-11], 1e-8),
        ]
        s = summarize(reports)
        assert s.total == 5 and s.n_passed == 3 and s.n_failed == 2
        assert not s.all_passed
        assert s.worst_by_check["a"] == 1e-6
        assert s.worst_by_check["c"] == 2e-8


class TestRoundTrip:
    def test_spectrum_columns_are_the_row_keys(self):
        assert tuple(sample_record().to_row()) == SpectrumRecord.COLUMNS

    def test_spectrum_record_survives_json(self):
        rec = sample_record()
        text = emit_json({"rows": [rec.to_row()]})
        parsed = json.loads(text)
        back = SpectrumRecord.from_row(parsed["rows"][0])
        assert back == rec  # bit-faithful floats via 17 significant digits

    def test_spectrum_record_survives_csv(self):
        rec = sample_record()
        text = emit_csv([rec.to_row()])
        row = parse_csv_text(text)[0]
        coerced = dict(row)
        coerced["valid"] = row["valid"] == "true"
        back = SpectrumRecord.from_row(coerced)
        assert back == rec

    def test_invalid_cell_round_trip(self):
        params = ProblemParams(3, 0.5, Alignment.ALIGNED, 2.0, 0.0, 1.0)
        rec = SpectrumRecord(params=params, n=1, kappa=-1.0, s=None,
                             energy_over_mass=None, scale_a=None,
                             valid=False, status="supercritical")
        parsed = json.loads(emit_json({"rows": [rec.to_row()]}))
        assert SpectrumRecord.from_row(parsed["rows"][0]) == rec


class TestCsvInvalidCells:
    def test_supercritical_row_survives_csv(self):
        params = ProblemParams(3, 0.5, Alignment.ALIGNED, 2.0, 0.0, 1.0)
        rec = SpectrumRecord(params=params, n=2, kappa=-1.0, s=None,
                             energy_over_mass=None, scale_a=None,
                             valid=False, status="supercritical")
        row = parse_csv_text(emit_csv([rec.to_row()]))[0]
        assert SpectrumRecord.from_row(row) == rec

    def test_valid_row_survives_csv_without_coercion(self):
        rec = sample_record()
        row = parse_csv_text(emit_csv([rec.to_row()]))[0]
        assert SpectrumRecord.from_row(row) == rec


class TestReportRoundTrips:
    def test_verification_report_round_trip(self):
        rep = VerificationReport.from_residuals("ode_first_order", [1.5e-12, 3.7e-11],
                                                1e-8, context={"n": 3, "channel": "v"})
        parsed = json.loads(emit_json({"rows": [rep.to_row()]}))
        back = VerificationReport.from_row(parsed["rows"][0])
        assert back.name == rep.name
        assert back.residual_max == rep.residual_max
        assert back.residual_rms == rep.residual_rms
        assert back.tolerance == rep.tolerance
        assert back.passed == rep.passed
        assert back.to_row()["context"] == rep.to_row()["context"]

    def test_verification_report_csv_round_trip(self):
        rep = VerificationReport.from_residuals("casimir", [2e-9], 1e-8, context={"s": 0.6})
        row = parse_csv_text(emit_csv([rep.to_row()]))[0]
        back = VerificationReport.from_row(row)
        assert back.to_row() == rep.to_row()

    def test_inconsistent_passed_rejected(self):
        rep = VerificationReport.from_residuals("x", [1e-6], 1e-8)
        row = rep.to_row()
        row["passed"] = True
        with pytest.raises(ValueError):
            VerificationReport.from_row(row)

    def test_normalization_comparison_round_trip(self):
        comp = NormalizationComparison(0.13002634482142336, 0.12109845844035204)
        parsed = json.loads(emit_json({"rows": [comp.to_row()]}))
        assert NormalizationComparison.from_row(parsed["rows"][0]) == comp
        row = parse_csv_text(emit_csv([comp.to_row()]))[0]
        assert NormalizationComparison.from_row(row) == comp

    def test_normalization_comparison_missing_closed_form_round_trip(self):
        comp = NormalizationComparison(0.5, None)
        row = parse_csv_text(emit_csv([comp.to_row()]))[0]
        assert NormalizationComparison.from_row(row) == comp
