import json

import numpy as np
import pytest

from cli_support import run_cli
from dirac_coulomb import VERIFY_CHECK_COUNT, cli
from dirac_coulomb.output import parse_csv_text
from dirac_coulomb.verification import sommerfeld_energy

BASE = ["--dimension", "3", "--j", "0.5", "--aligned", "--mass", "1"]


def load_json(proc):
    assert proc.returncode in (0, 1), proc.stderr.decode()
    return json.loads(proc.stdout.decode())


class TestSpectrum:
    def test_row_count_and_sommerfeld_values(self):
        proc = run_cli("spectrum", *BASE, "--alpha-v", "0.5", "--alpha-s", "0", "--n", "1..5")
        doc = load_json(proc)
        assert proc.returncode == 0
        assert len(doc["rows"]) == 5
        for row in doc["rows"]:
            want = sommerfeld_energy(row["n"], row["s"], 0.5, 1.0)
            assert row["energy_over_mass"] == pytest.approx(want, rel=1e-12)

    def test_free_limit_rows(self):
        proc = run_cli("spectrum", *BASE, "--alpha-v", "1e-12", "--alpha-s", "1e-12", "--n", "1..5")
        doc = load_json(proc)
        for row in doc["rows"]:
            assert abs(row["energy_over_mass"] - 1.0) < 1e-12

    def test_supercritical_exits_2_without_output(self):
        proc = run_cli("spectrum", *BASE, "--alpha-v", "2.0", "--alpha-s", "0", "--n", "1")
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert b"alpha_v^2 - alpha_s^2" in proc.stderr

    def test_deterministic_ordering(self):
        proc = run_cli("spectrum", *BASE, "--alpha-v", "0.4", "--alpha-s", "0.1", "--n", "1..4")
        doc = load_json(proc)
        assert [row["n"] for row in doc["rows"]] == [1, 2, 3, 4]


class TestWavefunction:
    ARGS = ["wavefunction", *BASE, "--alpha-v", "0.5", "--alpha-s", "0.2", "--n", "1"]

    def test_row_count_matches_grid(self):
        proc = run_cli(*self.ARGS, "--r-points", "120")
        doc = load_json(proc)
        assert len(doc["rows"]) == 120

    def test_trapezoid_norm_on_default_grid(self):
        proc = run_cli(*self.ARGS)
        doc = load_json(proc)
        r = np.array([row["r"] for row in doc["rows"]])
        dens = np.array([row["F"] ** 2 + row["G"] ** 2 for row in doc["rows"]])
        assert abs(np.trapezoid(dens, r) - 1.0) < 1e-3

    def test_ground_state_structure(self):
        # n = 1: the v part is nodeless; each component's coefficient
        # bracket is linear in r, so at most one sign change per component
        proc = run_cli(*self.ARGS, "--r-points", "400")
        doc = load_json(proc)
        g = np.array([row["G"] for row in doc["rows"]])
        f = np.array([row["F"] for row in doc["rows"]])
        changes = lambda v: int(np.sum(np.sign(v[1:]) != np.sign(v[:-1])))
        assert changes(g) <= 1
        assert changes(f) <= 1

    def test_reports_present(self):
        doc = load_json(run_cli(*self.ARGS))
        kinds = [rep["check"] for rep in doc["reports"]]
        assert kinds == ["normalization_comparison", "ode_first_order", "ode_second_order"]
        assert doc["reports"][1]["passed"] is True
        assert doc["reports"][2]["passed"] is True

    def test_rejects_range_n(self):
        proc = run_cli(*self.ARGS[:-1], "1..3")
        assert proc.returncode == 2


class TestCoherent:
    ARGS = ["coherent", *BASE, "--alpha-v", "0.5", "--alpha-s", "0.2"]

    def test_identity_label_reduction(self):
        # xi = 0: real output, and (F, G) follow the linear bracket pair of
        # the lowest coherent mixture pointwise
        proc = run_cli(*self.ARGS, "--xi-re", "0", "--xi-im", "0", "--r-points", "50")
        doc = load_json(proc)
        meta = doc["meta"]
        s = 0.8888194417315589
        kap = -1.0
        a, w = meta["a_ref"], meta["omega_ref"]
        for row in doc["rows"]:
            assert row["F_im"] == 0.0 and row["G_im"] == 0.0
            r = row["r"]
            bracket_f = (s - kap) - 0.3 * w * r / (2 * s + 1)
            bracket_g = -0.7 + (s - kap) * w * r / (2 * s + 1)
            assert row["G_re"] * bracket_f == pytest.approx(row["F_re"] * bracket_g, abs=1e-12)

    def test_truncated_sum_report(self):
        proc = run_cli(*self.ARGS, "--xi-re", "0.4", "--r-points", "20")
        doc = load_json(proc)
        rep = next(r for r in doc["reports"] if r["check"] == "coherent_closed_vs_sum")
        assert rep["residual_max"] < 1e-8
        assert rep["passed"] is True

    def test_boundary_label_exits_2(self):
        proc = run_cli(*self.ARGS, "--xi-re", "1.0")
        assert proc.returncode == 2
        assert proc.stdout == b""


class TestVerify:
    def test_default_suite_passes(self):
        proc = run_cli("verify", "--format", "csv")
        assert proc.returncode == 0, proc.stderr.decode()
        rows = parse_csv_text(proc.stdout.decode())
        assert len(rows) == VERIFY_CHECK_COUNT
        assert all(row["passed"] == "true" for row in rows)

    def test_fault_injection_exits_1(self):
        proc = run_cli("verify", "--_perturb", "--format", "csv")
        assert proc.returncode == 1
        rows = parse_csv_text(proc.stdout.decode())
        failed = [row["check"] for row in rows if row["passed"] == "false"]
        assert failed == ["ode_first_order"]

    def test_tolerance_override_can_fail_a_check(self):
        proc = run_cli("verify", "--tolerance", "normalization=1e-30")
        assert proc.returncode == 1

    def test_unknown_tolerance_key_exits_2(self):
        proc = run_cli("verify", "--tolerance", "nonsense=1e-8")
        assert proc.returncode == 2


class TestSweep:
    def test_cartesian_cardinality(self):
        proc = run_cli("sweep", *BASE, "--alpha-v", "0.1..0.7..3",
                       "--alpha-s", "0..0.2..3", "--n", "1..2")
        doc = load_json(proc)
        assert len(doc["rows"]) == 3 * 3 * 2

    def test_supercritical_cells_flagged_not_fatal(self):
        proc = run_cli("sweep", *BASE, "--alpha-v", "0.5..1.5..3", "--alpha-s", "0..0..1", "--n", "1")
        doc = load_json(proc)
        assert proc.returncode == 0
        status = [row["status"] for row in doc["rows"]]
        assert status[0] == "ok" and "supercritical" in status
        bad = [row for row in doc["rows"] if row["status"] == "supercritical"]
        assert all(row["valid"] is False and row["energy_over_mass"] is None for row in bad)

    def test_monotone_in_n_per_cell(self):
        proc = run_cli("sweep", *BASE, "--alpha-v", "0.2..0.8..3", "--alpha-s", "0..0.1..2", "--n", "1..4")
        doc = load_json(proc)
        cells = {}
        for row in doc["rows"]:
            cells.setdefault((row["alpha_v"], row["alpha_s"]), []).append(row["energy_over_mass"])
        for energies in cells.values():
            assert all(b > a for a, b in zip(energies, energies[1:]))

    def test_row_limit_exits_2(self):
        proc = run_cli("sweep", *BASE, "--alpha-v", "0.1..0.9..400",
                       "--alpha-s", "0..0.05..300", "--n", "1..2")
        assert proc.returncode == 2


class TestFormatsAndDeterminism:
    def test_byte_identical_repeat_runs(self):
        args = ("spectrum", *BASE, "--alpha-v", "0.5", "--alpha-s", "0.2", "--n", "1..6")
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.stdout == b.stdout and a.stdout
        c = run_cli(*args, "--format", "csv")
        d = run_cli(*args, "--format", "csv")
        assert c.stdout == d.stdout and c.stdout

    def test_json_and_csv_encode_identical_values(self):
        args = ("spectrum", *BASE, "--alpha-v", "0.5", "--alpha-s", "0.2", "--n", "1..4")
        doc = load_json(run_cli(*args))
        rows_csv = parse_csv_text(run_cli(*args, "--format", "csv").stdout.decode())
        assert len(doc["rows"]) == len(rows_csv)
        for jrow, crow in zip(doc["rows"], rows_csv):
            assert set(jrow) == set(crow)
            for key, jval in jrow.items():
                cval = crow[key]
                if isinstance(jval, bool):
                    assert cval == ("true" if jval else "false")
                elif jval is None:
                    assert cval == ""
                elif isinstance(jval, (int, float)):
                    assert float(cval) == float(jval)
                else:
                    assert cval == str(jval)

    def test_out_file_matches_stdout(self, tmp_path):
        args = ("spectrum", *BASE, "--alpha-v", "0.5", "--alpha-s", "0.2", "--n", "1..3")
        piped = run_cli(*args).stdout
        target = tmp_path / "rows.json"
        proc = run_cli(*args, "--out", str(target))
        assert proc.returncode == 0
        assert target.read_bytes() == piped

    def test_usage_error_exits_2(self):
        proc = run_cli("spectrum", "--no-such-flag")
        assert proc.returncode == 2


class TestConfigFile:
    def test_config_supplies_values_and_flags_override(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "dimension": 3, "j": 0.5, "alignment": "aligned",
            "alpha_v": 0.5, "alpha_s": 0.0, "mass": 1.0, "n": "1..3",
            "format": "json",
        }))
        doc = load_json(run_cli("spectrum", "--config", str(config)))
        assert len(doc["rows"]) == 3
        assert doc["meta"]["alpha_s"] == 0.0
        # explicit flag wins over the file
        doc2 = load_json(run_cli("spectrum", "--config", str(config), "--alpha-s", "0.2"))
        assert doc2["meta"]["alpha_s"] == 0.2

    def test_unknown_config_key_exits_2(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"coupling": 0.5}))
        proc = run_cli("spectrum", "--config", str(config))
        assert proc.returncode == 2

    def test_missing_config_exits_2(self):
        proc = run_cli("spectrum", "--config", "/no/such/file.json")
        assert proc.returncode == 2


class TestGridValidation:
    def test_too_few_points_exits_2(self):
        proc = run_cli("wavefunction", *BASE, "--alpha-v", "0.5", "--alpha-s", "0.2",
                       "--n", "1", "--r-points", "1")
        assert proc.returncode == 2

    def test_nonpositive_r_min_exits_2(self):
        proc = run_cli("wavefunction", *BASE, "--alpha-v", "0.5", "--alpha-s", "0.2",
                       "--n", "1", "--r-min", "0", "--r-max", "5")
        assert proc.returncode == 2

    def test_invalid_level_exits_2(self):
        proc = run_cli("wavefunction", *BASE, "--alpha-v", "0.5", "--alpha-s", "0.2", "--n", "0")
        assert proc.returncode == 2


@pytest.mark.parametrize("argv", [
    ["spectrum", "--alpha-s", "inf"],
    ["spectrum", "--alpha-s", "nan"],
    ["spectrum", "--mass", "inf"],
    ["wavefunction", "--r-max", "inf"],
    ["spectrum", "--j", "inf"],
    ["spectrum", "--j", "nan"],
    ["coherent", "--xi-re", "nan"],
])
def test_non_finite_input_exits_2_without_output(argv, capsys):
    assert cli.main(argv) == 2
    assert capsys.readouterr().out == ""
