import argparse
import csv
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from cli_support import run_cli
from dirac_coulomb import VERIFY_CHECK_COUNT, cli
from dirac_coulomb.errors import DiracCoulombError
from dirac_coulomb.verification import sommerfeld_energy

BASE = ["--dimension", "3", "--j", "0.5", "--aligned", "--mass", "1"]
# s = 112.6, where Gamma(2s) and Gamma(2s+1) are past the double range
LARGE_S = ["--dimension", "120", "--j", "60.5", "--alpha-v", "40"]


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

    @pytest.mark.parametrize("top, rows", [("100001", 100_001), ("100000000000000000000", 10**20)])
    def test_row_limit_exits_2_before_any_row(self, top, rows, capsys):
        # the count is stop - start: len() of a range past sys.maxsize raises OverflowError
        tracemalloc.start()
        try:
            code = cli.main(["spectrum", "--n", f"1..{top}"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: spectrum of {rows} rows exceeds the {cli.MAX_SWEEP_ROWS} row limit\n"
        assert peak < 2_000_000

    def test_row_limit_is_inclusive(self, capsys):
        assert cli.main(["spectrum", "--n", f"1..{cli.MAX_SWEEP_ROWS}", "--format", "csv"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + cli.MAX_SWEEP_ROWS


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

    def test_rejects_range_longer_than_maxsize(self, capsys):
        assert cli.main([*self.ARGS[:-1], "1..100000000000000000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: wavefunction requires a single --n\n"

    @pytest.mark.parametrize("argv", [
        # the normalization quadrature overflowed here, and NormalizationComparison raised a bare ValueError
        ["--dimension", "107", "--j", "43.5", "--aligned", "--alpha-v", "47.25301488902896",
         "--alpha-s", "27.743710555220268", "--mass", "742.851353668728", "--n", "25"],
        # past the last level whose quadrature rule fitted in MAX_ORDER (exited 1 with a TypeError)
        ["--n", "400"],
    ], ids=["large_kappa", "n400"])
    def test_large_inputs_print_finite_tables(self, argv, capsys):
        assert cli.main(["wavefunction", *argv]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert len(doc["rows"]) == 200
        assert all(rep["passed"] for rep in doc["reports"][1:])

    @pytest.mark.parametrize("argv", [
        ["--alpha-s", "1e20"], ["--alpha-s", "1e50"],
        ["--dimension", "7", "--j", "0.5", "--alpha-s", "3.9e90", "--n", "5"],
    ], ids=["alpha_s_1e20", "alpha_s_1e50", "d7_n5"])
    def test_prefactor_past_the_double_range_exits_2(self, argv, capsys):
        # (2a)^(s-1) raised a bare OverflowError here, where coherent and verify exit 2
        assert cli.main(["wavefunction", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: spinor prefactor is out of double range at s = ")

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the D = 120 spinor overflows, "
                                           "and its ODE residuals print as nan")
    def test_overflowing_spinor_keeps_the_exit_contract(self, capsys):
        try:
            code = cli.main(["wavefunction", "--dimension", "120", "--j", "60.5", "--n", "1"])
        except Exception:  # a traceback breaks the contract too
            code = None
        captured = capsys.readouterr()
        assert code in (0, 2)
        assert not re.search(r"\b(nan|inf|NaN|Infinity)\b", captured.out)
        assert "Traceback" not in captured.err


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: far out on the grid r^p overflows against the "
                                       "underflowed e^(-ar), and inf * 0 prints as nan")
@pytest.mark.parametrize("argv", [["wavefunction", "--r-max", "1e300"],
                                  ["coherent", "--xi-re", "0.3", "--r-max", "1e300"]], ids=["wavefunction", "coherent"])
def test_far_grid_keeps_the_exit_contract(argv, capsys):
    try:
        code = cli.main(argv)
    except Exception:  # a traceback breaks the contract too
        code = None
    captured = capsys.readouterr()
    assert code in (0, 2)
    assert not re.search(r"\b(nan|inf|NaN|Infinity)\b", captured.out)


def _reject_constant(name):
    raise ValueError(f"non-finite value {name} in the output")


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

    @pytest.mark.parametrize("xi", ["0", "0.6", "-0.6"])
    def test_large_s_prints_finite_numbers(self, xi, capsys):
        # exp(ln Gamma(2s)) overflowed here, and the command exited 1 with a bare OverflowError
        assert cli.main(["coherent", *LARGE_S, "--xi-re", xi]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert len(doc["rows"]) == 200
        # the conventional constant's Gamma(2s+1) has no double value: reported as undefined
        assert doc["reports"][0]["closed_form"] is None and doc["reports"][0]["flagged"] is True

    def test_prefactor_past_the_double_range_exits_2(self, capsys):
        # s = 199.5: even sqrt(Gamma(2s)) overflows
        assert cli.main(["coherent", "--dimension", "400", "--j", "0.5", "--alpha-v", "0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: coherent spinor prefactor is out of double range at s = 199.49")

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: at s = 99.5 r^s overflows far out on the grid "
                                           "against the underflowed prefactor, and those rows print as nan")
    def test_overflowing_grid_values_keep_the_exit_contract(self, capsys):
        try:
            code = cli.main(["coherent", "--dimension", "200", "--j", "0.5", "--alpha-v", "0.5", "--xi-re", "0.9"])
        except Exception:  # a traceback breaks the contract too
            code = None
        captured = capsys.readouterr()
        assert code in (0, 2)
        assert not re.search(r"\b(nan|inf|NaN|Infinity)\b", captured.out)


class TestVerify:
    def test_large_s_reports_without_a_traceback(self, capsys):
        # the coherent checks raised OverflowError (Gamma(2s+2)) and then ZeroDivisionError
        # (coherent_ratio_limit's f(r) / r**s, with both below the normal doubles) here
        assert cli.main(["verify", *LARGE_S, "--format", "csv"]) == 1
        rows = {row["check"]: row for row in csv.DictReader(capsys.readouterr().out.splitlines())}
        assert len(rows) == VERIFY_CHECK_COUNT
        for name in ("commutator_k0_kplus", "commutator_k0_kminus", "commutator_kminus_kplus",
                     "coherent_ratio_limit"):
            assert np.isfinite(float(rows[name]["residual_max"])) and rows[name]["passed"] == "true"

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: at s = 112.6 the Gauss-Laguerre rules (alpha = 2s) "
                                           "of normalization and coherent_norm overflow, and their residuals "
                                           "print as nan")
    def test_large_s_keeps_the_exit_contract(self, capsys):
        try:
            code = cli.main(["verify", *LARGE_S])
        except Exception:  # a traceback breaks the contract too
            code = None
        captured = capsys.readouterr()
        assert code in (0, 1, 2)
        assert not re.search(r"\b(nan|inf|NaN|Infinity)\b", captured.out)

    def test_sturmian_overflow_exits_2(self):
        # s = 1499.5: 2^s in the Sturmian prefactor leaves the double range
        proc = run_cli("verify", "--dimension", "3000", "--j", "0.5", "--alpha-v", "0.5")
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"error: ") and b"Traceback" not in proc.stderr

    def test_a_rule_that_overflows_on_its_way_to_converging_prints_no_warning(self):
        # s = 8e12: the Newton polish of the order-48 rules at alpha = 2s +- 1 overflows in some steps
        # and still converges; the rule checks judge it, and stderr holds the error line alone
        proc = run_cli("verify", "--dimension", "16000000000000", "--alpha-v", "1", "--alpha-s", "0")
        assert proc.returncode == 2
        assert proc.stderr == b"error: Sturmian prefactor is out of double range at s = 7999999999999.5\n"

    def test_default_suite_passes(self):
        proc = run_cli("verify", "--format", "csv")
        assert proc.returncode == 0, proc.stderr.decode()
        rows = list(csv.DictReader(proc.stdout.decode().splitlines()))
        assert len(rows) == VERIFY_CHECK_COUNT
        assert all(row["passed"] == "true" for row in rows)

    def test_fault_injection_exits_1(self):
        proc = run_cli("verify", "--_perturb", "--format", "csv")
        assert proc.returncode == 1
        rows = list(csv.DictReader(proc.stdout.decode().splitlines()))
        failed = [row["check"] for row in rows if row["passed"] == "false"]
        assert failed == ["ode_first_order"]

    def test_tolerance_override_can_fail_a_check(self):
        proc = run_cli("verify", "--tolerance", "normalization=1e-30")
        assert proc.returncode == 1

    @pytest.mark.parametrize("mass", ["1903.835011408123", "333.81042644711175"])
    def test_free_limit_at_rounding_masses(self, mass, capsys):
        # at these masses the free-limit quotient rounds one ulp above m;
        # energy() must return m there, not raise
        assert cli.main(["verify", "--mass", mass]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) == VERIFY_CHECK_COUNT
        free = next(row for row in rows if row["check"] == "spectrum_free_limit")
        assert free["residual_max"] == 0

    def test_unknown_tolerance_key_exits_2(self):
        proc = run_cli("verify", "--tolerance", "nonsense=1e-8")
        assert proc.returncode == 2

    @pytest.mark.parametrize("command, key", [
        ("verify", "casimir"), ("wavefunction", "ode_first_order"),
        ("wavefunction", "ode_second_order"), ("coherent", "coherent_closed_vs_sum"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_exits_2(self, command, key, value, capsys):
        assert cli.main([command, "--tolerance", f"{key}={value}", "--format", "csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: tolerance value for {key!r} must be finite, got {value!r}\n"

    @pytest.mark.parametrize("value, message", [
        ("NaN", "must be finite, got 'nan'"),
        ('"abc"', "is not a number: 'abc'"),
    ])
    def test_bad_tolerance_in_config_exits_2(self, value, message, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"tolerance": {"normalization": 1e-8, "casimir": %s}}' % value)
        assert cli.main(["verify", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: tolerance value for 'casimir' {message}\n"


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

    def test_row_limit_is_inclusive(self, capsys):
        assert cli.MAX_SWEEP_ROWS == 100 * 100 * 10
        assert cli.main(["sweep", *BASE, "--alpha-v", "0.01..0.9..100", "--alpha-s", "0..0.3..100",
                         "--n", "1..10", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + cli.MAX_SWEEP_ROWS
        # 11 * 9091 = MAX_SWEEP_ROWS + 1
        assert cli.main(["sweep", *BASE, "--alpha-v", "0.01..0.9..11", "--alpha-s", "0..0.3..9091",
                         "--n", "1", "--format", "csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: sweep of 100001 rows exceeds the 100000 row limit\n"

    @pytest.mark.parametrize("argv, rows", [
        (["--alpha-v", "0.1..0.9..1000000", "--n", "1"], 1_000_000),
        (["--n", "1..2000000"], 2_000_000),
    ])
    def test_rejected_sweep_builds_no_axis(self, argv, rows, capsys):
        # the row count comes from the parsed counts; no axis value is made before the check
        tracemalloc.start()
        try:
            code = cli.main(["sweep", *argv])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: sweep of {rows} rows exceeds the 100000 row limit\n"
        assert peak < 2_000_000

    @pytest.mark.parametrize("flag, message", [
        ("--alpha-v=-0.1..0.5..3", "alpha_v must be positive, got -0.1"),
        ("--alpha-v=0.5..-0.1..3", "alpha_v must be positive, got -0.1"),
        ("--alpha-s=-0.1..0.2..2", "alpha_s must be non-negative, got -0.1"),
        ("--alpha-s=0.2..-0.1..2", "alpha_s must be non-negative, got -0.1"),
        ("--alpha-v=nan..1..3", "alpha_v must be finite, got nan"),
    ])
    def test_every_cell_is_validated_before_output(self, flag, message, capsys):
        assert cli.main(["sweep", *BASE, flag, "--n", "1..2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["--alpha-v=-1.7e308..1.7e308..3"],  # stop - start overflows, and np.linspace with it
         "--alpha-v range from -1.7e+308 to 1.7e+308 spans more than the double range"),
        (["--alpha-s=-0.2..0.1..3", "--mass", "-1"], "alpha_s must be non-negative, got -0.2"),
    ])
    def test_first_invalid_cell_is_named_without_warnings(self, argv, message, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["sweep", *BASE, *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_a_value_that_starts_with_a_minus_may_be_its_own_word(self, capsys):
        # as its own word or joined to its flag by "=", "-0.1..0.5..3" reaches the CLI's own check
        for value in (["--alpha-v", "-0.1..0.5..3"], ["--alpha-v=-0.1..0.5..3"]):
            assert cli.main(["sweep", *BASE, *value]) == 2
            assert capsys.readouterr() == ("", "error: alpha_v must be positive, got -0.1\n")

    @pytest.mark.parametrize("seed", range(4))
    def test_edge_mask_names_the_cell_the_per_cell_check_names(self, seed, monkeypatch, capsys):
        # reference: ProblemParams of every cell of row 0, then of column 0, until one fails
        rng = np.random.default_rng([19, seed])
        valid, invalid = [0.3, 1.5, 5.0], [0.0, -0.0, -0.2, math.nan, math.inf, -math.inf]
        for _ in range(50):
            axes = [[valid[i] for i in rng.integers(0, len(valid), int(rng.integers(1, 5)))] for _ in "vs"]
            for axis in axes:  # 0-2 values that may be invalid, at random places
                for _ in range(int(rng.integers(0, 3))):
                    axis[int(rng.integers(0, len(axis)))] = invalid[int(rng.integers(0, len(invalid)))]
            # a quarter of the cases also give a mass or dimension that fails in every cell
            failing = [["--mass", "-1"], ["--mass", "nan"], ["--dimension", "1"]] + [[]] * 9
            extra = failing[int(rng.integers(0, len(failing)))]
            argv = ["sweep", *BASE, *extra, f"--alpha-v=1..2..{len(axes[0])}",
                    f"--alpha-s=1..2..{len(axes[1])}", "--n", "1", "--format", "csv"]
            args = cli.build_parser().parse_args(argv)
            cli._fill_defaults(args)
            expected = ""
            for av, as_ in [(axes[0][0], v) for v in axes[1]] + [(v, axes[1][0]) for v in axes[0][1:]]:
                try:
                    cli._problem_params(args, alpha_v=av, alpha_s=as_)
                except DiracCoulombError as exc:
                    expected = f"error: {exc}\n"
                    break
            given = iter(axes)
            monkeypatch.setattr(cli, "_axis", lambda *_: next(given))
            assert cli.main(argv) == (2 if expected else 0)
            assert capsys.readouterr().err == expected

    @pytest.mark.parametrize("flag, message", [
        ("--alpha-v=0.1..inf..3", "alpha_v must be finite, got inf"),
        ("--alpha-v=-inf..0.5..2", "alpha_v must be finite, got -inf"),
        ("--alpha-s=0..inf..3", "alpha_s must be finite, got inf"),
    ])
    def test_infinite_range_bound_is_named(self, flag, message, capsys):
        # rejected before np.linspace, which would warn and turn it into nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["sweep", *BASE, flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


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
        rows_csv = list(csv.DictReader(run_cli(*args, "--format", "csv").stdout.decode().splitlines()))
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

    @pytest.mark.parametrize("entry", [
        '"mass": "x"', '"r_points": "abc"', '"r_min": "0.1"', '"mass": true', '"dimension": 3.0',
        '"out": 5', '"n": [1]', '"tolerance": 5', '"alignment": "foo"', '"format": "xml"',
        '"r_spacing": "cubic"',
    ])
    def test_config_value_outside_its_flag_exits_2(self, entry, tmp_path, capsys):
        # each value fails the type or choices check of its flag
        config = tmp_path / "bad.json"
        config.write_text("{%s}" % entry)
        assert cli.main(["wavefunction", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: config value for ")


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

    @pytest.mark.parametrize("command", ["spectrum", "wavefunction", "sweep"])
    @pytest.mark.parametrize("n, message", [
        ("0", "--n values must be >= 1, got '0'"),
        ("-2..3", "--n values must be >= 1, got '-2..3'"),
        ("5..1", "--n range '5..1' is empty: its end is below its start"),
        ("1..0", "--n range '1..0' is empty: its end is below its start"),
    ])
    def test_bad_level_is_named(self, command, n, message, capsys):
        assert cli.main([command, f"--n={n}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["wavefunction", "coherent"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("points", [1_000_001, 100000000000000000000])
    def test_point_limit_exits_2_before_the_grid(self, command, source, points, tmp_path, capsys):
        # numpy cannot allocate 10^20 points, so without the limit np.geomspace raises a ValueError
        assert cli.MAX_GRID_POINTS == 1_000_000
        argv = [command, "--r-points", str(points)]
        if source == "config":
            config = tmp_path / "grid.json"
            config.write_text(json.dumps({"r_points": points}))
            argv = [command, "--config", str(config)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: grid of {points} points exceeds the 1000000 point limit\n"

    @pytest.mark.parametrize("spacing", ["linear", "log"])
    def test_point_limit_is_inclusive(self, spacing):
        args = argparse.Namespace(r_min=None, r_max=None, r_points=cli.MAX_GRID_POINTS, r_spacing=spacing)
        assert cli._grid(args, 1.0).shape == (cli.MAX_GRID_POINTS,)

    @pytest.mark.parametrize("value", ["100001", 100001, "100000000000000000000"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_level_limit_exits_2_before_any_work(self, value, source, tmp_path, capsys, monkeypatch):
        # at about 46 us per degree, --n 10^9 would run for hours
        assert cli.MAX_LEVEL == 100_000
        for name in ("bound_level", "assemble_spinor"):
            monkeypatch.setattr(cli, name, lambda *args: pytest.fail("a level was built"))
        if source == "flag":
            argv = ["wavefunction", "--n", str(value)]
        else:
            config = tmp_path / "level.json"
            config.write_text(json.dumps({"n": value}))
            argv = ["wavefunction", "--config", str(config)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: wavefunction --n {int(value)} exceeds the 100000 level limit\n"

    def test_level_limit_is_inclusive(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(cli, "bound_level", reached)
        with pytest.raises(Reached):
            cli.main(["wavefunction", "--n", str(cli.MAX_LEVEL)])


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


@pytest.mark.parametrize("argv", [
    # a = sqrt((m - E)(m + E)) underflows to 0, and theta = ln a raised a bare ValueError
    ["wavefunction", "--mass", "1e-162"], ["coherent", "--mass", "1e-170"], ["verify", "--mass", "1e-200"],
    # a^3 of the closed-form constants raised a bare OverflowError, and from m = 1e154 on
    # also the coherent norm bracket
    ["wavefunction", "--mass", "1e105"], ["coherent", "--mass", "1e105"], ["verify", "--mass", "1e105"],
    ["wavefunction", "--mass", "1e160"], ["coherent", "--mass", "1e160"], ["verify", "--mass", "1e160"],
], ids=" ".join)
def test_mass_past_the_double_range_exits_2(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: a = ") and b"out of double range" in proc.stderr
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    # s = inf: verify's rules raised a LinAlgError, wavefunction blamed a = 0, spectrum printed nan
    ["verify", "--alpha-s", "1e160"], ["wavefunction", "--alpha-s", "1e200"],
    ["spectrum", "--alpha-s", "1e200"], ["spectrum", "--dimension", str(10 ** 160)],
    # s finite, but nu * nu overflows, or s in a later cell of the grid; an n past the doubles raised
    # OverflowError
    ["spectrum", "--n", str(10 ** 160)], ["sweep", "--alpha-s", "1e100..1e200..3"], ["spectrum", "--n", str(10 ** 400)],
], ids=["verify_alpha_s", "wavefunction_alpha_s", "spectrum_alpha_s", "spectrum_dimension", "spectrum_n",
        "sweep_alpha_s", "spectrum_n_past_the_doubles"])
def test_spectrum_formula_overflow_exits_2(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "overflows" in captured.err


def test_mass_below_the_cube_overflow_still_prints(capsys):
    assert cli.main(["coherent", "--mass", "1e102"]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert len(doc["rows"]) == 200


@pytest.mark.parametrize("command", ["spectrum", "verify"])
@pytest.mark.parametrize("target", ["missing_dir", "directory"])
def test_unwritable_out_exits_2(command, target, tmp_path, capsys):
    # open() raised FileNotFoundError or IsADirectoryError, exit 1 like a failed verify
    out = tmp_path / "no" / "x.json" if target == "missing_dir" else tmp_path
    assert cli.main([command, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")


@pytest.mark.parametrize("out", ["a\x00b", "\ud800"], ids=["nul", "lone_surrogate"])
def test_out_path_that_open_refuses_exits_2(out, tmp_path):
    # open() raised ValueError, or UnicodeEncodeError, on a path only a config file can give
    config = tmp_path / "out.json"
    config.write_text(json.dumps({"out": out}))
    proc = run_cli("spectrum", "--config", str(config))
    assert proc.returncode == 2
    assert proc.stdout == b"" and proc.stderr.startswith(b"error: cannot write ")
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize("data", [
    b"\xff\xfe",  # not UTF-8: UnicodeDecodeError
    b'{"n": ' + b"1" * 5000 + b"}",  # int() refuses more than 4300 digits
    b"[" * 100_000 + b"]" * 100_000,  # the decoder's recursion limit
], ids=["not_utf8", "long_integer", "deep_nesting"])
def test_unreadable_config_exits_2(data, tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_bytes(data)
    assert cli.main(["spectrum", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read config file {config}: ")


@pytest.mark.parametrize("mass", ["1e-300", "1e-200", "1e-160", "1e155", "1e300"])
@pytest.mark.parametrize("command", ["spectrum", "sweep"])
def test_scale_a_is_covariant_across_the_double_range(command, mass, capsys):
    # (m - E)(m + E) left the normal doubles: scale_a printed inf, 0, or lost digits.  Weak
    # couplings are left out: there m - E cancels, and scale_a / m moves by 1e-13 at any mass.
    argv = [command, "--n", "1..3"] + (["--alpha-v", "0.5..0.9..5", "--alpha-s", "0..0.2..3"]
                                       if command == "sweep" else [])

    def scales(m):
        assert cli.main(argv + ["--mass", m]) == 0
        rows = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)["rows"]
        assert all(row["valid"] for row in rows)
        return np.array([row["scale_a"] for row in rows]) / float(m)

    np.testing.assert_allclose(scales(mass), scales("1"), rtol=1e-14, atol=0)


def test_main_builds_one_parser_per_process(tmp_path, capsys, monkeypatch):
    build_parser, built = cli.build_parser, []

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"n": "1..2", "mass": 2.0}))
    runs = [["spectrum"], ["wavefunction"], ["coherent"], ["verify"], ["sweep"], ["--help"],
            ["--version"], ["spectrum", "--mass", "abc"], ["spectrum", "--config", str(config)]]
    for argv in runs:
        try:
            cli.main(argv)
        except SystemExit:
            pass
    capsys.readouterr()
    assert len(built) == 1
