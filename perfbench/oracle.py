"""Correctness oracle for one operation.

An operation fails when an exception escapes ``main``, the exit code is
not the expected one, a number is non-finite, a report says
``passed = false``, a row disagrees with the benchmark's own numpy
recomputation, or its output bytes differ from an earlier run of the same
operation (checked by ``run.Ledger``).

A failure that matches the signature of a defect ROADMAP item 3 lists is
still a failure and still counts in ``error_rate``; it is labelled with
the defect it belongs to.  Any other failure is unexplained.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass

import numpy as np

from workloads import sweep_axes

RTOL = 1e-12

# ROADMAP 3, "verify --mass 1e7 exits 1": the first-order ODE residual
# grows like the mass.  verify's checks cross the 1e-8 tolerance from
# about m = 5e4; a wavefunction op's own report, which also grows with n,
# from about m = 10 at n = 300 (7e-9 at m = 1e3, n = 30).
SCALE_DEFECT = "roadmap-3-scale-covariance"
SCALE_DEFECT_MIN_MASS = {"verify": 1e4, "wavefunction": 10.0}
# ROADMAP 3, "large inputs crash with a bare traceback": the spinor terms
# overflow for large n or large |kappa| (D = 120, j = 60.5 in ROADMAP).
# At large |kappa| and small mass the coherent prefactor underflows
# instead, and the normalization divides by zero or comes out 0 (seen
# from |kappa| = 52.5 at m = 2.3e-3).
OVERFLOW_DEFECT = "roadmap-3-overflow"
OVERFLOW_MIN_N = 300
OVERFLOW_MIN_KAPPA = 40.0
OVERFLOW_ERRORS = ("TypeError", "OverflowError", "ValueError", "ZeroDivisionError")
# Not in ROADMAP; found by this benchmark: the coherent op's own
# coherent_closed_vs_sum report loses accuracy as s grows.  Its worst
# residual over |xi| <= 0.9 is 1.1e-8 at s = 8 (tolerance 1e-8), 1.6e-7 at
# s = 10, 0.2 at s = 18 and 1.5e9 at s = 28.
COHERENT_DEFECT = "coherent-closed-vs-sum-large-s"
COHERENT_DEFECT_MIN_S = 7.0
# Not in ROADMAP; found by this benchmark: the spectrum_free_limit check
# sets both couplings to 1e-12, where E rounds one ulp above m for about
# a quarter of all masses; energy() then raises NoBoundState and verify
# exits 2.  The oracle predicts which masses do this.
FREE_LIMIT_DEFECT = "verify-free-limit-rounds-above-m"

SWEEP_COLUMNS = ("dimension", "j", "alignment", "alpha_v", "alpha_s", "mass", "n",
                 "kappa", "s", "energy_over_mass", "scale_a", "valid", "status")


@dataclass
class Outcome:
    ok: bool
    work: float = 0.0
    defect: str | None = None
    reason: str | None = None


def spectrum_table(kappa: float, alpha_v, alpha_s, n, mass: float) -> dict:
    """Expected spectrum columns for every (alpha_v, alpha_s, n) cell, in
    the CLI's row order.  The closed forms are written the way the paper
    states them; s^2 is formed as kappa^2 - alpha_+ alpha_- so the
    supercritical boundary rounds the same way it does in the program."""
    av, as_, nn = (a.ravel() for a in np.meshgrid(np.atleast_1d(alpha_v), np.atleast_1d(alpha_s),
                                                  np.atleast_1d(n), indexing="ij"))
    s_sq = kappa * kappa - (av + as_) * (av - as_)
    supercritical = s_sq <= 0.0
    s = np.sqrt(np.where(supercritical, np.nan, s_sq))
    nu = nn + s
    disc = nu * nu + av * av - as_ * as_
    e = mass * (-av * as_ + nu * np.sqrt(np.where(disc < 0.0, np.nan, disc))) / (av * av + nu * nu)
    no_bound = ~supercritical & ((disc < 0.0) | ~(np.abs(e) <= mass))
    valid = ~supercritical & ~no_bound
    e = np.where(valid, e, np.nan)
    a = np.sqrt(np.maximum((mass - e) * (mass + e), 0.0))
    status = np.where(supercritical, "supercritical", np.where(no_bound, "no_bound_state", "ok"))
    return {"alpha_v": av, "alpha_s": as_, "n": nn, "s": s, "energy_over_mass": e / mass,
            "scale_a": a, "valid": valid, "status": status, "supercritical": supercritical}


def _close(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Relative agreement, with NaN in ``want`` meaning 'must be empty'."""
    empty = np.isnan(want)
    agree = np.abs(got - want) <= RTOL * np.abs(want)
    return np.where(empty, np.isnan(got), agree)


def _number(value) -> float:
    if value is None or value == "":
        return math.nan
    return float(value)


def check_spectrum_rows(rows: list[dict], spec: dict, alpha_v, alpha_s, n) -> str | None:
    """None when every row matches the recomputation, else the reason."""
    want = spectrum_table(spec["kappa"], alpha_v, alpha_s, n, spec["mass"])
    if len(rows) != want["n"].size:
        return f"{len(rows)} rows, expected {want['n'].size}"
    cols = {key: [row[key] for row in rows] for key in SWEEP_COLUMNS}
    alignment = "aligned" if spec["aligned"] else "unaligned"
    if any(str(a) != alignment for a in cols["alignment"]):
        return "alignment column differs"
    exact = {"dimension": spec["dimension"], "j": spec["j"], "kappa": spec["kappa"]}
    for key, value in exact.items():
        if np.any(np.array([_number(v) for v in cols[key]]) != value):
            return f"{key} column differs"
    for key in ("alpha_v", "alpha_s", "n", "s", "energy_over_mass", "scale_a"):
        got = np.array([_number(v) for v in cols[key]])
        if np.any(np.isinf(got)):
            return f"non-finite {key}"
        agree = _close(got, np.asarray(want[key], dtype=float))
        if not np.all(agree):
            bad = int(np.argmin(agree))
            return f"{key} differs at row {bad}: {got[bad]!r} vs {want[key][bad]!r}"
    if not np.all(np.array([_number(v) for v in cols["mass"]]) == spec["mass"]):
        return "mass column differs"
    valid = np.array([v is True or v == "true" for v in cols["valid"]])
    if not np.array_equal(valid, want["valid"]):
        return "valid flags differ"
    if list(map(str, cols["status"])) != want["status"].tolist():
        return "status column differs"
    if not np.array_equal(np.array([str(v) == "supercritical" for v in cols["status"]]),
                          want["supercritical"]):
        return "supercritical cells differ from kappa^2 <= alpha_v^2 - alpha_s^2"
    return None


# The CLI renders floats with format(x, ".17g"), so a non-finite value
# shows up as a bare nan/inf token in either format.
_NON_FINITE = re.compile(r"(?<![\w.])-?(nan|inf)(?![\w.])")


def _s(spec: dict) -> float:
    av, as_ = spec["alpha_v"], spec["alpha_s"]
    return math.sqrt(spec["kappa"] ** 2 - (av + as_) * (av - as_))


def _scale_defect(op, failing: list) -> bool:
    return (failing == ["ode_first_order"]
            and op.spec["mass"] >= SCALE_DEFECT_MIN_MASS.get(op.kind, math.inf))


def _overflow_region(spec: dict) -> bool:
    return spec.get("n", 0) >= OVERFLOW_MIN_N or abs(spec["kappa"]) >= OVERFLOW_MIN_KAPPA


def free_limit_rounds_above_mass(spec: dict) -> bool:
    """Whether the verify suite's free-limit spectrum (both couplings
    1e-12, n = 1..10) has a level with |E| > m after rounding."""
    table = spectrum_table(spec["kappa"], 1e-12, 1e-12, np.arange(1, 11), spec["mass"])
    return bool(np.any(table["status"] == "no_bound_state"))


def check(op, result, check_names: tuple) -> Outcome:
    """Judge one executed operation (an ``Execution`` from run.py)."""
    exit_code, error, stdout = result.code, result.error, result.stdout
    spec = op.spec
    overflow = op.kind in ("wavefunction", "coherent") and _overflow_region(spec)
    if error is not None:
        defect = OVERFLOW_DEFECT if overflow and error in OVERFLOW_ERRORS else None
        return Outcome(False, defect=defect, reason=f"{error} escaped main")
    if (op.kind == "verify" and exit_code == 2 and "exceeds m =" in result.stderr
            and free_limit_rounds_above_mass(spec)):
        return Outcome(False, defect=FREE_LIMIT_DEFECT, reason="exit 2: " + result.stderr.strip())
    if _NON_FINITE.search(stdout):
        return Outcome(False, defect=OVERFLOW_DEFECT if overflow else None,
                       reason="non-finite value")
    try:
        if op.kind == "sweep" and spec["format"] == "csv":
            rows = list(csv.DictReader(io.StringIO(stdout)))
            doc = {"rows": rows, "reports": []}
        else:
            doc = json.loads(stdout)
    except (ValueError, KeyError) as exc:
        return Outcome(False, reason=f"unreadable output (exit {exit_code}, "
                                     f"stderr {result.stderr.strip()[:200]!r}): {exc}")
    rows, reports = doc["rows"], doc["reports"]

    if op.kind == "verify":
        names = tuple(r["check"] for r in rows)
        if names != tuple(check_names):
            return Outcome(False, reason="check names differ from VERIFY_CHECK_NAMES")
        failing = sorted(r["check"] for r in rows if r["passed"] is not True)
        passed = len(rows) - len(failing)
        if exit_code != (1 if failing else 0) or doc["meta"]["all_passed"] != (not failing):
            return Outcome(False, reason=f"exit {exit_code} with failing {failing}")
        if failing:
            defect = SCALE_DEFECT if _scale_defect(op, failing) else None
            return Outcome(False, work=passed, defect=defect,
                           reason=f"failed checks {failing}")
        return Outcome(True, work=passed)

    if exit_code != 0:
        return Outcome(False, reason=f"exit {exit_code}")
    failing = [r.get("check") for r in reports if r.get("passed", True) is not True]
    if failing:
        defect = (COHERENT_DEFECT if op.kind == "coherent" and failing == ["coherent_closed_vs_sum"]
                  and _s(spec) >= COHERENT_DEFECT_MIN_S else
                  SCALE_DEFECT if _scale_defect(op, failing) else None)
        return Outcome(False, defect=defect, reason=f"failed reports {failing}")
    if op.kind == "sweep":
        reason = check_spectrum_rows(rows, spec, *sweep_axes(spec))
        return Outcome(reason is None, work=len(rows) if reason is None else 0.0,
                       reason=reason)
    if op.kind == "spectrum":
        reason = check_spectrum_rows(rows, spec, spec["alpha_v"], spec["alpha_s"],
                                     np.arange(1, spec["n"] + 1))
        return Outcome(reason is None, work=1.0 if reason is None else 0.0,
                       reason=reason)
    if len(rows) != 200:
        return Outcome(False, reason=f"{len(rows)} grid rows, expected 200")
    return Outcome(True, work=1.0)
