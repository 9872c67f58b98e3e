"""The verify suite is one table of (name, tolerance, check).

The benchmark's tracer (perfbench/tracing.py, imported unmodified) wraps
each callable that verification._registry returns; these tests pin that
contract, the tolerance resolver shared by run_suite and the CLI, and the
quadrature rules the checks build.
"""

import contextlib
import io
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from dirac_coulomb import cli, quadrature, verification
from dirac_coulomb.errors import DiracCoulombError
from dirac_coulomb.verification import (
    DEFAULT_TOLERANCES,
    VERIFY_CHECK_NAMES,
    resolve_tolerances,
    run_suite,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracing import Tracer  # noqa: E402


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_traced_verify_spans_each_check_once_and_prints_the_same():
    untraced = _stdout(["verify"])
    tracer = Tracer()
    tracer.install()
    try:
        traced = _stdout(["verify"])
    finally:
        tracer.uninstall()
    assert traced == untraced and untraced[0] == 0
    spans = tracer.summary()
    checks = {name[len("verification."):]: span["calls"] for name, span in spans.items()
              if name.startswith("verification.")
              and name not in ("verification.coherent_truncated_sum",
                               "verification.generating_reference_sum")}
    assert checks == {name: 1 for name in VERIFY_CHECK_NAMES}


def test_traced_verify_sees_one_family_pass_in_the_first_algebra_check():
    # the benchmark's per-layer view of the su(1,1) family pass: the first of the
    # five algebra checks builds the 10 Sturmians of each of the 10 (s, channel)
    # families, in one pass that returns no reports, and the other four build none;
    # the tracer still binds su11_commutator_report, which the suite no longer calls
    tracer = Tracer()
    tracer.install()
    try:
        code, _ = _stdout(["verify"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.summary()["algebra.su11_commutator_report"]["calls"] == 0
    assert tracer.trackers == []
    spans = tracer.arrays()
    sturmians = spans["name"] == tracer.names.index("radial.sturmian")
    for name, built in [("commutator_k0_kplus", 100), *((name, 0) for name in (
            "commutator_k0_kminus", "commutator_kminus_kplus", "casimir", "a0_eigenvalue"))]:
        (check,) = np.flatnonzero(spans["name"] == tracer.names.index(f"verification.{name}"))
        assert np.count_nonzero(sturmians & (spans["parent"] == check)) == built, name


def test_resolver_applies_overrides_in_order():
    tolerances = resolve_tolerances([("casimir", "1e-3"), ("normalization", 2), ("casimir", 5e-4)])
    assert tolerances == {**DEFAULT_TOLERANCES, "casimir": 5e-4, "normalization": 2.0}
    assert resolve_tolerances([]) == DEFAULT_TOLERANCES
    # the first bad pair is the one named
    with pytest.raises(DiracCoulombError, match="unknown tolerance key 'nonsense'"):
        resolve_tolerances([("nonsense", 1.0), ("casimir", "x")])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_run_suite_rejects_a_non_finite_tolerance_before_any_check(default_params, value, monkeypatch):
    monkeypatch.setattr(verification, "_registry", lambda perturb: pytest.fail("a check ran"))
    with pytest.raises(DiracCoulombError, match="tolerance value for 'casimir' must be finite"):
        run_suite(default_params, {"casimir": value})


@pytest.mark.parametrize("name, rules", [("normalization", 2), ("coherent_norm", 1), ("quadrature_moments", 3),
                                         ("sturmian_orthonormality_u", 5), ("sturmian_orthonormality_v", 5)])
def test_each_check_builds_each_distinct_rule_once(default_params, name, rules, monkeypatch):
    # a check builds all its rules in one build_rules call, but normalization builds
    # the rule of each coupling variant when it reaches it (build_rule calls build_rules)
    calls = []
    original = quadrature.build_rules

    def counted(keys):
        calls.append(list(keys))
        return original(calls[-1])

    for module in (quadrature, verification):
        monkeypatch.setattr(module, "build_rules", counted)
    verification._registry(False)[name](default_params)
    built = [key for keys in calls for key in keys]
    assert len(built) == len(set(built)) == rules
    assert len(calls) == (rules if name == "normalization" else 1)
