"""The verify suite is one table of (name, tolerance, check).

The benchmark's tracer (perfbench/tracing.py, imported unmodified) wraps
each callable that verification._registry returns; these tests pin that
contract, the tolerance resolver shared by run_suite and the CLI, and the
quadrature rules each suite builds.
"""

import contextlib
import io
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from dirac_coulomb import Alignment, ProblemParams, cli, derive_constants, verification
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
    # alone, a check builds the suite's 25 rules in one build_rules call and reads its own from them
    calls, read = [], []
    build, rules_of = verification.build_rules, verification._rules
    monkeypatch.setattr(verification, "build_rules", lambda keys: calls.append(list(keys)) or build(calls[-1]))
    monkeypatch.setattr(verification, "_rules",
                        lambda memo, params, keys: read.extend(keys) or rules_of(memo, params, keys))
    verification._registry(False)[name](default_params)
    assert len(calls) == 1 and len(calls[0]) == len(set(calls[0])) == 25
    assert len(set(read)) == rules and set(read) <= set(calls[0])


def test_each_suite_builds_its_own_rules_in_one_call(default_params, monkeypatch):
    # the rule memo lives with one registry: suites run back to back share no rule, and each
    # gives the reports it gives alone
    d5 = ProblemParams(dimension=5, j=1.5, alignment=Alignment.UNALIGNED, alpha_v=0.7, alpha_s=0.3, mass=1e-3)
    alone = {params: run_suite(params) for params in (default_params, d5)}
    calls, build = [], verification.build_rules
    monkeypatch.setattr(verification, "build_rules", lambda keys: calls.append(list(keys)) or build(calls[-1]))
    for params in (default_params, d5, default_params):
        calls.clear()
        assert run_suite(params) == alone[params]
        ((*keys,),) = calls
        assert len(keys) == len(set(keys)) == 25
        assert (48, 2.0 * derive_constants(params).s) in keys


@pytest.mark.parametrize("params, first", [
    # the variant (alpha_s = 0) is supercritical, and the problem's own s is past the Sturmian prefactor's range
    (ProblemParams(dimension=3, j=0.5, alignment=Alignment.ALIGNED, alpha_v=2.0, alpha_s=1e5, mass=1.0),
     "sturmian_orthonormality_u"),
    # the variant's normalization rule (alpha 8e13) does not converge; the problem's s is 1e7
    (ProblemParams(dimension=200_000_000_000_000, j=0.5, alignment=Alignment.ALIGNED,
                   alpha_v=99_999_999_999_999.0, alpha_s=0.0, mass=1.0), "sturmian_orthonormality_u"),
    # the problem itself is supercritical: the first check to derive its constants says so
    (ProblemParams(dimension=3, j=0.5, alignment=Alignment.ALIGNED, alpha_v=2.0, alpha_s=0.5, mass=1.0),
     "diagonalization_identity"),
])
def test_a_bad_problem_raises_where_its_checks_raise_in_turn(params, first, monkeypatch):
    # the suite's rule batch is built by the first check, but a batch that raises is left to the
    # checks that read its rules, so each bad problem raises the error of the first check that fails
    ran, original = [], verification._registry
    monkeypatch.setattr(verification, "_registry", lambda perturb: {
        name: (lambda p, name=name, check=check: ran.append(name) or check(p))
        for name, check in original(perturb).items()})
    with pytest.raises(DiracCoulombError) as raised:
        run_suite(params)
    assert ran[-1] == first
    with pytest.raises(type(raised.value), match=re.escape(str(raised.value))):
        original(False)[first](params)
