"""Tests of the benchmark itself: run with python3 -m pytest perfbench/tests"""

import contextlib
import hashlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

import oracle
import run
import worker
import workloads
from pace import REFERENCE_S, Pace
from tracing import SpanTreeError, Tracer, self_times
from dirac_coulomb import cli
from dirac_coulomb.verification import VERIFY_CHECK_NAMES


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _execute(op):
    """Run one op the way the worker does and read its output back."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "op.out"
        r = worker.execute(cli.main, op.argv, worker.Sink(path))
        stdout = path.read_bytes().decode("utf-8")
    return run.Execution(r["start"], r["seconds"], r["seconds"], r["code"], r["error"],
                         r["digest"], stdout, r["stderr"])


def _fake(stdout, code=0, stderr=""):
    return run.Execution(0.0, 0.0, 0.0, code, None, _digest(stdout), stdout, stderr)


def _first(deck, kind, **below):
    return next(op for op in deck if op.kind == kind
                and all(abs(op.spec.get(k, 0)) < v for k, v in below.items()))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_a_pure_function_of_the_seed(name):
    gen = workloads.GENERATORS[name]
    first, again, other = gen(7), gen(7), gen(8)
    assert [op.argv for op in first] == [op.argv for op in again]
    assert [op.spec for op in first] == [op.spec for op in again]
    assert [op.argv for op in first] != [op.argv for op in other]


def test_generated_ops_pass_the_oracle():
    deck = workloads.state_queries(3)
    ops = workloads.sweep_grid(3)[:2] + [_first(deck, kind, kappa=6, n=60)
                                         for kind in ("spectrum", "wavefunction")]
    ops.append(_first(deck, "coherent", kappa=4))
    for op in ops:
        assert oracle.check(op, _execute(op), VERIFY_CHECK_NAMES).ok


def test_oracle_flags_an_energy_off_by_1e9_relative():
    op = _first(workloads.state_queries(3), "spectrum")
    doc = json.loads(_execute(op).stdout)
    row = next(r for r in doc["rows"] if r["valid"])
    row["energy_over_mass"] *= 1.0 + 1e-9
    outcome = oracle.check(op, _fake(json.dumps(doc)), VERIFY_CHECK_NAMES)
    assert not outcome.ok and "energy_over_mass" in outcome.reason


def test_oracle_flags_a_flipped_passed():
    op = _first(workloads.state_queries(3), "wavefunction", n=60, kappa=6)
    result = _execute(op)
    assert oracle.check(op, result, VERIFY_CHECK_NAMES).ok
    doc = json.loads(result.stdout)
    second_order = next(r for r in doc["reports"] if r["check"] == "ode_second_order")
    second_order["passed"] = False
    outcome = oracle.check(op, _fake(json.dumps(doc)), VERIFY_CHECK_NAMES)
    assert not outcome.ok and outcome.defect is None


def _verify_document(passed):
    rows = [{"check": name, "residual_max": 1e-14, "passed": ok}
            for name, ok in zip(VERIFY_CHECK_NAMES, passed)]
    return json.dumps({"meta": {"all_passed": all(passed)}, "rows": rows, "reports": rows})


def test_oracle_flags_a_flipped_passed_in_verify():
    op = workloads.Op("verify", ("verify",), {"mass": 1.0})
    good = [True] * len(VERIFY_CHECK_NAMES)
    assert oracle.check(op, _fake(_verify_document(good)), VERIFY_CHECK_NAMES).ok
    flipped = list(good)
    flipped[VERIFY_CHECK_NAMES.index("casimir")] = False
    outcome = oracle.check(op, _fake(_verify_document(flipped), 1), VERIFY_CHECK_NAMES)
    assert not outcome.ok and outcome.defect is None
    assert outcome.work == len(VERIFY_CHECK_NAMES) - 1
    # exit 0 while a check failed is a failure too
    assert not oracle.check(op, _fake(_verify_document(flipped)), VERIFY_CHECK_NAMES).ok


def test_oracle_labels_only_the_documented_scale_defect():
    flipped = _fake(_verify_document([name != "ode_first_order" for name in VERIFY_CHECK_NAMES]), 1)
    heavy = workloads.Op("verify", ("verify",), {"mass": 1e7})
    light = workloads.Op("verify", ("verify",), {"mass": 1.0})
    assert oracle.check(heavy, flipped, VERIFY_CHECK_NAMES).defect == oracle.SCALE_DEFECT
    assert oracle.check(light, flipped, VERIFY_CHECK_NAMES).defect is None


def test_oracle_predicts_the_free_limit_defect():
    crash = _fake("", 2, "error: |E| = 1 exceeds m = 1 for n=3\n")
    deck = workloads.verify_suite(1)
    labels = {oracle.check(op, crash, VERIFY_CHECK_NAMES).defect for op in deck}
    assert labels == {oracle.FREE_LIMIT_DEFECT, None}


def test_oracle_flags_a_nan():
    op = _first(workloads.state_queries(3), "wavefunction", n=60, kappa=6)
    out = _execute(op).stdout
    corrupted = re.sub(r'"F": [^,\n]+', '"F": nan', out, count=1)
    assert corrupted != out
    outcome = oracle.check(op, _fake(corrupted), VERIFY_CHECK_NAMES)
    assert not outcome.ok and outcome.reason == "non-finite value" and outcome.defect is None


def test_ledger_flags_output_that_changes_between_repeats():
    op = _first(workloads.state_queries(3), "spectrum")
    result = _execute(op)
    ledger = run.Ledger(VERIFY_CHECK_NAMES)
    assert ledger.judge(0, op, result).ok
    assert result.digest == _digest(result.stdout)
    assert ledger.judge(0, op, result._replace(stdout="")).ok
    changed = result.stdout.replace("\n", "\n ", 1)
    assert not ledger.judge(0, op, result._replace(stdout="", digest=_digest(changed))).ok


def test_sink_hashes_and_streams_what_it_is_given(tmp_path):
    text = "x" * (3 * worker.CHUNK + 5) + "\u00e9\n"
    sink = worker.Sink(tmp_path / "out")
    sink.write(text[:10])
    sink.write(text[10:])
    sink.close()
    assert (tmp_path / "out").read_bytes() == text.encode()
    assert sink.hash.hexdigest() == _digest(text)
    assert not any(isinstance(v, str) for v in vars(sink).values())


def test_traced_runs_interleave_and_trace_each_op_once(tmp_path):
    runner = worker.Runner(tmp_path, Pace())
    ops = [workloads.Op("spectrum", ("spectrum", "--n", "1..2"))] * 2
    tracer = Tracer()
    worker.run_traced(cli.main, ops, runner, tracer)
    assert [r["side"][0] for r in runner.records] == list("uttutuut")
    assert tracer.summary()["cli"]["calls"] == len(ops)
    assert len({r["digest"] for r in runner.records}) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["op-0.out", "op-1.out"]


def test_overhead_takes_each_sides_fastest_run():
    ledger = run.Ledger(VERIFY_CHECK_NAMES)
    op = workloads.Op("verify", ("verify",), {"mass": 1.0})
    for side, paced in (("untraced", 2.0), ("traced", 2.5), ("traced", 2.2), ("untraced", 1.9)):
        ledger.judge(0, op, run.Execution(0.0, paced, paced, 2, None, "d", side=side))
    ratio, note = run.overhead(ledger)
    assert ratio == pytest.approx(2.2 / 1.9) and "unresolved" not in note
    ledger.judge(1, op, run.Execution(0.0, 1.0, 1.0, 2, None, "d", side="traced"))
    ledger.judge(1, op, run.Execution(0.0, 2.0, 2.0, 2, None, "d", side="untraced"))
    ratio, note = run.overhead(ledger)
    assert ratio == pytest.approx(3.2 / 3.9) and "unresolved" in note


def test_self_time_on_a_hand_built_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    assert np.allclose(self_times(start, end, parent), [3.0, 3.0, 3.0, 1.0])


def test_children_covering_more_than_their_parent_is_an_error():
    with pytest.raises(SpanTreeError):
        self_times([0.0, 0.0, 1.0], [2.0, 1.5, 2.5], [-1, 0, 0])


def test_tracer_spans_one_op_and_restores_the_package():
    original = cli.build_parser
    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            tracer.run_op(0, cli.main, ["wavefunction", "--n", "3"])
    finally:
        tracer.uninstall()
    assert cli.build_parser is original
    spans = tracer.summary()
    assert spans["cli"]["calls"] == 1 and spans["radial.assemble_spinor"]["calls"] == 1
    assert spans["special.laguerre"]["calls"] > 0 and tracer.counts["special.laguerre.steps"] > 0
    total_self = sum(s["self_s"] for s in spans.values())
    assert total_self == pytest.approx(spans["cli"]["s"], rel=1e-9)


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((Path(run.__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    per_layer = worker.layer_metrics(Tracer(), VERIFY_CHECK_NAMES)
    per_layer["trace.overhead_ratio"] = (1.0, "ratio")
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in per_layer.values()]
    assert [m["name"] for m in spec["end_to_end"]] == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    fastest = [float(i) for i in range(1, 101)]
    assert run.tail(fastest, fastest + [500.0]) == (90.0, 90.0)
    # too few distinct ops for a percentile above the median: the slowest run
    assert run.tail([1.0, 3.0, 2.0], [1.0, 3.0, 2.0, 4.0]) == (4.0, 100.0)


def test_pace_window_grows_with_a_long_op():
    pace = Pace()
    pace.when = [8.5, 9.5, 14.5, 15.5, 21.0]
    pace.took = [1e-3, 1e-3, 2e-3, 2e-3, 4e-3]
    # a 0.1 s op sees the nearest two probes; a 4 s op every probe within 12 s
    assert pace.scale(9.6, 9.7) == pytest.approx(REFERENCE_S / 1e-3)
    assert pace.scale(10.0, 14.0) == pytest.approx(REFERENCE_S / 2e-3)
