"""The process that runs one workload's ops.

run.py starts it as a child process, from the root of a source checkout:

    python3 perfbench/worker.py <workload> <seed> <seconds> <trace> <out_dir>

It imports ``dirac_coulomb`` from ``src/``, rebuilds the seeded deck and
runs it as a closed loop, then writes ``worker.json`` to ``out_dir``.  An
op's stdout goes to a sink that hashes it as it is written; the first run
of each deck op also streams it to ``out_dir/op-<index>.out``, where the
oracle in run.py reads it.  No output is held in memory, so the peak
resident memory of this process is the program's own plus the loop's
small records.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import workloads
from pace import Pace
from tracing import Tracer

# Ops traced per --trace 1 run: a fixed prefix of the deck, so counts
# repeat exactly for a seed.  Each op runs TRACE_ROUNDS times untraced and
# TRACE_ROUNDS times traced, back to back, in alternating order.
TRACE_OPS = {"verify_suite": 3, "sweep_grid": 32, "state_queries": 192}
TRACE_ROUNDS = 2
WARMUP = {"verify_suite": "verify", "sweep_grid": "sweep", "state_queries": "coherent"}
# How strongly each workload's op time follows the probe's (see pace.py).
SENSITIVITY = {"verify_suite": 0.5, "sweep_grid": 1.0, "state_queries": 1.0}
CHUNK = 1 << 16

SPAN_METRICS = (
    "special.laguerre", "quadrature.build_rule", "quadrature.integrate_radial",
    "radialfn.LaguerreSum.init", "radialfn.LaguerreSum.call",
    "algebra.RadialOperator.apply", "algebra.su11_commutator_report",
    "radial.sturmian", "radial.assemble_spinor", "coherent.assemble_coherent_spinor",
    "verification.coherent_truncated_sum", "problem.derive_constants",
    "spectrum.energy", "spectrum.bound_level", "report.to_row",
    "output.emit_json", "output.emit_csv",
)
SELF_ONLY = ("radial.ode_residual", "coherent.perelomov_weights",
             "verification.generating_reference_sum", "cli.build_parser", "cli")
COUNTERS = ("special.laguerre.steps", "radialfn.LaguerreSum.call.term_points",
            "verification.coherent_truncated_sum.terms", "output.emit_json.bytes",
            "output.emit_csv.bytes", "output.format_value.calls")


class Sink:
    """A write-only text stream that hashes what it is given and, with a
    path, streams it to that file.  It keeps none of the text."""

    def __init__(self, path: Path | None = None):
        self.hash = hashlib.sha256()
        self.file = open(path, "wb") if path is not None else None

    def write(self, text: str) -> int:
        for i in range(0, len(text), CHUNK):
            data = text[i:i + CHUNK].encode("utf-8")
            self.hash.update(data)
            if self.file is not None:
                self.file.write(data)
        return len(text)

    def flush(self) -> None:
        pass

    def close(self) -> None:
        if self.file is not None:
            self.file.close()


def execute(call, argv, sink: Sink) -> dict:
    """Run ``call(argv)`` once with stdout sent to ``sink``."""
    err = io.StringIO()
    code, error = None, None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
            code = call(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an escaped exception is a failed op, judged by the oracle
        error = type(exc).__name__
    finally:
        t1 = perf_counter()
        sink.close()
    return {"start": t0, "seconds": t1 - t0, "code": code, "error": error,
            "digest": sink.hash.hexdigest(), "stderr": err.getvalue()}


class Runner:
    """Runs ops and records each run; the first run of a deck op keeps its
    stdout (in a file) and stderr for the oracle."""

    def __init__(self, out_dir: Path, pace: Pace):
        self.out_dir, self.pace = out_dir, pace
        self.records: list[dict] = []
        self.seen: set[int] = set()

    def run(self, call, index: int, argv, side: str = "untraced") -> None:
        first = index not in self.seen
        self.seen.add(index)
        self.pace.maybe_probe()
        record = execute(call, argv, Sink(self.out_dir / f"op-{index}.out" if first else None))
        if not first:
            record["stderr"] = ""
        record.update(index=index, side=side)
        self.records.append(record)

    def finish(self) -> list[dict]:
        """The records, each with its time scaled to the reference host
        speed (see pace.py)."""
        self.pace.maybe_probe()
        for r in self.records:
            r["paced"] = r["seconds"] * self.pace.scale(r["start"], r["start"] + r["seconds"])
        return self.records


def _ratio(num: float, den: float) -> float:
    """num/den, or 0 when the layer did no work on this workload."""
    return float(num) / den if den else 0.0


def layer_metrics(tracer: Tracer, check_names) -> dict:
    """Per-layer metrics as {name: (value, unit)}, in BENCHMARK.json order
    up to trace.overhead_ratio, which run.py adds."""
    spans = tracer.summary()
    empty = {"calls": 0, "self_s": 0.0, "s": 0.0}
    m = {}
    for name in SPAN_METRICS:
        m[f"{name}.calls"] = (spans.get(name, empty)["calls"], "count")
        m[f"{name}.self_s"] = (spans.get(name, empty)["self_s"], "s")
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = (spans.get(name, empty)["self_s"], "s")
    for name in COUNTERS:
        m[name] = (tracer.counts.get(name, 0), "bytes" if name.endswith(".bytes") else "count")
    c = tracer.counts
    m["quadrature.build_rule.distinct_ratio"] = (
        _ratio(len(tracer.rule_keys), spans.get("quadrature.build_rule", empty)["calls"]), "ratio")
    m["radialfn.LaguerreSum.call.distinct_key_ratio"] = (
        _ratio(c.get("radialfn.LaguerreSum.call.distinct_keys", 0),
               c.get("radialfn.LaguerreSum.call.terms", 0)), "ratio")
    m["algebra.commutator_used_ratio"] = (
        _ratio(sum(len(t.used) for t in tracer.trackers), sum(len(t) for t in tracer.trackers)),
        "ratio")
    for check in check_names:
        m[f"verification.{check}.s"] = (spans.get(f"verification.{check}", empty)["s"], "s")
    return m


def run_timed(main, deck, runner: Runner, seconds: float) -> None:
    """Cycle through the deck until ``seconds`` have passed and each op
    has run once."""
    t_start = perf_counter()
    i = 0
    while i < len(deck) or perf_counter() - t_start < seconds:
        runner.run(main, i % len(deck), deck[i % len(deck)].argv)
        i += 1


def run_traced(main, ops, runner: Runner, tracer: Tracer) -> None:
    """Run each op untraced and traced back to back, TRACE_ROUNDS times
    per side, alternating which side goes first (op 0: U T T U, op 1:
    T U U T, ...).  ``tracer`` keeps the spans of each op's first traced
    run; later traced runs record into a throwaway tracer of the same
    cost, so the counts cover each op once."""
    for index, op in enumerate(ops):
        for round_ in range(TRACE_ROUNDS):
            sides = ("untraced", "traced") if (index + round_) % 2 == 0 else ("traced", "untraced")
            for side in sides:
                if side == "untraced":
                    runner.run(main, index, op.argv, side)
                    continue
                t = tracer if round_ == 0 else Tracer()
                t.install()
                try:
                    runner.run(lambda argv: t.run_op(index, main, argv), index, op.argv, side)
                finally:
                    t.uninstall()


def main(argv) -> int:
    workload, seed, seconds, trace, out_dir = argv
    seed, seconds, trace, out_dir = int(seed), float(seconds), int(trace), Path(out_dir)
    sys.path.insert(0, str(Path.cwd() / "src"))
    from dirac_coulomb import cli
    from dirac_coulomb.verification import VERIFY_CHECK_NAMES

    deck = workloads.GENERATORS[workload](seed)
    runner = Runner(out_dir, Pace(SENSITIVITY[workload]))
    # The first run of a kind of op in a process can be slower (a first
    # verify took up to 7.5 s against 4.5 s for later ones); warm up on the
    # kind the workload runs, so the loop sees steady-state ops only.
    execute(cli.main, [WARMUP[workload]], Sink())
    result: dict = {}
    if trace:
        tracer = Tracer()
        run_traced(cli.main, deck[:TRACE_OPS[workload]], runner, tracer)
        tracer.save(out_dir / "spans.npz")
        result["layers"] = layer_metrics(tracer, VERIFY_CHECK_NAMES)
    else:
        run_timed(cli.main, deck, runner, seconds)
    result["records"] = runner.finish()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (out_dir / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
