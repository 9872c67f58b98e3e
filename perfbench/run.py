"""Benchmark of the dirac-coulomb CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload verify_suite --seed 1 --seconds 30 --trace 0

Each run starts one worker process (worker.py) for the workload.  The
worker is a closed loop: one caller calls ``dirac_coulomb.cli.main(argv)``
in-process, waits and calls again, cycling through the seeded deck until
``--seconds`` have passed and every op has run once.  It hashes each op's
stdout and saves the first run of each deck op to a file; this process
then checks those outputs with the oracle.  Op times are scaled to a
reference host speed (see pace.py).  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs a fixed prefix of the deck untraced and
traced, interleaved, and reports the per-layer breakdown.  The last line
of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
# setup_s is reported at the host speed where a bare interpreter
# (python -c pass) starts in this long; see measure_setup.
BARE_REFERENCE_S = 0.05
TAIL_BEYOND = 10
# A run ends within 180 s: a worker that hangs is killed short of that.
WORKER_TIMEOUT_S = 150
END_TO_END = ["setup_s", "work_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"]
WORK_UNIT = {"verify_suite": "checks passed", "sweep_grid": "correct rows",
             "state_queries": "correct ops"}


def measure_setup(root: Path) -> list[tuple[float, float]]:
    """(import, bare) wall times of fresh interpreters, one running
    ``import dirac_coulomb.cli`` and one running ``pass``, taken in turn;
    an untimed first import compiles bytecode and warms the file cache."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def wall(code: str) -> float:
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=root, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return perf_counter() - t0

    wall("import dirac_coulomb.cli")
    return [(wall("import dirac_coulomb.cli"), wall("pass")) for _ in range(SETUP_REPEATS)]


class Execution(NamedTuple):
    """One run of one op, as the worker recorded it.  ``stdout`` is kept
    only for the first run of each deck op."""
    start: float  # perf_counter() in the worker when the op began
    seconds: float
    paced: float  # seconds at the reference host speed
    code: int | None
    error: str | None  # class name of an exception that escaped main
    digest: str  # sha256 of the stdout bytes
    stdout: str = ""
    stderr: str = ""
    side: str = "untraced"

    @property
    def completed(self) -> bool:
        """main produced its whole document: exit 0, or verify's exit 1."""
        return self.error is None and self.code in (0, 1)


class Ledger:
    """Outcomes of the ops of one run.  The oracle judges the first run of
    each deck op; a repeat must reproduce its output bytes exactly and
    then shares its verdict."""

    def __init__(self, check_names):
        self.check_names = check_names
        self.first: dict[int, tuple[str, oracle.Outcome]] = {}
        self.records: list[tuple] = []  # (Execution, outcome, deck index)

    def judge(self, index: int, op, result: Execution) -> oracle.Outcome:
        if index not in self.first:
            self.first[index] = (result.digest, oracle.check(op, result, self.check_names))
        first_digest, outcome = self.first[index]
        if result.digest != first_digest:
            outcome = oracle.Outcome(False, reason="output bytes differ between repeats")
        self.records.append((result._replace(stdout="", stderr=""), outcome, index))
        return outcome

    def failures(self) -> dict:
        by_label: dict[str, int] = {}
        for _, outcome, _ in self.records:
            if not outcome.ok:
                label = outcome.defect or "unexplained"
                by_label[label] = by_label.get(label, 0) + 1
        return by_label

    def error_rate(self) -> tuple[int, int]:
        """(failed, executed) distinct deck ops.  An op's outcome does not
        depend on timing, so this repeats exactly for a seed once the run
        has covered the deck."""
        failed = {index for _, o, index in self.records if not o.ok}
        return len(failed), len(self.first)

    def unexplained(self) -> list:
        return [(index, o.reason) for _, o, index in self.records
                if not o.ok and o.defect is None]


def run_worker(root: Path, args, deck, ledger: Ledger, work_dir: Path) -> dict:
    """Run the workload in a worker process and judge every op it ran.
    Returns the worker's result, without its records."""
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        subprocess.run([sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
                        repr(args.seconds), str(args.trace), str(work_dir)],
                       cwd=root, check=True, timeout=WORKER_TIMEOUT_S,
                       stdout=sys.stderr.fileno())
        result = json.loads((work_dir / "worker.json").read_text())
        for r in result.pop("records"):
            stdout = ""
            if r["index"] not in ledger.first:
                stdout = (work_dir / f"op-{r['index']}.out").read_bytes().decode("utf-8")
            ledger.judge(r["index"], deck[r["index"]], Execution(
                r["start"], r["seconds"], r["paced"], r["code"], r["error"], r["digest"],
                stdout, r["stderr"], r["side"]))
        spans = work_dir / "spans.npz"
        if spans.exists():
            spans.replace(work_dir.parent / f"spans-{work_dir.name}.npz")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return result


def tail(fastest_ms: list[float], runs_ms: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile of the distinct ops'
    fastest runs with at least ten ops beyond it.  Below twenty ops that
    percentile would not reach above the median, so the slowest completed
    run (p100) is reported instead."""
    ordered = sorted(fastest_ms)
    rank = len(ordered) - TAIL_BEYOND
    if rank < (len(ordered) + 1) // 2:
        return max(runs_ms), 100.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def environment(seed: int, root: Path) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = {}
    with contextlib.suppress(Exception):  # numpy < 2 has no dict form of its build config
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    commit = "unknown (not a git checkout)"
    head = root / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        commit = ((root / ".git" / ref[5:]).read_text().strip()
                  if ref.startswith("ref: ") else ref)
    return {
        "platform": platform.platform(), "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed, "git_commit": commit,
    }


def end_to_end(workload, ledger: Ledger, setup_times, peak_rss_mb: float) -> tuple[dict, dict]:
    """Work per second over every run and the median over every completed
    run.  The tail is taken over each distinct deck op's fastest run, so
    that it shows the slowest inputs: interference from the host or a
    garbage-collector pass only ever slows a run, and drops out."""
    seconds, runs_ms, wall_ms, fastest, wall_fastest = [], [], [], {}, {}
    for r, _, index in ledger.records:
        seconds.append(r.paced)
        if r.completed:
            runs_ms.append(1e3 * r.paced)
            wall_ms.append(1e3 * r.seconds)
            fastest[index] = min(fastest.get(index, np.inf), 1e3 * r.paced)
            wall_fastest[index] = min(wall_fastest.get(index, np.inf), 1e3 * r.seconds)
    if not runs_ms:  # every op failed: time the slowest run
        runs_ms = wall_ms = [1e3 * max(seconds)]
    wall = sum(r.seconds for r, _, _ in ledger.records)
    work = sum(o.work for _, o, _ in ledger.records)
    tail_ms, tail_pct = tail(list(fastest.values()), runs_ms)
    setup = BARE_REFERENCE_S * statistics.median(t / bare for t, bare in setup_times)
    failed, distinct = ledger.error_rate()
    metrics = {
        "setup_s": (setup, "s"),
        "work_per_s": (work / sum(seconds), "1/s"),
        "op_p50_ms": (float(np.median(runs_ms)), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "error_rate": (failed / distinct, "ratio"),
    }
    notes = {
        "setup_s": f"median over {len(setup_times)} fresh interpreters importing dirac_coulomb.cli "
                   f"of import / bare-interpreter time, times {BARE_REFERENCE_S} s "
                   f"(wall {statistics.median(t for t, _ in setup_times):.4f} s)",
        "work_per_s": f"{WORK_UNIT[workload]} per second of op time: {work:g} in {sum(seconds):.3f} s, "
                      f"{len(seconds)} runs (wall {work / wall:.6g}/s)",
        "op_p50_ms": f"median over {len(runs_ms)} completed runs "
                     f"(wall {np.median(wall_ms):.4f} ms)",
        "op_tail_ms": (f"slowest of the {len(runs_ms)} completed runs: fewer than 20 distinct ops "
                       f"(wall {max(wall_ms):.4f} ms)" if tail_pct == 100.0 else
                       f"p{tail_pct:.1f} of the fastest runs of {len(fastest)} completed distinct "
                       f"ops (wall {tail(list(wall_fastest.values()), wall_ms)[0]:.4f} ms)"),
        "peak_rss_mb": "peak resident memory of the worker process that ran the ops",
        "error_rate": f"{failed} of {distinct} distinct ops failed; failed runs by cause: "
                      f"{ledger.failures() or 'none'}",
    }
    return metrics, notes


def overhead(ledger: Ledger) -> tuple[float, str]:
    """Traced over untraced wall time: per side, each op's fastest run,
    summed over the ops.  The two sides of an op run back to back, so they
    share the host's speed and need no probe scaling (a probe cannot
    follow the host inside a 4 s verify op).  Below 1 the tracer's cost
    is lost in the noise."""
    fastest: dict[tuple[str, int], float] = {}
    for r, _, index in ledger.records:
        key = (r.side, index)
        fastest[key] = min(fastest.get(key, np.inf), r.seconds)
    traced, untraced = (sum(v for (side, _), v in fastest.items() if side == s)
                        for s in ("traced", "untraced"))
    ratio = traced / untraced
    note = (f"{len(fastest) // 2} ops, fastest of each side: {traced:.3f} s traced, "
            f"{untraced:.3f} s untraced")
    if ratio < 1.0:
        note += "; unresolved: below 1, so the tracing cost is under the timing noise"
    return ratio, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dirac_coulomb" / "cli.py").is_file():
        print(f"error: no dirac_coulomb sources under {root / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    setup_times = measure_setup(root) if not args.trace else []
    sys.path.insert(0, str(root / "src"))
    from dirac_coulomb.verification import VERIFY_CHECK_NAMES

    deck = workloads.GENERATORS[args.workload](args.seed)
    ledger = Ledger(VERIFY_CHECK_NAMES)
    out_dir = HERE / "out"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    worker = run_worker(root, args, deck, ledger, out_dir / stem)
    if args.trace:
        metrics = {k: tuple(v) for k, v in worker["layers"].items()}
        ratio, note = overhead(ledger)
        metrics["trace.overhead_ratio"] = (ratio, "ratio")
        notes = {"trace.overhead_ratio": note}
    else:
        metrics, notes = end_to_end(args.workload, ledger, setup_times, worker["peak_rss_mb"])

    unexplained = ledger.unexplained()
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args.seed, root),
        "inputs": workloads.input_properties(args.workload, deck),
        "failures": ledger.failures(), "unexplained_failures": unexplained[:20],
        "ops": [{"deck_index": index, "side": r.side, "seconds": r.seconds, "paced_seconds": r.paced,
                 "completed": r.completed, "ok": o.ok, "defect": o.defect, "reason": o.reason}
                for r, o, index in ledger.records],
        "metrics": {k: {"value": v, "unit": u, "note": notes.get(k)} for k, (v, u) in metrics.items()},
    }
    (out_dir / f"result-{stem}.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for key in ("environment", "inputs", "failures"):
        print(f"{key}: {json.dumps(report[key])}")
    for index, reason in unexplained[:20]:
        print(f"UNEXPLAINED FAILURE deck[{index}]: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {unit:<6} {notes.get(name, '')}")
    attempted = len(ledger.records)
    result = {
        "correct": not unexplained,
        "attempted": attempted,
        "failed": len(unexplained),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()
                    if k != "error_rate"},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
