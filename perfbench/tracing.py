"""In-memory span tracing of the package's public functions, from outside.

``Tracer.install`` rebinds each traced function in every
``dirac_coulomb`` module that holds it (``from .special import laguerre``
leaves a second reference in ``radialfn`` and ``verification``), and
patches the traced methods on their classes.  Each call records one span:
name, start, end, parent span and op id.  Spans stay in memory until the
run ends.  Counters are taken at the same boundaries.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "dirac_coulomb"


class SpanTreeError(RuntimeError):
    """A span's children cover more time than the span itself."""


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the time its direct children cover.

    Children of one parent never overlap (one thread, one call stack), so
    the covered time is the sum of their durations.  Raises SpanTreeError
    when that sum exceeds the parent's duration."""
    start, end = np.asarray(start, dtype=float), np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    duration = end - start
    covered = np.zeros_like(duration)
    child = parent >= 0
    np.add.at(covered, parent[child], duration[child])
    slack = 1e-9 + 1e-9 * duration
    if np.any(covered > duration + slack):
        bad = int(np.argmax(covered - duration))
        raise SpanTreeError(f"span {bad}: children cover {covered[bad]:.9f} s "
                            f"of a {duration[bad]:.9f} s span")
    return duration - covered


class _UseTracker(list):
    """A returned list that remembers which of its items were read."""

    def __init__(self, items):
        super().__init__(items)
        self.used = set()

    def __getitem__(self, index):
        self.used.update(range(len(self))[index] if isinstance(index, slice)
                         else [index % len(self)])
        return super().__getitem__(index)

    def __iter__(self):
        self.used.update(range(len(self)))
        return super().__iter__()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self._stack: list[int] = []
        self._op_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.rule_keys: set = set()
        self.trackers: list[_UseTracker] = []
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call.  ``after(args, result)``
        updates counters once the span has closed; a value it returns
        replaces the result."""
        nid = self._name_id(name)
        names, starts, ends, parents, ops, stack = (
            self.name, self.start, self.end, self.parent, self.op, self._stack)

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self._op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                replaced = after(args, result)
                if replaced is not None:
                    result = replaced
            return result

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op_id: int, fn, *args):
        """Run one op as a root span named ``cli``."""
        self._op_id = op_id
        return self.wrap("cli", fn)(*args)

    # -- installation ---------------------------------------------------

    def _rebind(self, module_name: str, attr: str, replacement_for) -> None:
        original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
        replacement = replacement_for(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
                    self._undo.append((mod, key, original))

    def _patch_method(self, cls, attr: str, name: str, after=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, after))
        self._undo.append((cls, attr, original))

    def install(self) -> None:
        from dirac_coulomb import algebra, radialfn, report

        counts = self.counts

        def laguerre_after(args, result):
            counts["special.laguerre.steps"] += args[0] * np.size(args[2])

        def rule_after(args, result):
            self.rule_keys.add((args[0], args[1]))

        def call_after(args, result):
            terms = args[0].terms
            counts["radialfn.LaguerreSum.call.terms"] += len(terms)
            counts["radialfn.LaguerreSum.call.term_points"] += len(terms) * np.size(args[1])
            counts["radialfn.LaguerreSum.call.distinct_keys"] += len(
                {(t.degree, t.alpha, t.argscale) for t in terms})

        def commutator_after(args, result):
            tracker = _UseTracker(result)
            self.trackers.append(tracker)
            return tracker

        def truncated_after(args, result):
            counts["verification.coherent_truncated_sum.terms"] += result[1] + 1

        def bytes_after(key):
            def after(args, result):
                counts[key] += len(result.encode("utf-8"))
            return after

        def format_counter(fn):
            def counted(*args, **kwargs):
                counts["output.format_value.calls"] += 1
                return fn(*args, **kwargs)
            counted.__wrapped__ = fn
            return counted

        spans = [
            ("special", "laguerre", laguerre_after),
            ("quadrature", "build_rule", rule_after),
            ("quadrature", "integrate_radial", None),
            ("algebra", "su11_commutator_report", commutator_after),
            ("radial", "sturmian", None),
            ("radial", "assemble_spinor", None),
            ("radial", "ode_residual_first_order", None),
            ("radial", "ode_residual_second_order", None),
            ("coherent", "assemble_coherent_spinor", None),
            ("coherent", "perelomov_weights", None),
            ("verification", "coherent_truncated_sum", truncated_after),
            ("verification", "generating_reference_sum", None),
            ("problem", "derive_constants", None),
            ("spectrum", "energy", None),
            ("spectrum", "bound_level", None),
            ("output", "emit_json", bytes_after("output.emit_json.bytes")),
            ("output", "emit_csv", bytes_after("output.emit_csv.bytes")),
            ("cli", "build_parser", None),
        ]
        for module_name, attr, after in spans:
            name = f"{module_name}.{attr}"
            if attr.startswith("ode_residual"):
                name = "radial.ode_residual"
            self._rebind(module_name, attr, lambda fn, n=name, a=after: self.wrap(n, fn, a))
        self._rebind("output", "format_value", format_counter)
        self._rebind("verification", "_registry", self._wrap_registry)

        self._patch_method(radialfn.LaguerreSum, "__init__", "radialfn.LaguerreSum.init")
        self._patch_method(radialfn.LaguerreSum, "__call__", "radialfn.LaguerreSum.call", call_after)
        self._patch_method(algebra.RadialOperator, "apply", "algebra.RadialOperator.apply")
        for cls in (report.SpectrumRecord, report.VerificationReport, report.NormalizationComparison):
            self._patch_method(cls, "to_row", "report.to_row")

    def _wrap_registry(self, registry_fn):
        def registry(*args, **kwargs):
            checks = registry_fn(*args, **kwargs)
            return {name: self.wrap(f"verification.{name}", fn) for name, fn in checks.items()}
        registry.__wrapped__ = registry_fn
        return registry

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.asarray(self.name, dtype=np.int64),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "op": np.asarray(self.op, dtype=np.int64),
        }

    def summary(self) -> dict:
        """Per span name: calls, self time and inclusive time (seconds)."""
        a = self.arrays()
        own = self_times(a["start"], a["end"], a["parent"])
        incl = a["end"] - a["start"]
        out = {}
        for nid, name in enumerate(self.names):
            mask = a["name"] == nid
            out[name] = {"calls": int(mask.sum()), "self_s": float(own[mask].sum()),
                         "s": float(incl[mask].sum())}
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
