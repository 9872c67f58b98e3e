"""Host speed probe, for timings that hold still on a shared host.

On a shared 2-core host the same CPU work runs up to 1.6x slower in some
stretches than in others, in phases from seconds to minutes long.  A run
therefore times a fixed probe, made of the kinds of work the CLI does
(small dicts, 17-digit float formatting, a three-term recurrence on a
200-point numpy grid), between ops, about once per PROBE_EVERY_S.  An op's
wall time is scaled by REFERENCE_S over the median probe time around it,
which reports it at the speed where the probe takes REFERENCE_S.  Probes
come in bursts between ops, so a long op takes its probes from a window
that grows with its duration: a slow phase that begins or ends inside a
4 s verify op is otherwise sampled by one burst on each side, and scaling
verify ops that way spread them more than their raw times.

The scale is raised to a per-workload ``sensitivity``: how strongly the
workload's op time follows the probe time.  Regressing log op time on
log probe time across repeats of one op gives 0.3-0.4 for verify and
0.6-0.8 for sweep and the state queries.  Over four sets of ten seeds,
0.5 gave verify's time metrics the smallest worst-case spread between
seeds (0.23, against 0.44 with full scaling), and full scaling stayed
best for the short ops.  The probe is benchmark code, so no change to
the program moves it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 1.5e-3
PROBE_EVERY_S = 0.1
WINDOW_S = 1.0
WINDOW_PER_OP = 3.0
MAX_REPEATS = 20

_GRID = np.linspace(0.1, 5.0, 200)


def probe_work() -> int:
    rows = [{"a": 0.1 * i, "b": 1.7 * i, "c": i} for i in range(300)]
    text = "".join(format(r["a"], ".17g") + format(r["b"], ".17g") for r in rows)
    y = _GRID.copy()
    for k in range(150):
        y = ((2.0 * k + 1.0 - _GRID) * y - (k + 0.5) * _GRID) / (k + 1.0)
    return len(text) + int(np.isfinite(y).sum())


class Pace:
    def __init__(self, sensitivity: float = 1.0):
        self.sensitivity = sensitivity
        self.when: list[float] = []
        self.took: list[float] = []

    def probe(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            t0 = perf_counter()
            probe_work()
            t1 = perf_counter()
            self.when.append(0.5 * (t0 + t1))
            self.took.append(t1 - t0)

    def maybe_probe(self) -> None:
        """Probe once per PROBE_EVERY_S since the last probe (up to
        MAX_REPEATS), so a long op is bracketed by as many samples as the
        same stretch of short ops would be."""
        gap = perf_counter() - self.when[-1] if self.when else PROBE_EVERY_S
        if gap >= PROBE_EVERY_S:
            self.probe(min(MAX_REPEATS, int(gap / PROBE_EVERY_S)))

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median probe time within WINDOW_S, or
        WINDOW_PER_OP times the op's duration if longer, of [start, end]
        (the two nearest probes when none is that close), raised to the
        sensitivity."""
        when, took = np.asarray(self.when), np.asarray(self.took)
        window = max(WINDOW_S, WINDOW_PER_OP * (end - start))
        near = (when >= start - window) & (when <= end + window)
        if near.sum() < 2:
            distance = np.maximum(start - when, when - end)
            near = np.argsort(distance)[:2]
        return (REFERENCE_S / float(np.median(took[near]))) ** self.sensitivity
