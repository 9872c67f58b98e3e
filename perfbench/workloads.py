"""Seeded workload generators.

Each generator is a pure function of the seed and returns a *deck*: the
list of operations a run cycles through in order.  One operation is one
``dirac_coulomb.cli.main(argv)`` call.  Values that set an operation's
cost or outcome (|xi|, n, D, the verify mass) are spread evenly over
their range: along a Kronecker sequence ``frac(u + i * r)`` with a seeded
shift ``u``, or one draw per stratum.  Rows per sweep are a fixed grid.  Every value is still
uniform on its range, and a run that stops part-way through a pass sees
the same mix whatever the seed.  Everything else is drawn independently
from the seed's stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Kronecker sequence steps: fractional parts of square roots of primes.
ROOTS = np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0, 23.0, 29.0]) % 1.0

WORKLOADS = ("verify_suite", "sweep_grid", "state_queries")

# Deck sizes: verify ops, sweep row counts (each written as JSON and as
# CSV) and spectrum/wavefunction/coherent triples.
VERIFY_DECK = 6
SWEEP_SIZES = 32
STATE_TRIPLES = 150

# Inputs past a defect that ROADMAP item 3 lists (used for the recorded
# input shares; the oracle attributes failures with its own signatures).
DEFECT_MASS = 1e6
DEFECT_N = 350
DEFECT_DIMENSION = 80


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple
    spec: dict = field(default_factory=dict)


def kappa(dimension: int, j: float, aligned: bool) -> float:
    magnitude = (int(round(2 * j)) + dimension - 2) / 2.0
    return -magnitude if aligned else magnitude


def _kronecker(rng, count: int, dims: int, spread: float = 1.0) -> np.ndarray:
    """count x dims points frac(u + i * ROOTS) with a seeded shift u drawn
    from [0, spread)."""
    return np.mod(spread * rng.random(dims) + np.outer(np.arange(count), ROOTS[:dims]), 1.0)


def _problem(u, dimension: int, j: float, mass: float) -> dict:
    """One subcritical problem from three uniform numbers ``u``: the
    alignment, alpha_v < |kappa| (so the alpha_s = 0 variants the verify
    suite builds are subcritical too) and alpha_s <= 0.8 alpha_v (away
    from the s = kappa singularity)."""
    aligned = bool(u[0] < 0.5)
    kap = kappa(dimension, j, aligned)
    alpha_v = float((0.05 + 0.85 * u[1]) * abs(kap))
    alpha_s = float(0.8 * u[2] * alpha_v)
    return {"dimension": dimension, "j": j, "aligned": aligned, "kappa": kap,
            "alpha_v": alpha_v, "alpha_s": alpha_s, "mass": float(mass)}


def _problem_argv(p: dict) -> list[str]:
    return ["--dimension", str(p["dimension"]), "--j", repr(p["j"]),
            "--aligned" if p["aligned"] else "--unaligned",
            "--alpha-v", repr(p["alpha_v"]), "--alpha-s", repr(p["alpha_s"]),
            "--mass", repr(p["mass"])]


def verify_suite(seed: int) -> list[Op]:
    """`verify` over seeded problems, mass log-uniform over [1e-4, 1e8]:
    one draw from each of VERIFY_DECK equal log-mass strata, in seeded order,
    so every deck holds the same share of masses past 1e6."""
    rng = np.random.default_rng([1, seed])
    log_mass = -4.0 + 12.0 * (rng.permutation(VERIFY_DECK) + rng.random(VERIFY_DECK)) / VERIFY_DECK
    ops = []
    for lm in log_mass:
        p = _problem(rng.random(3), int(rng.integers(2, 7)), 0.5 + int(rng.integers(0, 3)), 10.0 ** lm)
        ops.append(Op("verify", tuple(["verify"] + _problem_argv(p)), p))
    return ops


def sweep_grid(seed: int) -> list[Op]:
    """`sweep` of 10^3..10^4 rows.  alpha_v runs from 0.05 to 1.5 |kappa|
    and alpha_s from 0 to 0.35 |kappa| (each end jittered by a few
    percent), so about 30% of every grid is supercritical; supercritical
    rows are cheaper, and a fixed share keeps the cost per row alike
    across seeds.  The row counts are the same in every deck, SWEEP_SIZES
    of them log-spaced over 10^3..10^4: the largest op sets peak_rss_mb,
    and seeded counts moved it by 6% from seed to seed.  Each count
    appears twice in a row, once written as JSON and once as CSV, on
    different problems."""
    rng = np.random.default_rng([2, seed])
    ops = []
    for lr in np.linspace(3.0, 4.0, SWEEP_SIZES):
        for fmt in ("json", "csv"):
            p = _problem(rng.random(3), int(rng.integers(2, 9)), 0.5 + int(rng.integers(0, 4)),
                         10.0 ** rng.uniform(-4.0, 8.0))
            k = abs(p["kappa"])
            n_lo = int(rng.integers(1, 6))
            n_count = int(rng.integers(2, 11))
            as_count = int(rng.integers(2, 9))
            av_count = max(2, int(round(10.0 ** lr / (n_count * as_count))))
            av_lo, av_hi = float(rng.uniform(0.04, 0.06) * k), float(rng.uniform(1.45, 1.55) * k)
            as_hi = float(rng.uniform(0.3, 0.4) * k)
            spec = dict(p, av=(av_lo, av_hi, av_count), as_=(0.0, as_hi, as_count),
                        n=(n_lo, n_lo + n_count - 1), format=fmt)
            argv = ["sweep"] + _problem_argv(p)
            argv[argv.index("--alpha-v") + 1] = f"{av_lo!r}..{av_hi!r}..{av_count}"
            argv[argv.index("--alpha-s") + 1] = f"{0.0!r}..{as_hi!r}..{as_count}"
            argv += ["--n", f"{n_lo}..{n_lo + n_count - 1}", "--format", fmt]
            ops.append(Op("sweep", tuple(argv), spec))
    return ops


def state_queries(seed: int) -> list[Op]:
    """Interleaved spectrum / wavefunction / coherent ops on the default
    200-point grid.  n is 1..60 with 5% up to 450; |xi| is uniform on
    [0, 0.9] with a uniform phase; mass is log-uniform on [1e-3, 1e3].
    D is 2..10, with a tail up to 120 (j up to D/2 there, so |kappa|
    reaches the overflow region) on 7.5% of the spectrum and wavefunction
    ops, 5% of all ops.  Coherent ops stay at D <= 10: one with D near 60
    and |xi| near 0.85 takes 2.5 s, and the few such ops in a deck moved a
    pass's time by 5 s from seed to seed.  Every cost-setting value follows
    one Kronecker sequence over the op index, which the seed shifts by
    less than the spacing of its points: the slowest ops are coherent ones
    at |xi| > 0.8, a dozen per deck, and a free shift moved the tenth
    slowest by 25% from seed to seed.  The phase of xi is on the sequence
    too, because it sets where the truncated sum may stop.  Masses are
    drawn freely."""
    rng = np.random.default_rng([3, seed])
    count = 3 * STATE_TRIPLES
    points = _kronecker(rng, count, 10, spread=1.0 / count)
    ops = []
    for i, (d_tail, d_pick, j_pick, n_tail, n_pick, xi_mod, xi_arg, *u) in enumerate(points):
        kind = ("spectrum", "wavefunction", "coherent")[i % 3]
        if kind != "coherent" and d_tail < 0.075:
            dimension = 11 + int(110 * d_pick)
            j_max = dimension // 2
        else:
            dimension, j_max = 2 + int(9 * d_pick), 4
        p = _problem(u, dimension, 0.5 + int((j_max + 1) * j_pick), 10.0 ** rng.uniform(-3.0, 3.0))
        argv = [kind] + _problem_argv(p)
        if kind == "coherent":
            xi = 0.9 * float(xi_mod) * complex(np.cos(2.0 * np.pi * xi_arg), np.sin(2.0 * np.pi * xi_arg))
            p["xi"] = (xi.real, xi.imag)
            # "--flag=value": argparse takes "-6.6e-05" for an option name
            argv += [f"--xi-re={xi.real!r}", f"--xi-im={xi.imag!r}"]
        else:
            n = 61 + int(390 * n_pick) if n_tail < 0.05 else 1 + int(60 * n_pick)
            p["n"] = n
            argv += ["--n", f"1..{n}" if kind == "spectrum" else str(n)]
        ops.append(Op(kind, tuple(argv), p))
    return ops


GENERATORS = {"verify_suite": verify_suite, "sweep_grid": sweep_grid, "state_queries": state_queries}


def input_properties(workload: str, deck: list[Op]) -> dict:
    """Shares of the deck's inputs that later claims can cite."""
    specs = [op.spec for op in deck]
    props: dict = {"ops_in_deck": len(deck)}
    props["share_mass_ge_1e6"] = float(np.mean([s["mass"] >= DEFECT_MASS for s in specs]))
    props["share_dimension_ge_80"] = float(np.mean([s["dimension"] >= DEFECT_DIMENSION for s in specs]))
    with_n = [s["n"] for s in specs if isinstance(s.get("n"), int)]
    props["share_n_ge_350"] = float(np.mean([n >= DEFECT_N for n in with_n])) if with_n else 0.0
    if workload == "sweep_grid":
        masks = [sweep_supercritical_mask(s) for s in specs]
        rows = [m.size for m in masks]
        cells = np.concatenate(masks)
        props.update({
            "rows_per_op": {"min": min(rows), "median": float(np.median(rows)), "max": max(rows)},
            "share_json_ops": float(np.mean([s["format"] == "json" for s in specs])),
            "share_supercritical_rows": float(np.mean(cells)),
        })
    if workload == "state_queries":
        mods = [abs(complex(*s["xi"])) for s in specs if "xi" in s]
        hist, edges = np.histogram(mods, bins=9, range=(0.0, 0.9))
        props["xi_modulus_histogram"] = {f"{lo:.1f}-{hi:.1f}": int(c)
                                         for lo, hi, c in zip(edges[:-1], edges[1:], hist)}
        props["ops_by_kind"] = {k: sum(op.kind == k for op in deck)
                                for k in ("spectrum", "wavefunction", "coherent")}
    return props


def sweep_axes(spec: dict):
    av = np.linspace(spec["av"][0], spec["av"][1], spec["av"][2])
    as_ = np.linspace(spec["as_"][0], spec["as_"][1], spec["as_"][2])
    n = np.arange(spec["n"][0], spec["n"][1] + 1)
    return av, as_, n


def sweep_supercritical_mask(spec: dict) -> np.ndarray:
    av, as_, n = sweep_axes(spec)
    cells = spec["kappa"] ** 2 <= av[:, None] ** 2 - as_[None, :] ** 2
    return np.repeat(cells.ravel(), n.size)
