"""Command-line front end.

Subcommands: spectrum, wavefunction, coherent, verify, sweep.  Output is
a deterministic JSON document {meta, rows, reports} or the rows table as
CSV.  Exit codes: 0 success, 1 verification failure, 2 usage or domain
error.  A config file (JSON, keys matching the long flag names) may
supply any value; explicit flags override it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .coherent import assemble_coherent_spinor
from .errors import DiracCoulombError, SupercriticalCoupling
from .problem import Alignment, ProblemParams, derive_constants, kappa as kappa_of
from .radial import (
    assemble_spinor,
    default_residual_grid,
    ode_residual_first_order,
    ode_residual_second_order,
    physical_components,
)
from .report import SpectrumRecord, VerificationReport, summarize
from .output import emit_csv, emit_json
from .spectrum import bound_level, energy
from .verification import (
    DEFAULT_TOLERANCES,
    VERIFY_CHECK_COUNT,
    coherent_closed_residual,
    run_suite,
)

__all__ = ["main", "entrypoint", "build_parser", "VERIFY_CHECK_COUNT"]

MAX_SWEEP_ROWS = 100_000

_CONFIG_KEYS = (
    "dimension", "j", "alignment", "alpha_v", "alpha_s", "mass", "n",
    "xi_re", "xi_im", "r_min", "r_max", "r_points", "r_spacing",
    "format", "out", "tolerance",
)


class _UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None,
                        help="JSON config file; explicit flags override its values")
    common.add_argument("--dimension", type=int, default=None, help="spatial dimension D >= 2")
    common.add_argument("--j", type=float, default=None, help="total angular momentum (half-integer)")
    align = common.add_mutually_exclusive_group()
    align.add_argument("--aligned", dest="alignment", action="store_const",
                       const="aligned", help="spin aligned, j = l + 1/2 (default)")
    align.add_argument("--unaligned", dest="alignment", action="store_const",
                       const="unaligned", help="spin unaligned, j = l - 1/2")
    common.set_defaults(alignment=None)
    common.add_argument("--alpha-v", dest="alpha_v", type=str, default=None,
                        help="vector coupling > 0 (sweep accepts start..stop..count)")
    common.add_argument("--alpha-s", dest="alpha_s", type=str, default=None,
                        help="scalar coupling >= 0 (sweep accepts start..stop..count)")
    common.add_argument("--mass", type=float, default=None, help="particle mass (default 1)")
    common.add_argument("--n", type=str, default=None, help="radial label, single value or range a..b")
    common.add_argument("--xi-re", dest="xi_re", type=float, default=None, help="Re xi of the coherent label")
    common.add_argument("--xi-im", dest="xi_im", type=float, default=None, help="Im xi of the coherent label")
    common.add_argument("--r-min", dest="r_min", type=float, default=None, help="grid start (default 1e-2/a)")
    common.add_argument("--r-max", dest="r_max", type=float, default=None, help="grid end (default 40/a)")
    common.add_argument("--r-points", dest="r_points", type=int, default=None, help="grid size (default 200)")
    common.add_argument("--r-spacing", dest="r_spacing", choices=("linear", "log"), default=None,
                        help="grid spacing (default log)")
    common.add_argument("--format", choices=("json", "csv"), default=None, help="output format (default json)")
    common.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    common.add_argument("--tolerance", action="append", default=None, metavar="KEY=VAL",
                        help="override one check tolerance (repeatable)")

    parser = argparse.ArgumentParser(
        prog="dirac-coulomb",
        description="Relativistic Kepler-Coulomb bound states, radial spinors and "
                    "SU(1,1) coherent states in D+1 dimensions, with built-in verification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("spectrum", parents=[common], help="tabulate bound-state energies")
    sub.add_parser("wavefunction", parents=[common], help="tabulate one radial spinor on a grid")
    sub.add_parser("coherent", parents=[common], help="tabulate the coherent spinor on a grid")
    verify = sub.add_parser("verify", parents=[common], help="run the full oracle suite")
    verify.add_argument("--_perturb", dest="perturb", action="store_true", help=argparse.SUPPRESS)
    sub.add_parser("sweep", parents=[common], help="spectrum over a coupling grid")
    return parser


def _apply_config(args: argparse.Namespace) -> None:
    if not args.config:
        return
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _UsageError(f"cannot read config file {args.config}: {exc}") from exc
    if not isinstance(config, dict):
        raise _UsageError("config file must hold a single JSON object")
    unknown = set(config) - set(_CONFIG_KEYS)
    if unknown:
        raise _UsageError(f"unknown config keys: {sorted(unknown)}")
    for key, value in config.items():
        if key == "tolerance":
            continue
        if getattr(args, key, None) is None:
            setattr(args, key, value)
    if isinstance(config.get("tolerance"), dict):
        merged = {str(k): float(v) for k, v in config["tolerance"].items()}
        for item in args.tolerance or []:
            key, _, val = item.partition("=")
            merged[key] = val
        args.tolerance = [f"{k}={v}" for k, v in merged.items()]


def _fill_defaults(args: argparse.Namespace) -> None:
    defaults = {
        "dimension": 3, "j": 0.5, "alignment": "aligned", "alpha_v": "0.5",
        "alpha_s": "0.2", "mass": 1.0, "xi_re": 0.0, "xi_im": 0.0,
        "r_points": 200, "r_spacing": "log", "format": "json",
    }
    for key, value in defaults.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)
    if args.n is None:
        args.n = "1..5" if args.command in ("spectrum", "sweep") else "1"


def _parse_tolerances(args: argparse.Namespace) -> dict[str, float]:
    out: dict[str, float] = {}
    for item in args.tolerance or []:
        key, sep, val = item.partition("=")
        if not sep:
            raise _UsageError(f"--tolerance expects KEY=VAL, got {item!r}")
        if key not in DEFAULT_TOLERANCES:
            raise _UsageError(f"unknown tolerance key {key!r}")
        try:
            out[key] = float(val)
        except ValueError as exc:
            raise _UsageError(f"tolerance value for {key!r} is not a number: {val!r}") from exc
    return out


def _parse_n_range(text: str) -> list[int]:
    text = str(text).strip()
    try:
        if ".." in text:
            lo, hi = text.split("..")
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(text)]
    except ValueError as exc:
        raise _UsageError(f"--n expects an integer or a..b, got {text!r}") from exc
    if not values or values[0] < 1:
        raise _UsageError(f"--n values must be >= 1, got {text!r}")
    return values


def _parse_coupling_range(text, name: str, allow_range: bool) -> list[float]:
    if isinstance(text, (int, float)):
        return [float(text)]
    text = str(text).strip()
    if ".." in text:
        if not allow_range:
            raise _UsageError(f"--{name} accepts a range only in sweep mode, got {text!r}")
        parts = text.split("..")
        if len(parts) != 3:
            raise _UsageError(f"--{name} range must be start..stop..count, got {text!r}")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise _UsageError(f"--{name} range must be start..stop..count, got {text!r}") from exc
        if count < 1:
            raise _UsageError(f"--{name} range count must be >= 1")
        return [float(v) for v in np.linspace(start, stop, count)]
    try:
        return [float(text)]
    except ValueError as exc:
        raise _UsageError(f"--{name} expects a number, got {text!r}") from exc


def _problem_params(args: argparse.Namespace, alpha_v: float | None = None,
                    alpha_s: float | None = None) -> ProblemParams:
    av = float(_parse_coupling_range(args.alpha_v, "alpha-v", False)[0]) if alpha_v is None else alpha_v
    as_ = float(_parse_coupling_range(args.alpha_s, "alpha-s", False)[0]) if alpha_s is None else alpha_s
    return ProblemParams(
        dimension=int(args.dimension), j=float(args.j),
        alignment=Alignment(args.alignment), alpha_v=av, alpha_s=as_,
        mass=float(args.mass),
    )


def _meta(args: argparse.Namespace, params: ProblemParams | None, extra: dict | None = None) -> dict:
    meta = {"command": args.command, "package": "dirac-coulomb", "version": __version__}
    if params is not None:
        meta.update({
            "dimension": params.dimension, "j": params.j,
            "alignment": params.alignment.value, "alpha_v": params.alpha_v,
            "alpha_s": params.alpha_s, "mass": params.mass,
        })
    meta.update(extra or {})
    return meta


def _grid(args: argparse.Namespace, scale_a: float) -> np.ndarray:
    r_min = args.r_min if args.r_min is not None else 1e-2 / scale_a
    r_max = args.r_max if args.r_max is not None else 40.0 / scale_a
    points = int(args.r_points)
    if points < 2:
        raise _UsageError("grid needs at least 2 points")
    if not 0.0 < r_min < r_max < math.inf:
        raise _UsageError(f"grid requires 0 < r_min < r_max < inf, got [{r_min}, {r_max}]")
    if args.r_spacing == "linear":
        return np.linspace(r_min, r_max, points)
    return np.geomspace(r_min, r_max, points)


def _write(args: argparse.Namespace, document: dict, rows: list[dict]) -> None:
    text = emit_json(document) if args.format == "json" else emit_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _spectrum_record(params: ProblemParams, n: int) -> SpectrumRecord:
    kap = kappa_of(params.dimension, params.j, params.alignment)
    try:
        constants = derive_constants(params)
    except SupercriticalCoupling:
        return SpectrumRecord(params=params, n=n, kappa=kap, s=None,
                              energy_over_mass=None, scale_a=None,
                              valid=False, status="supercritical")
    try:
        e = energy(n, constants, params)
    except DiracCoulombError:
        return SpectrumRecord(params=params, n=n, kappa=kap, s=constants.s,
                              energy_over_mass=None, scale_a=None,
                              valid=False, status="no_bound_state")
    a = math.sqrt(max((params.mass - e) * (params.mass + e), 0.0))
    return SpectrumRecord(params=params, n=n, kappa=kap, s=constants.s,
                          energy_over_mass=e / params.mass, scale_a=a,
                          valid=True, status="ok")


def _cmd_spectrum(args: argparse.Namespace) -> int:
    params = _problem_params(args)
    derive_constants(params)  # supercritical inputs abort before any output
    ns = _parse_n_range(args.n)
    rows = [_spectrum_record(params, n).to_row() for n in ns]
    document = {"meta": _meta(args, params, {"n_values": ns}), "rows": rows, "reports": []}
    _write(args, document, rows)
    return 0


def _cmd_wavefunction(args: argparse.Namespace) -> int:
    params = _problem_params(args)
    constants = derive_constants(params)
    ns = _parse_n_range(args.n)
    if len(ns) != 1:
        raise _UsageError("wavefunction requires a single --n")
    level = bound_level(ns[0], params, constants)
    spinor = assemble_spinor(level, constants)
    grid = _grid(args, level.a)
    fv, gv = spinor(grid)
    rows = [{"r": float(r), "F": float(f), "G": float(g)} for r, f, g in zip(grid, fv, gv)]

    tolerances = _parse_tolerances(args)
    res_grid = default_residual_grid(level.a)
    first = ode_residual_first_order(
        spinor, res_grid, tolerance=tolerances.get("ode_first_order", DEFAULT_TOLERANCES["ode_first_order"]))
    u_t, v_t = physical_components(level, constants)
    second = ode_residual_second_order(
        v_t, level, constants, res_grid, "v",
        tolerance=tolerances.get("ode_second_order", DEFAULT_TOLERANCES["ode_second_order"]))
    reports = [spinor.normalization.to_row(), first.to_row(), second.to_row()]
    document = {
        "meta": _meta(args, params, {
            "n": level.n, "energy_over_mass": level.energy / params.mass,
            "scale_a": level.a, "omega": level.omega,
            "grid_points": int(args.r_points), "grid_spacing": args.r_spacing,
        }),
        "rows": rows,
        "reports": reports,
    }
    _write(args, document, rows)
    return 0


def _cmd_coherent(args: argparse.Namespace) -> int:
    params = _problem_params(args)
    constants = derive_constants(params)
    xi = complex(float(args.xi_re), float(args.xi_im))
    if not abs(xi) < 1.0:  # also rejects nan and inf
        raise _UsageError(f"coherent label requires |xi| < 1, got |xi| = {abs(xi):.6g}")
    spinor = assemble_coherent_spinor(params, constants, xi)
    grid = _grid(args, spinor.a_ref)
    fv, gv = spinor(grid)
    fv, gv = np.asarray(fv, dtype=complex), np.asarray(gv, dtype=complex)
    rows = [
        {"r": float(r), "F_re": f.real, "F_im": f.imag, "G_re": g.real, "G_im": g.imag}
        for r, f, g in zip(grid, fv, gv)
    ]

    residuals = [coherent_closed_residual(channel, constants.s, xi) for channel in ("u", "v")]
    tolerances = _parse_tolerances(args)
    closed_report = VerificationReport.from_residuals(
        "coherent_closed_vs_sum", residuals,
        tolerances.get("coherent_closed_vs_sum", DEFAULT_TOLERANCES["coherent_closed_vs_sum"]),
        context={"xi_re": xi.real, "xi_im": xi.imag},
    )
    reports = [spinor.normalization.to_row(), closed_report.to_row()]
    document = {
        "meta": _meta(args, params, {
            "xi_re": xi.real, "xi_im": xi.imag,
            "a_ref": spinor.a_ref, "omega_ref": spinor.omega_ref,
            "tau": spinor.label.tau, "phi": spinor.label.phi, "eta": spinor.label.eta,
            "grid_points": int(args.r_points), "grid_spacing": args.r_spacing,
        }),
        "rows": rows,
        "reports": reports,
    }
    _write(args, document, rows)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    params = _problem_params(args)
    tolerances = _parse_tolerances(args)
    reports = run_suite(params, tolerances, perturb=getattr(args, "perturb", False))
    rows = [rep.to_row() for rep in reports]
    overall = summarize(reports)
    document = {
        "meta": _meta(args, params, {"check_count": VERIFY_CHECK_COUNT,
                                     "all_passed": overall.all_passed}),
        "rows": rows,
        "reports": rows,
    }
    _write(args, document, rows)
    return 0 if overall.all_passed else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    av_values = _parse_coupling_range(args.alpha_v, "alpha-v", True)
    as_values = _parse_coupling_range(args.alpha_s, "alpha-s", True)
    ns = _parse_n_range(args.n)
    total = len(av_values) * len(as_values) * len(ns)
    if total > MAX_SWEEP_ROWS:
        raise _UsageError(f"sweep of {total} rows exceeds the {MAX_SWEEP_ROWS} row limit")
    rows = []
    for av in av_values:
        for as_ in as_values:
            params = _problem_params(args, alpha_v=av, alpha_s=as_)
            for n in ns:
                rows.append(_spectrum_record(params, n).to_row())
    base = _problem_params(args, alpha_v=av_values[0], alpha_s=as_values[0])
    document = {
        "meta": _meta(args, base, {
            "alpha_v_values": av_values, "alpha_s_values": as_values, "n_values": ns,
            "rows_total": total,
        }),
        "rows": rows,
        "reports": [],
    }
    _write(args, document, rows)
    return 0


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "wavefunction": _cmd_wavefunction,
    "coherent": _cmd_coherent,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        _fill_defaults(args)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SupercriticalCoupling as exc:
        print(f"error: supercritical coupling: {exc}", file=sys.stderr)
        return 2
    except DiracCoulombError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
