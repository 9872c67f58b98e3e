"""Command-line front end.

Subcommands: spectrum, wavefunction, coherent, verify, sweep.  Output is
a deterministic JSON document {meta, rows, reports} or the rows table as
CSV.  Exit codes: 0 success, 1 verification failure, 2 usage or domain
error.  A config file (JSON, keys matching the long flag names) may
supply any value; explicit flags override it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from itertools import chain, repeat

import numpy as np

from . import __version__
from .coherent import assemble_coherent_spinor
from .errors import DiracCoulombError, DomainError, SupercriticalCoupling
from .problem import Alignment, ProblemParams, derive_constants, kappa as kappa_of
from .radial import (
    assemble_spinor,
    ode_residual_first_order,
    ode_residual_second_order,
    physical_components,
    radial_window,
)
from .report import SpectrumRecord, VerificationReport
from .output import emit_table, format_reals, token
from .spectrum import bound_level
from .verification import VERIFY_CHECK_COUNT, coherent_closed_residuals, resolve_tolerances, run_suite

__all__ = ["main", "entrypoint", "build_parser", "VERIFY_CHECK_COUNT"]

MAX_SWEEP_ROWS = 100_000  # the row limit of every spectrum table, `spectrum` and `sweep`
MAX_GRID_POINTS = 1_000_000  # the --r-points limit of `wavefunction` and `coherent`
MAX_LEVEL = 100_000  # the --n limit of `wavefunction`, whose spinor costs O(n)

class _UsageError(Exception):
    pass


_PROG = "dirac-coulomb"
_SUBCOMMAND_HELP = {
    "spectrum": "tabulate bound-state energies",
    "wavefunction": "tabulate one radial spinor on a grid",
    "coherent": "tabulate the coherent spinor on a grid",
    "verify": "run the full oracle suite",
    "sweep": "spectrum over a coupling grid",
}


def _number_or_text(text: str) -> str:
    """Type of --alpha-v, --alpha-s and --n, whose text the subcommand parses as
    a number or a range; a config file may give them a JSON number too."""
    return text


@functools.cache
def _common_arguments() -> argparse.ArgumentParser:
    """The flags every subcommand takes: the parent of each subparser, and the
    flag definitions a config file is checked against."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--config", type=str, default=None,
                        help="JSON config file; explicit flags override its values")
    parser.add_argument("--dimension", type=int, default=None, help="spatial dimension D >= 2")
    parser.add_argument("--j", type=float, default=None, help="total angular momentum (half-integer)")
    align = parser.add_mutually_exclusive_group()
    align.add_argument("--aligned", dest="alignment", action="store_const",
                       const="aligned", help="spin aligned, j = l + 1/2 (default)")
    align.add_argument("--unaligned", dest="alignment", action="store_const",
                       const="unaligned", help="spin unaligned, j = l - 1/2")
    parser.set_defaults(alignment=None)
    parser.add_argument("--alpha-v", dest="alpha_v", type=_number_or_text, default=None,
                        help="vector coupling > 0 (sweep accepts start..stop..count)")
    parser.add_argument("--alpha-s", dest="alpha_s", type=_number_or_text, default=None,
                        help="scalar coupling >= 0 (sweep accepts start..stop..count)")
    parser.add_argument("--mass", type=float, default=None, help="particle mass (default 1)")
    parser.add_argument("--n", type=_number_or_text, default=None,
                        help="radial label, single value or range a..b")
    parser.add_argument("--xi-re", dest="xi_re", type=float, default=None, help="Re xi of the coherent label")
    parser.add_argument("--xi-im", dest="xi_im", type=float, default=None, help="Im xi of the coherent label")
    parser.add_argument("--r-min", dest="r_min", type=float, default=None, help="grid start (default 1e-2/a)")
    parser.add_argument("--r-max", dest="r_max", type=float, default=None, help="grid end (default 40/a)")
    parser.add_argument("--r-points", dest="r_points", type=int, default=None, help="grid size (default 200)")
    parser.add_argument("--r-spacing", dest="r_spacing", choices=("linear", "log"), default=None,
                        help="grid spacing (default log)")
    parser.add_argument("--format", choices=("json", "csv"), default=None, help="output format (default json)")
    parser.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    parser.add_argument("--tolerance", action="append", default=None, metavar="KEY=VAL",
                        help="override one check tolerance (repeatable)")
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full parser: one subparser per subcommand, each with the common flags."""
    parser = argparse.ArgumentParser(
        prog=_PROG,
        description="Relativistic Kepler-Coulomb bound states, radial spinors and "
                    "SU(1,1) coherent states in D+1 dimensions, with built-in verification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {name: sub.add_parser(name, parents=[_common_arguments()], help=help_text)
                  for name, help_text in _SUBCOMMAND_HELP.items()}
    for subparser in subparsers.values():  # argparse's own pattern misses -1e-3, -0.1..0.5..3, -inf and -nan
        subparser._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.I)
    subparsers["verify"].add_argument("--_perturb", dest="perturb", action="store_true",
                                      help=argparse.SUPPRESS)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one full parser, built on first use; build_parser is looked
    up when it is called, so a caller may rebind it before then."""
    return build_parser()


def _apply_config(args: argparse.Namespace) -> None:
    if not args.config:
        return
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: not UTF-8 or not JSON
        raise _UsageError(f"cannot read config file {args.config}: {exc}") from exc
    if not isinstance(config, dict):
        raise _UsageError("config file must hold a single JSON object")
    flags = _common_arguments()._actions
    unknown = set(config) - ({action.dest for action in flags} - {"config"})
    if unknown:
        raise _UsageError(f"unknown config keys: {sorted(unknown)}")
    for key, value in config.items():
        if key == "tolerance" or value is None:
            continue
        _check_config_value(key, value, [action for action in flags if action.dest == key])
        if getattr(args, key, None) is None:
            setattr(args, key, value)
    if config.get("tolerance") is not None:
        if not isinstance(config["tolerance"], dict):
            raise _UsageError(f"config value for 'tolerance' has the wrong type: {config['tolerance']!r}")
        merged = {str(k): v for k, v in config["tolerance"].items()}
        for item in args.tolerance or []:
            key, _, val = item.partition("=")
            merged[key] = val
        args.tolerance = [f"{k}={v}" for k, v in merged.items()]


def _check_config_value(key: str, value, actions: list[argparse.Action]) -> None:
    """Reject a config value that the flags of ``key`` could not give.  The flag
    type fixes the JSON type: an integer for int, any number for float, a number
    or a string for _number_or_text, else a string.  The flag's choices, or the
    consts of --aligned and --unaligned, fix the values."""
    flag_type = actions[0].type or str
    allowed = {float: (int, float), _number_or_text: (int, float, str)}.get(flag_type, (flag_type,))
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise _UsageError(f"config value for {key!r} has the wrong type: {value!r}")
    choices = actions[0].choices or [action.const for action in actions if action.const is not None]
    if choices and value not in choices:
        raise _UsageError(f"config value for {key!r} must be one of {list(choices)}, got {value!r}")


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
    """Every check's tolerance, the --tolerance overrides applied; items are
    checked in the order given."""
    def pairs():
        for item in args.tolerance or []:
            key, sep, val = item.partition("=")
            if not sep:
                raise _UsageError(f"--tolerance expects KEY=VAL, got {item!r}")
            yield key, val

    return resolve_tolerances(pairs())


def _parse_n_range(text: str) -> range:
    text = str(text).strip()
    try:
        lo, sep, hi = text.partition("..")
        values = range(int(lo), int(hi if sep else lo) + 1)
    except ValueError as exc:
        raise _UsageError(f"--n expects an integer or a..b, got {text!r}") from exc
    if not values:
        raise _UsageError(f"--n range {text!r} is empty: its end is below its start")
    if values[0] < 1:
        raise _UsageError(f"--n values must be >= 1, got {text!r}")
    return values


def _parse_coupling_range(text, name: str, allow_range: bool) -> tuple[float, float | None, int]:
    """(start, stop, count) of a sweep range, or (value, None, 1) for one coupling;
    _axis builds the values, once the sweep's size has been checked."""
    if isinstance(text, (int, float)):
        return float(text), None, 1
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
        for bound in (start, stop):
            if not math.isfinite(bound):
                raise _UsageError(f"{name.replace('-', '_')} must be finite, got {bound}")
        if not math.isfinite(stop - start):
            raise _UsageError(f"--{name} range from {start!r} to {stop!r} spans more than the double range")
        if count < 1:
            raise _UsageError(f"--{name} range count must be >= 1")
        return start, stop, count
    try:
        return float(text), None, 1
    except ValueError as exc:
        raise _UsageError(f"--{name} expects a number, got {text!r}") from exc


def _check_rows(command: str, total: int) -> None:
    """Reject a table of more than MAX_SWEEP_ROWS rows before any row is built."""
    if total > MAX_SWEEP_ROWS:
        raise _UsageError(f"{command} of {total} rows exceeds the {MAX_SWEEP_ROWS} row limit")


def _axis(start: float, stop: float | None, count: int) -> list[float]:
    with np.errstate(over="ignore"):  # np.linspace may overflow its last step, which it then sets to stop
        return [start] if stop is None else np.linspace(start, stop, count).tolist()


def _problem_params(args: argparse.Namespace, alpha_v: float | None = None,
                    alpha_s: float | None = None) -> ProblemParams:
    av = _parse_coupling_range(args.alpha_v, "alpha-v", False)[0] if alpha_v is None else alpha_v
    as_ = _parse_coupling_range(args.alpha_s, "alpha-s", False)[0] if alpha_s is None else alpha_s
    return ProblemParams(
        dimension=int(args.dimension), j=float(args.j),
        alignment=Alignment(args.alignment), alpha_v=av, alpha_s=as_,
        mass=float(args.mass),
    )


def _meta(args: argparse.Namespace, params: ProblemParams, extra: dict) -> dict:
    return {"command": args.command, "package": "dirac-coulomb", "version": __version__,
            "dimension": params.dimension, "j": params.j, "alignment": params.alignment.value,
            "alpha_v": params.alpha_v, "alpha_s": params.alpha_s, "mass": params.mass, **extra}


def _grid(args: argparse.Namespace, scale_a: float) -> np.ndarray:
    r_min, r_max = radial_window(scale_a)
    r_min = args.r_min if args.r_min is not None else r_min
    r_max = args.r_max if args.r_max is not None else r_max
    points = int(args.r_points)
    if points < 2:
        raise _UsageError("grid needs at least 2 points")
    if points > MAX_GRID_POINTS:
        raise _UsageError(f"grid of {points} points exceeds the {MAX_GRID_POINTS} point limit")
    if not 0.0 < r_min < r_max < math.inf:
        raise _UsageError(f"grid requires 0 < r_min < r_max < inf, got [{r_min}, {r_max}]")
    if args.r_spacing == "linear":
        return np.linspace(r_min, r_max, points)
    return np.geomspace(r_min, r_max, points)


def _write_text(args: argparse.Namespace, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except (OSError, ValueError) as exc:  # ValueError: a config path with a NUL or a lone surrogate
            raise _UsageError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _write_columns(args: argparse.Namespace, meta: dict, columns: dict, reports: list[dict]) -> None:
    """The document {meta, rows, reports} of the rows in ``columns`` (key -> array of reals),
    or in CSV the rows; each value is formatted once."""
    _write_text(args, emit_table(args.format, meta, tuple(columns), {},
                                 [format_reals(v) for v in columns.values()], reports))


_STATUSES = ("supercritical", "no_bound_state", "ok")  # a spectrum row's status by its code
_STATUS_TOKENS = {fmt: ([token(st == "ok", fmt) for st in _STATUSES], [token(st, fmt) for st in _STATUSES])
                  for fmt in ("json", "csv")}  # the valid and the status token of each code


def _repeat_each(tokens: list[str], times: int) -> list[str]:
    return list(chain.from_iterable(repeat(t, times) for t in tokens))


def _masked_tokens(mask: np.ndarray, null: str, *values: np.ndarray) -> list[list[str]]:
    """For each array of values (of the mask's shape), format_reals where ``mask`` holds and
    ``null`` elsewhere; only the values under the mask are formatted."""
    if mask.all():
        return [format_reals(v) for v in values]
    pick = np.where(mask.ravel(), np.cumsum(mask), 0).tolist()
    return [list(map([null, *format_reals(v[mask])].__getitem__, pick)) for v in values]


def _spectrum_text(args: argparse.Namespace, base: ProblemParams, av_values: list[float],
                   as_values: list[float], ns: list[int], extra: dict) -> str:
    """SpectrumRecord rows over the (alpha_v, alpha_s) grid, n innermost, as text.  The
    columns repeat the operations of derive_constants and spectrum.energy in their
    order, so every double is the same.  Each axis value is formatted once, and E/m and a
    only in ok rows; emit_table takes the eight columns of tokens."""
    fmt, m = args.format, base.mass
    kap = kappa_of(base.dimension, base.j, base.alignment)
    av, as_ = np.array(av_values)[:, None, None], np.array(as_values)[:, None]  # (alpha_v, alpha_s, n) axes
    if ns[-1] > sys.float_info.max:  # ns ascend; past this n is no double
        raise DomainError(f"the spectrum formula overflows at n = {ns[-1]}")
    with np.errstate(all="ignore"):  # as silent as float arithmetic
        s_sq = kap * kap - (av + as_) * (av - as_)
        s = np.sqrt(s_sq)
        nu = np.asarray(ns, dtype=float) + s
        disc = nu * nu + av * av - as_ * as_
        e = m * (-av * as_ + nu * np.sqrt(disc)) / (av * av + nu * nu)
        e = np.where(np.abs(e) > m, np.copysign(m, e), e)
        a_sq = np.maximum((m - e) * (m + e), 0.0)
        # at m far from 1 the product leaves the normal doubles; there take each root apart
        a = np.where((a_sq >= sys.float_info.min) & (a_sq <= sys.float_info.max),
                     np.sqrt(a_sq), np.sqrt(m - e) * np.sqrt(m + e))
    supercritical = s_sq <= 0.0
    ok = ~(supercritical | (disc < 0.0))
    # past about 1.3e154 in a coupling, kappa or n, s or nu * nu overflows: no bound row may print nan
    broken = ok & ~(np.isfinite(s) & np.isfinite(disc) & np.isfinite(e) & np.isfinite(a))
    if broken.any():
        cell, n = divmod(int(np.flatnonzero(broken)[0]), len(ns))
        raise DomainError(f"the spectrum formula overflows at alpha_v = {av_values[cell // len(as_values)]:.6g}, "
                          f"alpha_s = {as_values[cell % len(as_values)]:.6g}, n = {ns[n]}")
    code = np.where(supercritical, 0, ok + 1).ravel().tolist()  # the index of the row's status
    null, nn = token(None, fmt), len(ns)
    av_tok, as_tok, n_tok = format_reals(av_values), format_reals(as_values), [str(n) for n in ns]
    s_tok, = _masked_tokens(~supercritical, null, s)
    columns = [_repeat_each(av_tok, len(as_values) * nn), _repeat_each(as_tok, nn) * len(av_values),
               n_tok * len(s_tok), _repeat_each(s_tok, nn), *_masked_tokens(ok, null, e / m, a)]
    columns += [list(map(pool.__getitem__, code)) for pool in _STATUS_TOKENS[fmt]]
    return emit_table(fmt, _meta(args, base, extra), SpectrumRecord.COLUMNS, {
        "dimension": base.dimension, "j": base.j, "alignment": base.alignment.value, "mass": m, "kappa": kap,
    }, columns)


def _cmd_spectrum(args: argparse.Namespace) -> int:
    params = _problem_params(args)
    derive_constants(params)  # supercritical inputs abort before any output
    ns = _parse_n_range(args.n)
    _check_rows("spectrum", ns.stop - ns.start)  # len() fails past sys.maxsize
    ns = list(ns)
    _write_text(args, _spectrum_text(args, params, [params.alpha_v], [params.alpha_s], ns, {"n_values": ns}))
    return 0


def _cmd_wavefunction(args: argparse.Namespace) -> int:
    params = _problem_params(args)
    constants = derive_constants(params)
    ns = _parse_n_range(args.n)
    if ns.stop - ns.start != 1:
        raise _UsageError("wavefunction requires a single --n")
    if ns[0] > MAX_LEVEL:
        raise _UsageError(f"wavefunction --n {ns[0]} exceeds the {MAX_LEVEL} level limit")
    level = bound_level(ns[0], params, constants)
    spinor = assemble_spinor(level, constants)
    grid = _grid(args, level.a)
    fv, gv = spinor(grid)

    tolerances = _parse_tolerances(args)
    first = ode_residual_first_order(spinor)
    u_t, v_t = physical_components(level, constants)
    second = ode_residual_second_order(v_t, level, constants)
    reports = [VerificationReport.from_residuals(name, residuals, tolerances[name], context).to_row()
               for name, (residuals, context) in (("ode_first_order", first), ("ode_second_order", second))]
    _write_columns(args, _meta(args, params, {
        "n": level.n, "energy_over_mass": level.energy / params.mass,
        "scale_a": level.a, "omega": level.omega,
        "grid_points": int(args.r_points), "grid_spacing": args.r_spacing,
    }), {"r": grid, "F": fv, "G": gv}, [spinor.normalization.to_row(), *reports])
    return 0


def _cmd_coherent(args: argparse.Namespace) -> int:
    params = _problem_params(args)
    constants = derive_constants(params)
    xi = complex(float(args.xi_re), float(args.xi_im))
    if not abs(xi) < 1.0:  # also rejects nan and inf
        raise _UsageError(f"coherent label requires |xi| < 1, got |xi| = {abs(xi):.6g}")
    spinor = assemble_coherent_spinor(params, constants, xi)
    grid = _grid(args, spinor.a_ref)
    fv, gv = (np.asarray(v, dtype=complex) for v in spinor(grid))

    residuals = coherent_closed_residuals(constants.s, [("u", xi), ("v", xi)])
    tolerances = _parse_tolerances(args)
    closed_report = VerificationReport.from_residuals(
        "coherent_closed_vs_sum", residuals, tolerances["coherent_closed_vs_sum"],
        context={"xi_re": xi.real, "xi_im": xi.imag},
    )
    _write_columns(args, _meta(args, params, {
        "xi_re": xi.real, "xi_im": xi.imag,
        "a_ref": spinor.a_ref, "omega_ref": spinor.omega_ref,
        "tau": spinor.label.tau, "phi": spinor.label.phi, "eta": spinor.label.eta,
        "grid_points": int(args.r_points), "grid_spacing": args.r_spacing,
    }), {"r": grid, "F_re": fv.real, "F_im": fv.imag, "G_re": gv.real, "G_im": gv.imag},
        [spinor.normalization.to_row(), closed_report.to_row()])
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    params = _problem_params(args)
    reports = run_suite(params, _parse_tolerances(args), perturb=args.perturb)
    rows = [rep.to_row() for rep in reports]
    all_passed = all(rep.passed for rep in reports)
    meta = _meta(args, params, {"check_count": VERIFY_CHECK_COUNT, "all_passed": all_passed})
    columns = [[token(row[k], args.format) for row in rows] for k in rows[0]]
    _write_text(args, emit_table(args.format, meta, tuple(rows[0]), {}, columns, rows))
    return 0 if all_passed else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    av_range = _parse_coupling_range(args.alpha_v, "alpha-v", True)
    as_range = _parse_coupling_range(args.alpha_s, "alpha-s", True)
    ns = _parse_n_range(args.n)
    total = av_range[2] * as_range[2] * (ns.stop - ns.start)  # len() fails past sys.maxsize
    _check_rows("sweep", total)
    av_values, as_values, ns = _axis(*av_range), _axis(*as_range), list(ns)
    base = _problem_params(args, alpha_v=av_values[0], alpha_s=as_values[0])
    # past cell 0 only a coupling fails; in row-major order row 0 is met first, then column 0
    edge = np.array([av_values[:1] * len(as_values) + av_values[1:],
                     as_values + as_values[:1] * (len(av_values) - 1)])
    bad = np.flatnonzero((edge[0] <= 0.0) | (edge[1] < 0.0) | ~np.isfinite(edge).all(axis=0))
    if bad.size:
        _problem_params(args, alpha_v=float(edge[0, bad[0]]), alpha_s=float(edge[1, bad[0]]))
    _write_text(args, _spectrum_text(args, base, av_values, as_values, ns, {
        "alpha_v_values": av_values, "alpha_s_values": as_values, "n_values": ns, "rows_total": total}))
    return 0


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "wavefunction": _cmd_wavefunction,
    "coherent": _cmd_coherent,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    args = _parser().parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        _apply_config(args)
        _fill_defaults(args)
        return _COMMANDS[args.command](args)
    except SupercriticalCoupling as exc:
        print(f"error: supercritical coupling: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, DiracCoulombError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
