"""No public API exists only for tests: the README commands (test_golden.py's
README_COMMANDS) enter every function named in a module's ``__all__`` and every
public method of every class named there.  A method is public unless its name
starts with one underscore; dunder methods count.  ALLOWED names each entry no
CLI path enters, with the reason it stays."""

import importlib
import inspect
import sys

from dirac_coulomb import cli
from test_golden import README_COMMANDS
from test_public_surface import MODULES

_TRACER_BOUND = "perfbench's tracer binds it and fails on a missing name; ROADMAP item 11 retires it"
ALLOWED = {
    "algebra.RadialOperator.apply": _TRACER_BOUND,
    "report.SpectrumRecord.to_row": _TRACER_BOUND,
    "radialfn.LaguerreSum.terms": _TRACER_BOUND,
    "verification.coherent_truncated_sum": _TRACER_BOUND,
    "output.emit_csv": _TRACER_BOUND + "; it is also the csv.writer reference the tests hold emit_table to",
    "radialfn.LaguerreSum.__sub__": "RadialOperator.apply uses it",
    "cli.entrypoint": "the console script, which calls cli.main",
}


def _code(value):
    """The code object behind a function, method, property or cached function, else None."""
    if isinstance(value, property):
        value = value.fget
    elif isinstance(value, (staticmethod, classmethod)):
        value = value.__func__
    return getattr(inspect.unwrap(value), "__code__", None) if callable(value) else None


def public_code():
    """{"module.name" or "module.Class.method": code object} of what a module's
    __all__ names, where its source defines it (not dataclass- or Enum-made methods)."""
    found = {}
    for module in MODULES:
        mod = importlib.import_module(f"dirac_coulomb.{module}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            members = ([(f"{name}.{attr}", value) for attr, value in vars(obj).items()
                        if not attr.startswith("_") or (attr.startswith("__") and attr.endswith("__"))]
                       if inspect.isclass(obj) else [(name, obj)])
            for qualname, value in members:
                code = _code(value)
                if code is not None and code.co_filename == mod.__file__:
                    found[f"{module}.{qualname}"] = code
    return found


def test_readme_commands_enter_every_public_function(capsys):
    cli._parser.cache_clear()  # build_parser runs on the first parse of a process
    entered, previous = set(), sys.getprofile()
    sys.setprofile(lambda frame, event, arg: entered.add(frame.f_code) if event == "call" else None)
    try:
        for argv in README_COMMANDS.values():
            cli.main(argv)
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    public = public_code()
    assert sorted(name for name, code in public.items() if code not in entered and name not in ALLOWED) == []
    assert sorted(name for name in ALLOWED if name not in public) == []  # no stale entry
