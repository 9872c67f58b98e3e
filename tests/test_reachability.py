"""No public API, option or record field exists only for tests.  One run of the
README commands (test_golden.py's README_COMMANDS) must

- enter every function named in a module's ``__all__`` and every public method
  of every class named there (a method is public unless its name starts with
  one underscore; dunder methods count);
- give every defaulted parameter of those functions and methods, and of the
  constructors dataclass and NamedTuple make for those classes, a value other
  than its default at least once (a parameter that never gets one is a
  constant);
- read every field of every record (dataclass or NamedTuple) named there.

ALLOWED, ALLOWED_OPTIONS and ALLOWED_FIELDS name each exception no CLI path
exercises, with the reason it stays."""

import contextlib
import dataclasses
import importlib
import inspect
import io
import sys

import pytest

from dirac_coulomb import cli
from test_golden import README_COMMANDS
from test_public_surface import MODULES

_TRACER_BOUND = "perfbench's tracer binds it and fails on a missing name; ROADMAP item 11 retires it"
ALLOWED = {
    "algebra.RadialOperator.apply": _TRACER_BOUND,
    "report.SpectrumRecord.to_row": _TRACER_BOUND,
    "radialfn.LaguerreSum.terms": _TRACER_BOUND,
    "verification.coherent_truncated_sum": _TRACER_BOUND,
    "algebra.su11_commutator_report": _TRACER_BOUND + "; it is also the one-family report of the family pass "
                                      "that the tests read, and the only way to reach its fault hook",
    "output.emit_csv": _TRACER_BOUND + "; it is also the csv.writer reference the tests hold emit_table to",
    "cli.entrypoint": "the console script, which calls cli.main",
}
_TRACER_BOUND_CLASS = "the class of a method perfbench's tracer binds (see ALLOWED); ROADMAP item 11 retires it"
ALLOWED_OPTIONS = {
    "algebra.RadialOperator.__init__(centrifugal)": _TRACER_BOUND_CLASS,
    "report.SpectrumRecord.__init__(status)": _TRACER_BOUND_CLASS,
    "algebra.su11_commutator_report(fault_centrifugal)":
        "the fault-injection hook of test_algebra.py and test_jets.py: a monkeypatch cannot fault "
        "the commuted pair alone, and faulting all three operators together still closes su(1,1)",
}
ALLOWED_FIELDS = {
    "algebra.RadialOperator": _TRACER_BOUND_CLASS + "; no CLI path builds one",
    "report.SpectrumRecord": _TRACER_BOUND_CLASS + "; spectrum tables render columns, not records",
}


def _function(value):
    """The function behind a function, method, property or cached function, else None."""
    if isinstance(value, property):
        value = value.fget
    elif isinstance(value, (staticmethod, classmethod)):
        value = value.__func__
    value = inspect.unwrap(value) if callable(value) else None
    return value if hasattr(value, "__code__") else None


def _public_members():
    """(module, "module.name" or "module.Class.member", object) of what each module's __all__ names,
    with the public and dunder members of each class."""
    for module in MODULES:
        mod = importlib.import_module(f"dirac_coulomb.{module}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            yield mod, f"{module}.{name}", obj
            if inspect.isclass(obj):
                for attr, value in vars(obj).items():
                    if not attr.startswith("_") or (attr.startswith("__") and attr.endswith("__")):
                        yield mod, f"{module}.{name}.{attr}", value


def public_code():
    """{"module.name" or "module.Class.method": code object} of what a module's
    __all__ names, where its source defines it (not dataclass- or Enum-made methods)."""
    return {qualname: fn.__code__ for mod, qualname, value in _public_members()
            if (fn := _function(value)) is not None and fn.__code__.co_filename == mod.__file__}


def public_options():
    """{code object: [("module.qualname(parameter)", parameter, default)]} of each defaulted
    parameter of a public function or method, or of a public record's generated constructor."""
    options = {}
    for mod, qualname, value in _public_members():
        fn = _function(value)
        if fn is None or fn.__code__.co_filename not in (mod.__file__, "<string>"):
            continue
        for param in inspect.signature(fn).parameters.values():
            if param.default is not inspect.Parameter.empty:
                options.setdefault(fn.__code__, []).append(
                    (f"{qualname}({param.name})", param.name, param.default))
    return options


def public_records():
    """{"module.Record": (class, field names)} of each dataclass and NamedTuple a module's __all__ names."""
    records = {}
    for _, qualname, obj in _public_members():
        if inspect.isclass(obj) and dataclasses.is_dataclass(obj):
            records[qualname] = obj, tuple(f.name for f in dataclasses.fields(obj))
        elif inspect.isclass(obj) and issubclass(obj, tuple) and hasattr(obj, "_fields"):
            records[qualname] = obj, obj._fields
    return records


def _is_default(value, default) -> bool:
    return value is default or (type(value) is type(default) and bool(value == default))


def _recording_reads(cls, names, reads: set):
    """A __getattribute__ for ``cls`` that adds each field of ``names`` it reads to ``reads``."""
    get = cls.__getattribute__

    def __getattribute__(self, attr):
        if attr in names:
            reads.add(attr)
        return get(self, attr)

    return __getattribute__


@pytest.fixture(scope="module")
def readme_run():
    """(entered code objects, "qualname(parameter)" of each option given a value other
    than its default, {"module.Record": fields read}) over one run of the README commands."""
    options, records, entered, given = public_options(), public_records(), set(), set()
    reads = {qualname: set() for qualname in records}

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)
            for label, name, default in options.get(frame.f_code, ()):
                if not _is_default(frame.f_locals[name], default):
                    given.add(label)

    for qualname, (cls, names) in records.items():
        cls.__getattribute__ = _recording_reads(cls, names, reads[qualname])
    cli._parser.cache_clear()  # build_parser runs on the first parse of a process
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in README_COMMANDS.values():
                cli.main(argv)
    finally:
        sys.setprofile(previous)
        for cls, _ in records.values():
            del cls.__getattribute__
    return entered, given, reads


def test_readme_commands_enter_every_public_function(readme_run):
    entered, _, _ = readme_run
    public = public_code()
    assert sorted(name for name, code in public.items() if code not in entered and name not in ALLOWED) == []
    assert sorted(name for name in ALLOWED if name not in public) == []  # no stale entry


def test_readme_commands_give_every_option_a_value_other_than_its_default(readme_run):
    _, given, _ = readme_run
    labels = {label for entries in public_options().values() for label, _, _ in entries}
    assert sorted(labels - given - set(ALLOWED_OPTIONS)) == []
    assert sorted(label for label in ALLOWED_OPTIONS if label not in labels - given) == []  # no stale entry


def test_readme_commands_read_every_field_of_every_public_record(readme_run):
    _, _, reads = readme_run
    unread = {qualname: sorted(set(names) - reads[qualname]) for qualname, (_, names) in public_records().items()}
    assert {qualname: names for qualname, names in unread.items()
            if names and qualname not in ALLOWED_FIELDS} == {}
    assert sorted(qualname for qualname in ALLOWED_FIELDS if not unread.get(qualname)) == []  # no stale entry
