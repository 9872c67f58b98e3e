"""The public surface stays consistent: every ``__all__`` name exists, and
the package re-exports only names its modules declare public.  A stale export
then fails here, not later at ``from dirac_coulomb.<module> import *``."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import dirac_coulomb

MODULES = sorted(info.name for info in pkgutil.iter_modules(dirac_coulomb.__path__)
                 if info.name != "__main__")


def reexports():
    """(module, name) of each ``from .module import name`` in the package's __init__.py."""
    tree = ast.parse(Path(dirac_coulomb.__file__).read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_exists(module):
    mod = importlib.import_module(f"dirac_coulomb.{module}")
    assert isinstance(mod.__all__, list)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_package_reexports_only_public_names():
    pairs = reexports()
    assert len(pairs) > 50
    stale = [f"{module}.{name}" for module, name in pairs
             if name not in importlib.import_module(f"dirac_coulomb.{module}").__all__]
    assert stale == []
