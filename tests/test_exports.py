"""Every name a package module lists in ``__all__`` exists, and no helper
is defined twice under one name."""
import ast
import importlib
import pkgutil
from collections import defaultdict

import pytest

import operad_forge

MODULES = [operad_forge] + [
    importlib.import_module(f"operad_forge.{info.name}")
    for info in pkgutil.iter_modules(operad_forge.__path__)
]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")],
    ids=lambda m: m.__name__,
)
def test_all_names_exist(module):
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_no_two_modules_define_one_name():
    """No two package modules define a top-level function or class of the
    same name.  This catches same-name copies of a helper only: a copy under
    another name (as ``endo._picker`` was of ``bv._word_getter``) passes."""
    where = defaultdict(list)
    for module in MODULES:
        with open(module.__file__, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                where[node.name].append(module.__name__)
    assert {name: mods for name, mods in where.items() if len(mods) > 1} == {}
