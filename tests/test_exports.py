"""Every name a package module lists in ``__all__`` exists, no helper is
defined twice under one name, and no module grows past the compile line."""
import ast
import importlib
import pkgutil
import tokenize
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


def imported_modules(module):
    """The package modules a module's source imports from, anywhere in
    the file: ``from .endo import f``, ``from . import endo`` and their
    absolute forms all name ``operad_forge.endo``."""
    package = operad_forge.__name__
    with open(module.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"{package}.{base}" if base else package
            out.add(base)
            out.update(f"{base}.{alias.name}" for alias in node.names)
    return {name for name in out if name.startswith(package + ".")}


@pytest.mark.parametrize("route, other", [("bv", "endo"), ("endo", "bv")])
def test_the_master_equation_routes_import_nothing_from_each_other(route, other):
    """The bracket and the loop operation are checked against the generic
    residual built on the endomorphism operad, so neither module imports
    the other; they share the kernels instead."""
    module = importlib.import_module(f"operad_forge.{route}")
    imports = imported_modules(module)
    assert f"operad_forge.{other}" not in imports
    assert "operad_forge._kernels" in imports


# Past 8,192 tokens the parser doubles its token array, which shows in the
# peak memory of a process that compiles the package without ``.pyc`` files.
TOKEN_LINE = 8192
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


def parser_tokens(path):
    """The tokens of a source file, leaving out comments, NL and the
    encoding, with each f-string one token as in Python 3.10 and 3.11
    (3.12 splits it into start, middle, end and the expression parts)."""
    start = getattr(tokenize, "FSTRING_START", None)
    end = getattr(tokenize, "FSTRING_END", None)
    count = depth = 0
    with open(path, "rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type == start:
                count += depth == 0
                depth += 1
            elif tok.type == end:
                depth -= 1
            elif not depth and tok.type not in SKIPPED:
                count += 1
    return count


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_stays_under_the_token_line(module):
    assert parser_tokens(module.__file__) <= TOKEN_LINE
