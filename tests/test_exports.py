"""Every name a package module lists in ``__all__`` exists."""
import importlib
import pkgutil

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
