"""Every exported name resolves, so a deleted function leaves no stale export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import excursions

MODULES = sorted(m.name for m in pkgutil.iter_modules(excursions.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"excursions.{name}")
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_imports_exist_and_are_exported():
    tree = ast.parse(Path(excursions.__file__).read_text())
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert imported
    for module_name, name in imported:
        module = importlib.import_module(f"excursions.{module_name}")
        assert hasattr(module, name), f"{module_name}.{name}"
        assert name in getattr(module, "__all__", (name,)), f"{module_name}.{name}"
        assert getattr(excursions, name) is getattr(module, name)
