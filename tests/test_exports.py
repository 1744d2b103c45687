"""Every exported name resolves, so a deleted function leaves no stale export,
and each name has one import path, through its submodule."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import excursions

MODULES = sorted(m.name for m in pkgutil.iter_modules(excursions.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"excursions.{name}")
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


def _modules_loaded_by(statement: str) -> set[str]:
    # sys.modules after `statement` in a fresh interpreter
    src = str(Path(excursions.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", f"import sys\n{statement}\nprint(*sys.modules)"],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=path))
    return set(out.stdout.split())


def test_the_package_root_loads_no_module():
    loaded = _modules_loaded_by("import excursions")
    assert "excursions" in loaded
    assert sorted(m for m in loaded if m.startswith("excursions.")) == []
    assert "numpy" not in loaded


def test_a_submodule_loads_only_what_it_imports():
    loaded = _modules_loaded_by("import excursions.switchproc")
    assert "excursions.switchproc" in loaded
    unused = {f"excursions.{m}" for m in ("gpsim", "iia", "slepian", "persistency",
                                          "clipped")} | {"concurrent.futures"}
    assert sorted(unused & loaded) == []


def _scipy_imports():
    """``(where, module, names)`` of every scipy import in the package's sources,
    ``where`` being the dotted path of the enclosing function, or the module."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
            elif isinstance(child, ast.Import):
                found.update((where, a.name, ()) for a in child.names
                             if a.name.split(".")[0] == "scipy")
            elif isinstance(child, ast.ImportFrom):
                if (child.module or "").split(".")[0] == "scipy":
                    found.add((where, child.module, tuple(a.name for a in child.names)))
            else:
                visit(child, where)

    for path in Path(excursions.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem)
    return found


def test_scipy_is_imported_only_inside_the_functions_that_call_it():
    assert _scipy_imports() == {
        ("numerics.b_integral", "scipy.special", ("owens_t",)),
        ("numerics.numerical_laplace", "scipy.integrate", ("simpson", "trapezoid")),
        ("switchproc.erlang_interval.cdf", "scipy.special", ("gammainc",)),
        ("switchproc.erlang_interval.delay_cdf", "scipy.special", ("gammainc",)),
    }
