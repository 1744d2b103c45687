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


def _nodes():
    """``(where, node)`` for every node of the package's sources, ``where``
    being the dotted path of the enclosing function or class, or the module."""
    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, f"{where}.{child.name}")
            else:
                yield where, child
                yield from visit(child, where)

    for path in Path(excursions.__file__).parent.glob("*.py"):
        yield from visit(ast.parse(path.read_text()), path.stem)


def _scipy_imports():
    """``(where, module, names)`` of every scipy import in the package's sources."""
    found = set()
    for where, node in _nodes():
        if isinstance(node, ast.Import):
            found.update((where, a.name, ()) for a in node.names
                         if a.name.split(".")[0] == "scipy")
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "scipy":
                found.add((where, node.module, tuple(a.name for a in node.names)))
    return found


def test_scipy_is_imported_only_inside_the_functions_that_call_it():
    assert _scipy_imports() == {
        ("numerics.b_integral", "scipy.special", ("owens_t",)),
        ("numerics.numerical_laplace", "scipy.integrate", ("simpson", "trapezoid")),
        ("switchproc.erlang_interval.cdf", "scipy.special", ("gammainc",)),
        ("switchproc.erlang_interval.delay_cdf", "scipy.special", ("gammainc",)),
    }


_BLAS_FUNCTIONS = {"dot", "vdot", "inner", "matmul", "tensordot"}


def _blas_calls():
    """``(where, call)`` of every BLAS-backed call in the package's sources: a
    ``numpy.linalg`` function, the ``@`` operator, or a dot, inner or matrix
    product, as a numpy function or a method."""
    found = set()
    for where, node in _nodes():
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.add((where, "@"))
        elif isinstance(node, ast.Call):
            name = ast.unparse(node.func)
            last = name.rsplit(".", 1)[-1]
            if name.startswith(("np.linalg.", "numpy.linalg.")):
                found.add((where, name))
            elif last in _BLAS_FUNCTIONS:
                found.add((where, name if name.startswith(("np.", "numpy.")) else f".{last}"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            # a name imported from numpy would be called bare
            found.update((where, f"from {node.module} import {a.name}") for a in node.names
                         if node.module == "numpy.linalg" or a.name in _BLAS_FUNCTIONS)
    return found


def test_blas_is_called_only_where_it_is_pinned():
    # a BLAS call wakes BLAS's own threads, which spin on after it returns
    # beside the replicate pool's threads; the trajectory, law and fit paths
    # (gpsim, iia, persistency, numerics) make none
    assert _blas_calls() == {
        ("slepian.sample_slepian_path", "np.linalg.cholesky"),
        ("slepian.sample_slepian_path", "@"),
        ("switchproc.estimate_characteristics", "@"),
    }
