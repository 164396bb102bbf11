"""Package surface: every exported name exists, and no module imports a
name that it never uses."""

import ast
import importlib
from pathlib import Path

import pytest

import lrdeconv

PACKAGE = Path(lrdeconv.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", ["__init__"] + MODULES)
def test_all_names_resolve(name):
    module = lrdeconv if name == "__init__" else importlib.import_module(f"lrdeconv.{name}")
    assert [n for n in module.__dict__.get("__all__", []) if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)  # __init__ imports only to re-export
def test_no_unused_module_import(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
