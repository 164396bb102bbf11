"""Package surface: every exported name exists, no module imports a name
that it never uses, and every module imports only the standard library, the
package itself and the runtime dependencies that pyproject.toml declares."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import lrdeconv

PACKAGE = Path(lrdeconv.__file__).parent
PYPROJECT = PACKAGE.parent.parent / "pyproject.toml"
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


@pytest.mark.skipif(sys.version_info < (3, 11), reason="reading pyproject.toml needs tomllib")
@pytest.mark.parametrize("name", ["__init__"] + MODULES)
def test_imports_are_stdlib_or_declared_dependencies(name):
    import tomllib

    import_names = {"PyYAML": "yaml"}  # distribution name -> import name
    with open(PYPROJECT, "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    declared = {import_names.get(dist, dist.lower().replace("-", "_"))
                for dist in (re.match(r"[A-Za-z0-9_.-]+", r).group() for r in requirements)}
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 0}
    allowed = set(sys.stdlib_module_names) | {"lrdeconv"} | declared
    assert sorted(m for m in modules if m.split(".")[0] not in allowed) == []
