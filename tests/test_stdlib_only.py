"""The package imports only the standard library and itself."""

import ast
import sys
from pathlib import Path

import policyledger

PACKAGE_DIR = Path(policyledger.__file__).resolve().parent


def _absolute_imports(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_every_module_imports_only_stdlib_or_policyledger():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(modules) >= 10
    outside = {
        f"{path.name}: {name}"
        for path in modules
        for name in _absolute_imports(path)
        if name.split(".")[0] != "policyledger"
        and name.split(".")[0] not in sys.stdlib_module_names
    }
    assert not outside, sorted(outside)


def test_no_module_imports_a_private_stdlib_module():
    # A private module such as _random is an implementation detail of the
    # public one, with no promise of stability across Python versions.
    # __future__ is the public module of compiler directives.
    private = {
        f"{path.name}: {name}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for name in _absolute_imports(path)
        if name.startswith("_") and name != "__future__"
    }
    assert not private, sorted(private)
