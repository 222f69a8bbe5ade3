"""Source hygiene: every module of the package uses what it imports.

The package's own __init__ is left out: it imports to re-export.
"""

import ast
from pathlib import Path

import pytest

import zpwalk

MODULES = sorted(p for p in Path(zpwalk.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module binds by import and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_sees_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom collections import deque, Counter as C\n"
              "x: C = os.sep\n")
    assert unused_imports(source) == ["deque (line 3)"]


def test_the_package_modules_are_found():
    assert {"decision.py", "dynamics.py", "hypergraph.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
