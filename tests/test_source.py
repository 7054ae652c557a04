"""Source hygiene: every module of the package uses every name it imports.

A package __init__.py re-exports names on purpose, so it is not scanned.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "reflect_lab"
MODULES = sorted(path for path in PACKAGE.rglob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names a module binds by import and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.relative_to(PACKAGE).as_posix())
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Iterator, Optional\n"
        "def f(x: Optional[int]) -> None:\n"
        "    return np.zeros(x)\n"
    )
    assert unused_imports(source) == ["Iterator", "os"]
    assert MODULES and all(path.name != "__init__.py" for path in MODULES)
