"""Source hygiene: every module of the package uses every name it imports,
and every function reads every parameter it takes.

A package __init__.py re-exports names on purpose, so the import scan skips
it; the parameter scan reads every module.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "reflect_lab"
SOURCES = sorted(PACKAGE.rglob("*.py"))
MODULES = [path for path in SOURCES if path.name != "__init__.py"]


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


def unread_parameters(source: str) -> list[str]:
    """`function(parameter)` for each parameter a function never reads.

    Methods are left out, since a protocol fixes their signatures, and so is
    a function passed by name to TaskHooks(...), whose record fixes its
    signature.
    """
    tree = ast.parse(source)
    methods = {
        id(stmt) for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for stmt in node.body
    }
    hooked = {
        keyword.value.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "TaskHooks"
        for keyword in node.keywords
        if isinstance(keyword.value, ast.Name)
    }
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if id(node) in methods or node.name in hooked:
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
        read = {
            name.id
            for stmt in node.body
            for name in ast.walk(stmt)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
        }
        unread += [f"{node.name}({param.arg})" for param in params if param.arg not in read]
    return unread


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.relative_to(PACKAGE).as_posix())
def test_every_function_reads_its_parameters(path):
    assert unread_parameters(path.read_text()) == []


def test_the_scan_finds_unread_parameters():
    source = (
        "def f(a, b, *rest, c=1, **extra):\n"
        "    def inner(d):\n"
        "        return a\n"
        "    return rest\n"
        "class Policy:\n"
        "    def sample(self, state, rng):\n"
        "        return state\n"
        "def _check(query, state):\n"
        "    return True\n"
        "record = TaskHooks(check=_check)\n"
    )
    assert unread_parameters(source) == ["f(b)", "f(c)", "f(extra)", "inner(d)"]
