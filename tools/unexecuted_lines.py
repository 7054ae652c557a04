"""List every statement of the package that the tier-1 suite never runs.

Runs tier-1 in this process under a line tracer (`sys.settrace` and
`threading.settrace`, so the engine's worker threads count) and prints each
statement of `src/reflect_lab` that never ran, as `path:line` and the
statement's first line.  `def`/`class` headers are left out, and so are
statements that compile to no code: bare constants (docstrings, `...`),
`try`, `global` and `nonlocal` headers, and a name annotated without a value
inside a function (at module or class level it stores its annotation).  A
statement ran when any line of it ran (for `if`, `for`, `while` and `with`:
any line of its header).
`tests/test_perfbench.py` and `tests/test_scripts.py` are skipped:
their work runs in subprocesses, which the tracer cannot see.  Exits with
pytest's status.  Tracing makes the suite about twice as slow.  Extra
arguments go to pytest, so a narrower run lists more lines.

    python3 tools/unexecuted_lines.py
"""

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "reflect_lab")
SKIPPED = ("tests/test_perfbench.py", "tests/test_scripts.py")
NO_CODE = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Try, ast.Global, ast.Nonlocal)
HEADED = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith)


def _is_constant(node: ast.stmt) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)


def _is_declaration(node: ast.stmt) -> bool:
    """A name annotated without a value: in a function it compiles to nothing."""
    return (
        isinstance(node, ast.AnnAssign)
        and node.value is None
        and isinstance(node.target, ast.Name)
    )


def statements(source: str) -> list[tuple[int, int]]:
    """(first line, last line) of each statement that has code of its own."""
    spans = []
    # Each node with whether it lies in a function's scope.
    stack = [(ast.parse(source), False)]
    while stack:
        node, local = stack.pop()
        for name in ("body", "orelse", "finalbody"):
            block = getattr(node, name, None)
            if not isinstance(block, list):
                continue
            for stmt in block:
                if isinstance(stmt, NO_CODE) or _is_constant(stmt):
                    continue
                if local and _is_declaration(stmt):
                    continue
                last = stmt.body[0].lineno - 1 if isinstance(stmt, HEADED) else stmt.end_lineno
                spans.append((stmt.lineno, max(stmt.lineno, last)))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.append((child, True))
            else:
                stack.append((child, local and not isinstance(child, ast.ClassDef)))
    return sorted(set(spans))


def _line_tracer(lines: set[int]):
    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def main() -> int:
    ran: dict[str, set[int]] = {}
    # One line tracer a file, made once: a tracer made per call would leave
    # a reference cycle per call (it returns itself), which a tier-1 test of
    # the package's own cycles would count.
    tracers = {}

    def tracer(frame, event, arg):
        path = frame.f_code.co_filename
        if path not in tracers:
            tracers[path] = (
                _line_tracer(ran.setdefault(path, set())) if path.startswith(PACKAGE) else None
            )
        return tracers[path]

    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(
            ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
            + [f"--ignore={path}" for path in SKIPPED]
            + sys.argv[1:]
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)

    paths = sorted(
        os.path.join(folder, name)
        for folder, _, names in os.walk(PACKAGE)
        for name in names
        if name.endswith(".py")
    )
    missed = 0
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        text = source.splitlines()
        lines = ran.get(path, set())
        for first, last in statements(source):
            if not any(line in lines for line in range(first, last + 1)):
                missed += 1
                print(f"{os.path.relpath(path, ROOT)}:{first}: {text[first - 1].strip()}")
    print(f"{missed} statements never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
