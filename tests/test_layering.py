"""Every import of the package sits at module level, so the module graph is
visible at a glance.  The one exception is the process pool of the
Monte-Carlo experiment, imported lazily because importing it costs about
10 ms at start-up."""

import ast
import pathlib

import trisolve

PACKAGE = pathlib.Path(trisolve.__file__).parent
LAZY = {"concurrent.futures"}


def _imports_in_functions(tree):
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Import):
                yield node.lineno, [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                yield node.lineno, ["." * node.level + (node.module or "")]


def test_no_imports_inside_function_bodies():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for lineno, names in _imports_in_functions(tree):
            if not set(names) <= LAZY:
                found.append(f"{path.name}:{lineno} {', '.join(names)}")
    assert not found, found
