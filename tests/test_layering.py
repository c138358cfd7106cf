"""Layering rules of the package, checked on its syntax trees.

Every import sits at module level, so the module graph is visible at a
glance.  The one exception is the process pool of the Monte-Carlo
experiment, imported lazily because importing it costs about 10 ms at
start-up.  No box listing calls the oracle, only `cli` and `multivar`
import it, and it imports nothing of the package but `eqparse` and
`intcore`, so `verify` stays an independent check; every box listing reads
the expressions of its family, so a wrong expression shows up in `verify`.
Only `expr` generates code, so a generated listing kernel is built from the
expressions and nowhere else.
Every private top-level function or class is used somewhere in the package,
so no helper outlives its callers, and no module imports another module's
private name, so what one module uses of another is its public surface.
The benchmark's tracer wraps package functions by name, so every name it
lists exists."""

import ast
import importlib
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


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_no_module_imports_a_private_name():
    found = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                found.extend(f"{name}:{node.lineno} {a.name}"
                             for a in node.names if a.name.startswith("_"))
    assert not found, found


def test_no_box_listing_calls_the_oracle():
    # `verify` compares box listings with the oracle, so no family may take
    # its listing from the oracle
    found = []
    for name, tree in _trees().items():
        for func in ast.walk(tree):
            if not (isinstance(func, ast.FunctionDef) and func.name in
                    ("enumerate_box", "box_enumerator")):
                continue
            for node in ast.walk(func):
                ident = (node.id if isinstance(node, ast.Name) else
                         node.attr if isinstance(node, ast.Attribute) else "")
                if ident.startswith("brute_force"):
                    found.append(f"{name}:{node.lineno} {ident}")
    assert not found, found


def test_only_cli_and_multivar_import_the_oracle():
    # `cli` runs it for `oracle` and `verify`; `multivar` only for the
    # ReducedOnly fallback.  A solver that answered from the oracle would
    # make `verify` compare the oracle with itself
    found = []
    for name, tree in _trees().items():
        if name in ("cli.py", "multivar.py"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(part == "oracle" for n in names for part in n.split(".")):
                found.append(f"{name}:{node.lineno}")
    assert not found, found


def test_oracle_imports_only_eqparse_and_intcore():
    # the oracle parses and does integer arithmetic; importing a solver
    # module would let a solver's defect reach both sides of `verify`
    imported = []
    for node in ast.walk(_trees()["oracle.py"]):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "trisolve"):
            module = (node.module or "").removeprefix("trisolve").lstrip(".")
            imported.extend([module] if module else
                            [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            imported.extend(a.name.removeprefix("trisolve.")
                            for a in node.names
                            if a.name.split(".")[0] == "trisolve")
    assert imported and set(imported) <= {"eqparse", "intcore"}, imported


def test_every_box_listing_evaluates_its_expressions():
    # a listing that skips the expressions would list points the family
    # does not produce, and `verify` could not tell
    found = 0
    lazy = []
    for name, tree in _trees().items():
        for func in ast.walk(tree):
            if not (isinstance(func, ast.FunctionDef)
                    and func.name == "box_enumerator"):
                continue
            found += 1
            if not any((isinstance(node, ast.Name) and node.id == "exprs")
                       or (isinstance(node, ast.Attribute)
                           and node.attr == "exprs")
                       for node in ast.walk(func)):
                lazy.append(f"{name}:{func.lineno}")
    assert found and not lazy, lazy


def test_only_expr_generates_code():
    # `expr.listing_kernel` turns a family's expressions into a function; a
    # module that ran code of its own making would bypass the expressions.
    # Methods named like a builtin, such as `Expr.eval`, are not the builtin
    found = []
    for name, tree in _trees().items():
        if name == "expr.py":
            continue
        found.extend(f"{name}:{node.lineno} {node.func.id}"
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Call)
                     and isinstance(node.func, ast.Name)
                     and node.func.id in ("exec", "eval", "compile"))
    assert not found, found


def test_every_private_top_level_definition_is_used():
    trees = _trees()
    refs = []  # (module, line, identifier)
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((name, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((name, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom):
                refs.extend((name, node.lineno, a.name) for a in node.names)
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")):
                continue
            span = range(node.lineno, node.end_lineno + 1)
            if not any(ident == node.name
                       and not (mod == name and line in span)
                       for mod, line, ident in refs):
                unused.append(f"{name}:{node.lineno} {node.name}")
    assert not unused, unused


def test_bench_trace_targets_resolve():
    # bench/tracing.py is read, not imported; a name it wraps that the
    # package no longer has would break traced benchmark runs
    tracing = pathlib.Path(__file__).parents[1] / "bench" / "tracing.py"
    tree = ast.parse(tracing.read_text(encoding="utf-8"))
    targets = next(node.value.elts for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["TARGETS"])
    assert targets
    missing = []
    for entry in targets:
        module, attribute = (ast.literal_eval(e) for e in entry.elts[:2])
        obj = importlib.import_module(f"trisolve.{module}")
        for part in attribute.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"{module}.{attribute}")
    assert not missing, missing
