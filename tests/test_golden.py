"""Golden corpus: the `solve --json` output of a fixed list of equations,
with `elapsed_ms` removed, compared byte for byte.  Together the entries
reach every path string `solve` can put in its report.

Regenerate the files after an intended change of output, and name every
changed entry and its reason in CHANGES.md; the command prints the name of
each entry whose file it changed:

    PYTHONPATH=src python tests/test_golden.py --regenerate
"""

import ast
import contextlib
import gc
import io
import json
import os
import sys

import pytest

from trisolve import expr as ex, multivar, twovar
from trisolve.cli import build_parser, main
from trisolve.eqparse import parse_equation
from trisolve.oracle import brute_force
from trisolve.solset import (DivisorSet, MappedFamily, SolutionFamily,
                             verify_against_oracle)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# (entry name, solve arguments).  Lower bounds keep the bounded
# base-equation searches fast; a budget of 1 makes the
# sufficient-condition decision give up (`feasibility-unknown`).
CASES = [
    ("zero-x", ["x - x = 0"]),
    ("zero-xy", ["x*y = y*x"]),
    ("zero-constant", ["3 = 3"]),
    ("constant", ["5 = 0"]),
    ("one-monomial-2var", ["3*x^2*y = 0"]),
    ("one-monomial-3var", ["x*y*z = 0"]),
    ("univariate-cubic", ["x^3 - 6*x^2 + 11*x - 6 = 0"]),
    ("univariate-rational", ["2*x^2 - 3*x + 1 = 0"]),
    ("univariate-none", ["x^2 + 1 = 0"]),
    ("univariate-trinomial", ["x^4 + x + 3 = 0"]),
    ("two-monomial-mixed", ["x^2*y - z^3 = 0"]),
    ("two-monomial-irrational", ["x^2 - 2*y^2 = 0"]),
    ("two-monomial-4var", ["x*y + z*t = 0"]),
    ("two-monomial-finite", ["x^2*y^2 = 4"]),
    ("two-monomial-power", ["2*x^3 = 16*y^6"]),
    ("two-monomial-4var-powers", ["x^3*y = z^2*t^4"]),
    ("base-quartic", ["x^4 + 2*y^3 + 7 = 0"]),
    ("base-mordell", ["y^2 - x^3 - 2 = 0"]),
    ("base-linear", ["3*y = 2*x^2 + 1"]),
    ("base-linear-gcd-cubic", ["6*y = 4*x^3 + 2"]),
    ("base-linear-gcd-line", ["4*y = 6*x + 2"]),
    ("base-linear-gcd-quadratic", ["10*y = 4*x^2 + 6"]),
    ("base-linear-gcd-unsolvable", ["4*y = 6*x + 3"]),
    ("base-pell", ["x^2 - 2*y^2 - 1 = 0"]),
    ("base-circle", ["x^2 + y^2 - 25 = 0"]),
    ("base-factorable-quadratic", ["x^2 - 4*y^2 - 5 = 0"]),
    ("base-thue-quintic", ["x^5 - 4*y^5 - 1 = 0", "-B", "200"]),
    ("base-bennett", ["x^3 + y^3 = 2"]),
    ("divisor-branch-form", ["x^2*y + x + 5 = 0"]),
    ("divisor-branch-const", ["x*y + 2*y + 3 = 0"]),
    ("divisor-branch-powers", ["x^2*y^3 + x*y + 6 = 0"]),
    ("strict-masser", ["x^4 + 2*x*y + y^3 = 0", "-B", "300"]),
    ("strict-quintic", ["x^5 + x*y + y^2 = 0", "-B", "300"]),
    ("strict-families", ["x^3 + 6*x*y + y^2 = 0", "-B", "300"]),
    ("equality-definite", ["x^2 + x*y + y^2 = 0"]),
    ("equality-lines", ["x^2 - 3*x*y + 2*y^2 = 0"]),
    ("equality-parabolas", ["x^4 - 5*x^2*y + 4*y^2 = 0"]),
    ("runge-cubic", ["x^3*y + y^2 + x = 0", "-B", "100"]),
    ("runge-hyperbola", ["x*y + x + y = 0", "-B", "100"]),
    ("direct-cyclic", ["x*y + y*z + z*x = 0"]),
    ("direct-icosahedral", ["x^2 + y^3 = z^5"]),
    ("direct-mixed", ["x*y^2 = z^3 + z^2*x"]),
    ("sufficient-xy-zt", ["x*y - z*t - 1 = 0"]),
    ("sufficient-x2y", ["x^2*y - z^2 - 1 = 0"]),
    ("sufficient-xyz", ["x*y*z - x - y = 0"]),
    ("sufficient-coeffs", ["2*x*y + 3*z*t = 5"]),
    ("reduction-cubes", ["3*x^3 + 4*y^3 + 5*z^3 = 0"]),
    ("reduction-linear-block", ["x + x^2*y - y*z^2 = 0"]),
    ("reduction-blocks", ["x^2*y^4 + z^6 = 5"]),
    ("reduction-blocks-quartic", ["x^2*y^2 + z^4 = 2"]),
    ("reduction-fermat", ["x^3 + y^3 + z^3 = 0", "--budget", "1"]),
    ("reduction-mixed", ["x^2*y^3 + y*z^4 + z^2*x^5 = 0", "--budget", "3"]),
    ("unknown-3var", ["y^5 + x^61*z^41 - z^40 = 0", "--budget", "1"]),
    ("unknown-4var", ["x^9 + t^22 - z^45*t^24 = 0", "--budget", "1"]),
]


def render(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["solve", *argv, "--json"]) == 0
    payload = json.loads(out.getvalue())
    del payload["elapsed_ms"]
    return json.dumps(payload, indent=2) + "\n"


def path_of(name: str) -> str:
    return os.path.join(GOLDEN, f"{name}.json")


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_golden(name, argv):
    with open(path_of(name), encoding="utf-8") as fh:
        expected = fh.read()
    assert render(argv) == expected


# verify box by number of variables; the oracle scans (2*box + 1)^n points
VERIFY_BOX = {0: 3, 1: 10, 2: 10, 3: 5, 4: 3}


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_answer_verifies(name, argv):
    # a regenerated entry pins whatever the code gives, so every entry must
    # also be sound and complete in a box, with its own -B and --budget
    box = VERIFY_BOX[len(parse_equation(argv[0]).variables)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", *argv, "--box", str(box), "--json"])
    assert code == 0, out.getvalue()


def test_solve_and_verify_leave_no_cyclic_garbage():
    # the n-variable and two-variable routes build no reference cycles, so
    # the cyclic collector has nothing to do inside an operation
    entries = []
    for name, argv in CASES:
        with open(path_of(name), encoding="utf-8") as fh:
            path = json.load(fh)["path"]
        if "n-variable" in path or "two-variable" in path:
            args = build_parser().parse_args(["solve", *argv])
            poly = parse_equation(args.equation)
            entries.append((args, poly, VERIFY_BOX[len(poly.variables)]))
    assert len(entries) >= 30
    gc.collect()
    gc.disable()
    try:
        for args, poly, box in entries:
            report = multivar.solve(args.equation, bound=args.bound,
                                    budget=args.budget)
            verify_against_oracle(report.solutions, poly,
                                  brute_force(poly, box).solutions, box)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_golden_covers_every_reachable_path():
    paths = set()
    for name, _ in CASES:
        with open(path_of(name), encoding="utf-8") as fh:
            paths.update(json.load(fh)["path"])
    assert paths == {
        "identically-zero", "constant", "one-monomial", "univariate",
        "two-monomial", "two-variable", "divisor-branch", "strict",
        "equality", "runge", "base-equation", "n-variable",
        "direct-formula", "sufficient-condition", "reduction",
        "feasibility-unknown"}


def _path_strings(module) -> set[str]:
    """String literals the module puts into a list named `path`:
    `path.append(...)`, `path.extend(...)` and `path = ...`."""
    with open(module.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    sources = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "path"
                and node.func.attr in ("append", "extend")):
            sources.extend(node.args)
        elif (isinstance(node, (ast.Assign, ast.AnnAssign))
              and node.value is not None
              and any(isinstance(t, ast.Name) and t.id == "path"
                      for t in (node.targets if isinstance(node, ast.Assign)
                                else [node.target]))):
            sources.append(node.value)
    return {leaf.value for src in sources for leaf in ast.walk(src)
            if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)}


def test_every_path_string_in_the_source_is_reached():
    reached = set()
    for name, _ in CASES:
        with open(path_of(name), encoding="utf-8") as fh:
            reached.update(json.load(fh)["path"])
    assert _path_strings(twovar) | _path_strings(multivar) == reached


def _node_kinds(expr) -> set[type]:
    kinds = {type(expr)}
    for value in vars(expr).values():
        for child in value if isinstance(value, tuple) else [value]:
            if isinstance(child, ex.Expr):
                kinds |= _node_kinds(child)
    return kinds


def _expression_kinds(solset) -> set[type]:
    """The node kinds in the expressions and divisor domains of every
    expression family of solset, inner sets of mapped families included."""
    kinds = set()
    for fam in solset.families:
        if isinstance(fam, MappedFamily):
            kinds |= _expression_kinds(fam.inner)
        elif isinstance(fam, SolutionFamily):
            trees = [*fam.exprs.values(),
                     *(d.of for _, d in fam.params
                       if isinstance(d, DivisorSet))]
            for tree in trees:
                kinds |= _node_kinds(tree)
    return kinds


def test_every_expression_node_kind_is_built():
    # a node kind no answer builds is code that only its own tests run
    reached = set()
    for _, argv in CASES:
        args = build_parser().parse_args(["solve", *argv])
        report = multivar.solve(args.equation, bound=args.bound,
                                budget=args.budget)
        reached |= _expression_kinds(report.solutions)
    defined = {kind for kind in vars(ex).values()
               if isinstance(kind, type) and issubclass(kind, ex.Expr)
               and kind is not ex.Expr}
    assert reached == defined, sorted(k.__name__ for k in reached ^ defined)


# Entries whose answers hold a family with its own box listing: the direct
# formula and the power-product families.
OWN_LISTINGS = ["direct-cyclic", "direct-icosahedral", "direct-mixed",
                "two-monomial-mixed", "two-monomial-4var",
                "two-monomial-power", "two-monomial-4var-powers",
                "equality-lines", "equality-parabolas"]


def _own_listings(solset):
    for fam in solset.families:
        if isinstance(fam, MappedFamily):
            yield from _own_listings(fam.inner)
        elif getattr(fam, "box_enumerator", None) is not None:
            yield fam


@pytest.mark.parametrize("name", OWN_LISTINGS)
def test_verify_sees_a_wrong_expression(name):
    # a family with its own box listing must list the values of its
    # expressions, so moving one coordinate expression must move its points
    # off the solutions or out of the listing; 6 is the least box in which
    # direct-mixed has a solution without a zero coordinate
    text, box = dict(CASES)[name][0], 6
    poly = parse_equation(text)
    truth = brute_force(poly, box).solutions
    count = len(list(_own_listings(multivar.solve(text).solutions)))
    assert count
    for index in range(count):
        solutions = multivar.solve(text).solutions
        fam = list(_own_listings(solutions))[index]
        v = fam.variables[0]
        fam.exprs[v] = ex.Add(ex.Mul(ex.const(2), fam.exprs[v]), ex.const(1))
        ver = verify_against_oracle(solutions, poly, truth, box)
        assert not (ver.sound and ver.complete_in_box), (name, fam.note)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py "
                 "--regenerate")
    os.makedirs(GOLDEN, exist_ok=True)
    for name, argv in CASES:
        text = render(argv)
        if os.path.exists(path_of(name)):
            with open(path_of(name), encoding="utf-8") as fh:
                if fh.read() == text:
                    continue
        with open(path_of(name), "w", encoding="utf-8") as fh:
            fh.write(text)
        print(name)
