import copy
import itertools
import random

import pytest

from trisolve import expr as ex


def test_eval_basic():
    e = ex.Add(ex.Mul(ex.const(3), ex.Pow(ex.param("x"), 2)), ex.const(-5))
    assert e.eval({"x": 4}) == 43
    assert ex.Mul(ex.const(-1), ex.param("x")).eval({"x": 7}) == -7


def test_exact_division():
    e = ex.ExactDiv(ex.param("a"), ex.param("b"))
    assert e.eval({"a": 12, "b": 3}) == 4
    with pytest.raises(ex.ExactDivisionError):
        e.eval({"a": 7, "b": 3})
    with pytest.raises(ex.ExactDivisionError):
        e.eval({"a": 7, "b": 0})


def test_gcd_node():
    e = ex.Gcd(ex.param("a"), ex.param("b"))
    assert e.eval({"a": 12, "b": -18}) == 6
    assert e.eval({"a": 0, "b": 5}) == 5


def test_monomial_expr_rendering():
    e = ex.monomial_expr(-2, [("x", 3), ("y", 1)])
    assert e.eval({"x": 2, "y": 5}) == -80
    s = str(e)
    assert "x^3" in s and "y" in s


def test_strings_are_reparseable_shapes():
    e = ex.ExactDiv(
        ex.Add(ex.Pow(ex.param("u"), 3), ex.const(-1)),
        ex.Pow(ex.param("v"), 3))
    assert str(e) == "((u^3-1))/(v^3)"


def _random_tree(rng, names, depth, kinds):
    """A seeded random tree over every node kind; `kinds` collects the kinds
    drawn."""
    if depth == 0 or rng.random() < 0.2:
        leaf = (ex.const(rng.randint(-3, 3)) if rng.random() < 0.4
                else ex.param(rng.choice(names)))
        kinds.add(type(leaf).__name__)
        return leaf
    kind = rng.choice((ex.Add, ex.Mul, ex.Pow, ex.ExactDiv, ex.Gcd))
    kinds.add(kind.__name__)

    def sub():
        return _random_tree(rng, names, depth - 1, kinds)

    if kind in (ex.Add, ex.Mul):
        return kind(*[sub() for _ in range(rng.randint(1, 4))])
    if kind is ex.Pow:
        return ex.Pow(sub(), rng.randint(0, 3))
    return kind(sub(), sub())


def _eval_listing(params, lets, exprs, nonzero, points):
    """Reference: the tuples of `eval` at each candidate, leaving out those
    with a zero at a nonzero position and those where evaluation raises."""
    out = set()
    for point in points:
        if not all(point[i] for i in nonzero):
            continue
        env = dict(zip(params, point))
        try:
            for name, tree in lets.items():
                env[name] = tree.eval(env)
            out.add(tuple(tree.eval(env) for tree in exprs))
        except ex.ExactDivisionError:
            continue
    return out


def test_listing_kernel_equals_eval_on_random_trees():
    # shared subtrees enter both as one object in several places and as
    # equal copies; the let "w" stands for a tree as the divisor families'
    # witness value does
    rng = random.Random(39)
    params = ["a", "b", "c"]
    points = list(itertools.product(range(-2, 3), repeat=3))
    kinds: set[str] = set()
    kept = raised = 0
    for _ in range(300):
        shared = _random_tree(rng, params, 3, kinds)
        lets = {"w": _random_tree(rng, params, 2, kinds)}
        exprs = []
        for _ in range(rng.randint(1, 3)):
            tree = _random_tree(rng, params + ["w"], 3, kinds)
            exprs.append(rng.choice((
                tree, ex.Mul(shared, tree),
                ex.Add(tree, copy.deepcopy(shared)),
                ex.ExactDiv(tree, ex.Pow(shared, rng.randint(0, 2))))))
        nonzero = sorted(rng.sample(range(3), rng.randint(0, 2)))
        expected = _eval_listing(params, lets, exprs, nonzero, points)
        kernel = ex.listing_kernel(params, lets, exprs, nonzero)
        assert kernel(points) == expected, ([str(e) for e in exprs],
                                            str(lets["w"]), nonzero)
        kept += bool(expected)
        raised += not _eval_listing(params, lets, exprs, [], points[:1])
    assert kinds == {"Const", "Param", "Add", "Mul", "Pow", "ExactDiv",
                     "Gcd"}
    assert kept > 100 and raised > 30


def test_listing_kernel_skips_where_eval_raises():
    a, b = ex.param("a"), ex.param("b")
    points = [(5, 0), (5, 2), (6, 3), (0, 4)]
    cases = [
        ex.ExactDiv(a, ex.const(0)),              # constant zero divisor
        ex.ExactDiv(a, b),                        # zero divisor at b = 0
        ex.Mul(ex.const(0), ex.ExactDiv(a, b)),   # a zero factor still raises
        ex.Pow(ex.ExactDiv(a, b), 0),             # so does a zeroth power
        ex.Add(ex.const(1),
               ex.ExactDiv(ex.const(3), ex.Mul(ex.const(-1), b))),
        ex.Pow(ex.Add(a, b), 0),                  # 1 wherever evaluated
    ]
    for tree in cases[:-1]:
        with pytest.raises(ex.ExactDivisionError):
            tree.eval({"a": 5, "b": 0})
    assert cases[-1].eval({"a": 0, "b": 0}) == 1
    for tree in cases:
        for nonzero in ([], [0], [1]):
            kernel = ex.listing_kernel(["a", "b"], {}, [tree, b], nonzero)
            assert kernel(points) == _eval_listing(["a", "b"], {}, [tree, b],
                                                   nonzero, points), str(tree)
    # a let that raises skips the candidate even where no expression uses it
    kernel = ex.listing_kernel(["a", "b"], {"w": ex.ExactDiv(a, b)}, [a], [])
    assert kernel(points) == {(6,), (0,)}
