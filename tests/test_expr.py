import random

import pytest

from trisolve import expr as ex


def test_eval_basic():
    e = ex.Add(ex.Mul(ex.const(3), ex.Pow(ex.param("x"), 2)), ex.const(-5))
    assert e.eval({"x": 4}) == 43
    assert ex.Neg(ex.param("x")).eval({"x": 7}) == -7


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
    kind = rng.choice((ex.Add, ex.Mul, ex.Neg, ex.Pow, ex.ExactDiv, ex.Gcd))
    kinds.add(kind.__name__)

    def sub():
        return _random_tree(rng, names, depth - 1, kinds)

    if kind in (ex.Add, ex.Mul):
        return kind(*[sub() for _ in range(rng.randint(1, 4))])
    if kind is ex.Neg:
        return ex.Neg(sub())
    if kind is ex.Pow:
        return ex.Pow(sub(), rng.randint(0, 3))
    return kind(sub(), sub())


def _outcome(fn, env):
    try:
        return fn(env)
    except ex.ExactDivisionError:
        return "raises"


def test_compile_agrees_with_eval_on_random_trees():
    rng = random.Random(2024)
    names = ["a", "b", "c"]
    kinds: set[str] = set()
    outcomes = []
    for _ in range(600):
        tree = _random_tree(rng, names, 4, kinds)
        compiled = tree.compile()
        for _ in range(6):
            env = {n: rng.randint(-3, 3) for n in names}
            expected = _outcome(tree.eval, env)
            assert _outcome(compiled, env) == expected, (str(tree), env)
            outcomes.append(expected)
    assert kinds == {"Const", "Param", "Add", "Mul", "Neg", "Pow",
                     "ExactDiv", "Gcd"}
    # both outcomes are common, so the draws test where compiled trees raise
    assert 0.1 < outcomes.count("raises") / len(outcomes) < 0.9


def test_compile_raises_where_eval_raises():
    a, b = ex.param("a"), ex.param("b")
    cases = [
        ex.ExactDiv(a, ex.const(0)),              # constant zero divisor
        ex.ExactDiv(a, b),                        # zero divisor at b = 0
        ex.Mul(ex.const(0), ex.ExactDiv(a, b)),   # a zero factor still raises
        ex.Pow(ex.ExactDiv(a, b), 0),             # so does a zeroth power
        ex.Add(ex.const(1), ex.ExactDiv(ex.const(3), ex.Neg(b))),
    ]
    for tree in cases:
        for env in ({"a": 5, "b": 0}, {"a": 5, "b": 2}, {"a": 6, "b": 3}):
            assert _outcome(tree.compile(), env) == _outcome(tree.eval, env)
        with pytest.raises(ex.ExactDivisionError):
            tree.compile()({"a": 5, "b": 0})
    # a zeroth power of a division-free base is 1 wherever it is evaluated
    assert ex.Pow(ex.Add(a, b), 0).compile()({"a": 0, "b": 0}) == 1

