import itertools
import random

import pytest
from references import brute_force_naive

from trisolve import oracle
from trisolve.eqparse import Monomial, Polynomial, parse_equation
from trisolve.oracle import BoxTooLarge, brute_force


def test_table1_row_a2():
    run = brute_force(parse_equation("x^4+2*x*y+y^3"), 10)
    assert run.solutions == [(-1, 1), (0, 0), (2, -2)]


def test_icosahedral_box3():
    run = brute_force(parse_equation("x^2+y^3-z^5"), 3)
    sols = set(run.solutions)
    for t in [(0, 0, 0), (1, 0, 1), (-1, 0, 1), (0, 1, 1), (3, -2, 1),
              (-3, -2, 1)]:
        assert t in sols
    for t in sols:
        x, y, z = t
        assert x * x + y**3 - z**5 == 0


def test_xy_zt_box1():
    # exhaustive check of the 81 tuples: xy = 1, zt = 0 gives 2*5 tuples and
    # xy = 0, zt = -1 gives 5*2 more
    run = brute_force(parse_equation("x*y-z*t-1"), 1)
    assert len(run.solutions) == 20
    assert (1, 1, 0, -1) in set(run.solutions)
    assert (1, 1, 0, 0) in set(run.solutions)


def test_residual_pruning_vs_naive():
    rng = random.Random(12)
    for _ in range(50):
        nv = rng.randint(1, 3)
        names = ["x", "y", "z"][:nv]
        terms = []
        for _ in range(rng.randint(1, 4)):
            c = rng.randint(-5, 5)
            if c == 0:
                continue
            body = "".join(f"*{v}^{rng.randint(0, 3)}" for v in names)
            terms.append(f"{c}{body}")
        if not terms:
            continue
        text = terms[0]
        for t in terms[1:]:
            text += ("+" if not t.startswith("-") else "") + t
        poly = parse_equation(text)
        if not poly.monomials or not poly.variables:
            continue
        fast = brute_force(poly, 8).solutions
        slow = brute_force_naive(poly, 8)
        assert fast == sorted(slow), text


def _draw(rng, names):
    """A polynomial over names: a shared-variable trinomial, the zero
    polynomial, a constant, or up to five monomials with exponents <= 4."""
    kind = rng.choice(["shared", "zero", "constant", "mixed", "mixed"])
    if kind == "zero":
        return Polynomial([], names)
    if kind == "constant":
        return Polynomial([Monomial.make(rng.choice([-3, 2, 5]), {})], names)
    count = 3 if kind == "shared" else rng.randint(1, 5)
    shared = rng.choice(names)
    monos = {}
    for _ in range(count):
        exps = {v: rng.choice([0, 0, 1, 2, 3, 4]) for v in names}
        if kind == "shared":
            exps[shared] = rng.randint(1, 4)
        mono = Monomial.make(rng.choice([-6, -3, -2, -1, 1, 1, 2, 4, 5]), exps)
        monos[mono.exps] = monos.get(mono.exps, 0) + mono.coeff
    return Polynomial([Monomial(c, e) for e, c in monos.items() if c], names)


def _residual_sizes(poly, bound):
    """Per point of the swept box, the number of nonzero coefficients of the
    residual in the variable with the fewest distinct exponents (the later
    one on a tie), and that variable's index.  Also the exponent gaps of the
    residuals with two nonzero terms when that variable takes two
    exponents."""
    names = poly.variables
    solved = min(reversed(range(len(names))), key=lambda i: len(
        {m.exp_of(names[i]) for m in poly.monomials}))
    swept = names[:solved] + names[solved + 1:]
    sizes, gaps = set(), set()
    for point in itertools.product(range(-bound, bound + 1),
                                   repeat=len(swept)):
        env = dict(zip(swept, point), **{names[solved]: 1})
        coeffs = {}
        for m in poly.monomials:
            k = m.exp_of(names[solved])
            coeffs[k] = coeffs.get(k, 0) + m.evaluate(env)
        terms = sorted(k for k, c in coeffs.items() if c)
        sizes.add(min(3, len(terms)))
        if len(coeffs) == 2 and len(terms) == 2:
            gaps.add(terms[1] - terms[0])
    return solved, sizes, gaps


def test_sweep_equals_the_full_sweep_on_seeded_polynomials(monkeypatch):
    rng = random.Random(2210)
    sizes, gaps, solved_early, shared, prefixed = set(), set(), 0, 0, 0
    for _ in range(400):
        names = ["x", "y", "z", "t"][:rng.randint(1, 4)]
        poly = _draw(rng, names)
        bound = rng.randint(1, 4)
        truth = sorted(brute_force_naive(poly, bound))
        assert brute_force(poly, bound).solutions == truth, poly
        # with columns of at most 4 points, a swept grid of more takes the
        # outer loop over the leading swept variables
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_COLUMN_CAP", 4)
            assert brute_force(poly, bound).solutions == truth, poly
        prefixed += (2 * bound + 1) ** (len(names) - 1) > 4
        solved, seen, two = _residual_sizes(poly, bound)
        sizes |= seen
        gaps |= two
        solved_early += solved < len(names) - 1
        shared += len(poly.monomials) == 3 and any(
            all(m.exp_of(v) for m in poly.monomials) for v in names)
    # the draws reach every way of solving a residual, and solve for a
    # variable other than the last
    assert sizes == {0, 1, 2, 3}
    assert solved_early >= 20 and shared >= 20
    # one exact division (gap 1), an exact root (gap 2 or more), and the
    # outer loop
    assert 1 in gaps and max(gaps) >= 2
    assert prefixed >= 200


def test_determinism():
    poly = parse_equation("x^2+y^3-z^5")
    a = brute_force(poly, 4).solutions
    b = brute_force(poly, 4).solutions
    assert a == b


def test_identically_zero_residual():
    # x*y = 0 at x=0 leaves the zero polynomial in y: all y qualify
    run = brute_force(parse_equation("x*y"), 2)
    assert (0, -2) in set(run.solutions) and (2, 0) in set(run.solutions)


def test_box_guard():
    poly = parse_equation("x+y+z+t+u^2")
    with pytest.raises(BoxTooLarge):
        brute_force(poly, 200)
