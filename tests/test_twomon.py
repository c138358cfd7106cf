import itertools
import random
from fractions import Fraction
from math import gcd

from trisolve.eqparse import Monomial, Polynomial, parse_equation
from trisolve.intcore import exact_roots
from trisolve.oracle import brute_force
from trisolve.twomon import (
    power_fiber,
    solve_power_product,
    solve_two_monomial,
)


def test_divisor_enumeration():
    s = solve_two_monomial(parse_equation("x^2*y^3 = 72"))
    assert s.finite == {(3, 2), (-3, 2)}
    assert not s.families


def test_root_criterion_empty():
    s = solve_two_monomial(parse_equation("x^2 = 2*y^2"))
    assert s.is_empty_claim()


def test_even_root_both_signs():
    p = parse_equation("x^2 = 4*y^4")
    s = solve_two_monomial(p)
    pts, exact = s.enumerate_box(30)
    assert exact
    truth = set(brute_force(p, 30).solutions)
    assert set(pts) == {t for t in truth if all(x != 0 for x in t)}
    assert (2, 1) in set(pts) and (-2, 1) in set(pts)


def test_mixed_family_witness():
    p = parse_equation("x^3 = 2*y")
    s = solve_two_monomial(p)
    fam = s.families[0]
    sol = (2, 4)
    env = fam.witness(sol)
    assert env is not None and fam.evaluate(env) == sol


def test_random_against_oracle():
    # fifty random two-monomial equations, box 30
    rng = random.Random(99)
    checked = 0
    while checked < 50:
        nv = rng.randint(1, 3)
        names = ["x", "y", "z"][:nv]
        a1 = [rng.randint(0, 3) for _ in names]
        a2 = [rng.randint(0, 3) for _ in names]
        if all(p == q for p, q in zip(a1, a2)):
            continue
        c1 = rng.choice([1, 2, 3, -1, -2])
        c2 = rng.choice([1, 2, 4, 8, 72, -2, -72])
        t1 = str(c1) + "".join(f"*{v}^{e}" for v, e in zip(names, a1))
        t2 = str(c2) + "".join(f"*{v}^{e}" for v, e in zip(names, a2))
        text = t1 + ("+" if not t2.startswith("-") else "") + t2
        poly = parse_equation(text)
        if len(poly.monomials) != 2:
            continue
        checked += 1
        s = solve_two_monomial(poly)
        pts, exact = s.enumerate_box(30)
        assert exact
        truth = set(brute_force(poly, 30).solutions)
        got = set(pts)
        assert got <= truth, (text, sorted(got - truth)[:3])
        nonzero_truth = {t for t in truth if all(x != 0 for x in t)}
        assert nonzero_truth <= got, (text, sorted(nonzero_truth - got)[:3])


def test_power_product_direct():
    s = solve_power_product([2, -4], Fraction(4), ["x", "y"])
    pts, _ = s.enumerate_box(15)
    for (x, y) in pts:
        assert x * x == 4 * y**4
    assert (8, 2) in set(pts)


def _fraction_power_fiber(exps, target, bound):
    """Reference: the signed tuples with prod x^exps == target and
    |x| <= bound, by a sweep of every nonzero value in Fraction
    arithmetic."""
    out = []
    j = max(range(len(exps)), key=lambda i: abs(exps[i]))
    others = [i for i in range(len(exps)) if i != j]
    nz = [v for v in range(-bound, bound + 1) if v != 0]
    for combo in itertools.product(nz, repeat=len(others)):
        lhs = target
        for i, v in zip(others, combo):
            lhs /= Fraction(v) ** exps[i]
        if exps[j] < 0:
            lhs = 1 / lhs
        if lhs.denominator != 1:
            continue
        for rt in exact_roots(lhs.numerator, abs(exps[j])):
            if rt == 0 or abs(rt) > bound:
                continue
            tup = [0] * len(exps)
            for i, v in zip(others, combo):
                tup[i] = v
            tup[j] = rt
            out.append(tuple(tup))
    return out


def _mixed_exponents(rng, nv, scale=1):
    while True:
        exps = [scale * rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(nv)]
        if min(exps) < 0 < max(exps):
            return exps


def _value_at(exps, point):
    val = Fraction(1)
    for e, x in zip(exps, point):
        val *= Fraction(x) ** e
    return val


def test_power_fiber_is_the_magnitudes_of_the_signed_fiber():
    rng = random.Random(5)
    hits = 0
    for _ in range(2000):
        nv = rng.randint(2, 3)
        exps = _mixed_exponents(rng, nv, rng.choice((1, 1, 2)))
        bound = rng.randint(1, 6)
        # half the targets are the value at a point, so fibers are not empty
        if rng.random() < 0.5:
            target = _value_at(exps, [rng.choice((-1, 1)) * rng.randint(1, 6)
                                      for _ in exps])
        else:
            target = Fraction(rng.choice((-1, 1)) * rng.randint(1, 64),
                              rng.randint(1, 8))
        got = power_fiber(exps, target.numerator, target.denominator, bound)
        assert len(got) == len(set(got))
        want = {tuple(map(abs, t))
                for t in _fraction_power_fiber(exps, target, bound)}
        assert set(got) == want, (exps, target, bound)
        hits += bool(want)
    assert hits > 500


def test_power_product_listing_matches_brute_force():
    # mixed-sign exponents with odd and even gcd d and negative roots: the
    # box listing expands each fiber magnitude into the sign vectors whose
    # product has the root's sign, and must find every nonzero box solution
    rng = random.Random(17)
    names = ["x", "y", "z"]
    gcds = set()
    negative_odd_roots = 0
    for _ in range(200):
        nv = rng.randint(2, 3)
        exps = _mixed_exponents(rng, nv, rng.choice((1, 2, 3)))
        d = gcd(*exps)
        gcds.add(d % 2)
        target = _value_at(exps, [rng.choice((-1, 1)) * rng.randint(1, 4)
                                  for _ in exps])
        target *= Fraction(rng.choice((-1, 1, 1, 2)), rng.choice((1, 1, 3)))
        negative_odd_roots += d % 2 == 1 and target < 0
        variables = names[:nv]
        lhs = tuple((v, e) for v, e in zip(variables, exps) if e > 0)
        rhs = tuple((v, -e) for v, e in zip(variables, exps) if e < 0)
        poly = Polynomial([Monomial(target.denominator, lhs),
                           Monomial(-target.numerator, rhs)], variables)
        sols = solve_power_product(exps, target, variables, equation=poly)
        pts, exact = sols.enumerate_box(12)
        assert exact
        truth = {t for t in brute_force(poly, 12).solutions if 0 not in t}
        assert set(pts) == truth, (exps, target)
    assert gcds == {0, 1} and negative_odd_roots > 20
