"""Complete solver for two-monomial equations a*prod(x^alpha) = b*prod(x^gamma).

Same-signed exponent differences give finite divisor enumerations; mixed
signs give the d-th-root criterion and an explicit parametric family with a
witness, mirroring the direct formula for three monomials.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from . import expr as ex
from .eqparse import Polynomial
from .intcore import divisors_k, exact_roots, rational_root_d
from .lindioph import solve_monoid_target_2d
from .solset import (
    COMPLETE,
    AllIntegers,
    DivisorSet,
    NonzeroIntegers,
    SolutionFamily,
    SolutionSet,
)


def solve_two_monomial(poly: Polynomial) -> SolutionSet:
    """All solutions with every variable nonzero, as a complete SolutionSet.

    The input polynomial must have exactly two monomials (read as
    m1 + m2 = 0).  Solutions where some variable vanishes are the caller's
    business (they depend on the uncancelled equation).
    """
    if len(poly.monomials) != 2:
        raise ValueError("expected exactly two monomials")
    m1, m2 = poly.monomials
    variables = list(poly.variables)
    e = [m1.exp_of(v) - m2.exp_of(v) for v in variables]
    r = Fraction(-m2.coeff, m1.coeff)
    return solve_power_product(e, r, variables, equation=poly)


def solve_power_product(exponents: list[int], r: Fraction,
                        variables: list[str],
                        equation: Polynomial | None = None) -> SolutionSet:
    """Solve prod(x_i**e_i) = r over nonzero integers, completely.

    Variables with e_i = 0 are free.  For mixed-sign exponents the solution
    is the standard parametric family; the rational d-th-root criterion
    decides solvability.
    """
    out = SolutionSet(variables, status=COMPLETE, equation=equation)
    support = [i for i, e in enumerate(exponents) if e != 0]
    free = [i for i in range(len(variables)) if i not in support]
    if not support:
        raise ValueError("no variable with nonzero exponent")
    if r == 0:
        return out  # no nonzero solutions

    pos = all(exponents[i] > 0 for i in support)
    neg = all(exponents[i] < 0 for i in support)
    if pos or neg:
        target = r if pos else 1 / r
        if target.denominator != 1:
            return out
        sign = 1 if pos else -1
        tuples = _enumerate_exact_products(
            [abs(exponents[i]) for i in support], int(target))
        for tup in tuples:
            out.families.append(_finite_with_free(variables, support, free,
                                                  tup, equation))
        _absorb_pointwise(out)
        return out

    d = 0
    for i in support:
        d = gcd(d, abs(exponents[i]))
    s = rational_root_d(r, d)
    if s is None:
        return out
    roots = [s, -s] if d % 2 == 0 else [s]
    for root in roots:
        fam = _mixed_family(exponents, root, variables, support, free)
        out.families.append(fam)
    return out


def _enumerate_exact_products(exps: list[int], target: int) -> list[tuple[int, ...]]:
    """All tuples of nonzero integers with prod(x_i**e_i) == target."""
    results: list[tuple[int, ...]] = []

    def rec(idx: int, rem: int, prefix: list[int]):
        if idx == len(exps) - 1:
            for cand in exact_roots(rem, exps[idx]):
                if cand != 0:
                    results.append(tuple(prefix + [cand]))
            return
        for z in divisors_k(rem, exps[idx]):
            rec(idx + 1, rem // z**exps[idx], prefix + [z])

    rec(0, target, [])
    return sorted(set(results))


def _finite_with_free(variables, support, free, tup, equation):
    exprs = {}
    params = []
    for pos, i in enumerate(support):
        exprs[variables[i]] = ex.const(tup[pos])
    for i in free:
        name = f"u_{variables[i]}"
        params.append((name, AllIntegers()))
        exprs[variables[i]] = ex.param(name)
    values = dict(zip([variables[i] for i in support], tup))

    def witness(solution):
        env = {}
        for i, v in enumerate(variables):
            if v in values and solution[i] != values[v]:
                return None
            if i in free:
                env[f"u_{v}"] = solution[i]
        return env

    return SolutionFamily(
        variables=list(variables), params=params, exprs=exprs,
        witness=witness, exact_box=True, note="finite divisor branch")


def _mixed_family(exponents, s: Fraction, variables, support, free):
    """Parametric family for prod(x**e') = s with e' = e/d of mixed sign.

    x_i = (A prod u^a')^{z_i} (B prod u^g')^{t_i} w^{-z_i-t_i} u_i with
    w running over common divisors; witness takes u = x, w = A prod(x^a').
    """
    d = 0
    for i in support:
        d = gcd(d, abs(exponents[i]))
    a_exp = {i: max(exponents[i] // d, 0) for i in support}
    g_exp = {i: max(-exponents[i] // d, 0) for i in support}
    A, B = s.denominator, s.numerator

    gens = [(a_exp[i] - g_exp[i], 0) for i in support]
    stz, z = solve_monoid_target_2d(gens, (-1, 0))
    stt, t = solve_monoid_target_2d(gens, (1, 0))
    assert stz == "feasible" and stt == "feasible"
    zc = dict(zip(support, z))
    tc = dict(zip(support, t))

    uname = {i: f"u_{variables[i]}" for i in range(len(variables))}
    lhs = ex.monomial_expr(A, [(uname[i], a_exp[i]) for i in support])
    rhs = ex.monomial_expr(B, [(uname[i], g_exp[i]) for i in support])
    params = [(uname[i],
               NonzeroIntegers() if i in support else AllIntegers())
              for i in range(len(variables))]
    params.append(("w", DivisorSet(1, ex.Gcd(lhs, rhs))))

    exprs = {}
    for i, v in enumerate(variables):
        if i in free:
            exprs[v] = ex.param(uname[i])
            continue
        num = ex.Mul(ex.Pow(lhs, zc[i]), ex.Pow(rhs, tc[i]), ex.param(uname[i]))
        den = ex.Pow(ex.param("w"), zc[i] + tc[i])
        exprs[v] = ex.ExactDiv(num, den) if zc[i] + tc[i] else ex.Mul(
            ex.Pow(lhs, zc[i]), ex.Pow(rhs, tc[i]), ex.param(uname[i]))

    def witness(solution):
        if any(solution[i] == 0 for i in support):
            return None
        env = {uname[i]: solution[i] for i in range(len(variables))}
        w = lhs.eval(env)
        if w == 0:
            return None
        env["w"] = w
        return env

    def box_enumerator(bound):
        # the support coordinates solve prod(x**(e/d)) = s; free ones sweep
        out = set()
        for core in _power_fiber([exponents[i] // d for i in support], s,
                                 bound):
            for vals in itertools.product(range(-bound, bound + 1),
                                          repeat=len(free)):
                tup = [0] * len(variables)
                for i, v in zip(support + free, core + vals):
                    tup[i] = v
                out.add(tuple(tup))
        return out

    return SolutionFamily(
        variables=list(variables), params=params, exprs=exprs,
        witness=witness, exact_box=True,
        note=f"power-product family, root {s}",
        box_enumerator=box_enumerator)


def _power_fiber(exps: list[int], target: Fraction, bound: int
                 ) -> list[tuple[int, ...]]:
    """Nonzero tuples with prod x^exps == target, |x| <= bound, for exps of
    mixed signs: all but the largest exponent's variable are swept."""
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


def _absorb_pointwise(out: SolutionSet):
    """Families whose expressions are all constant collapse to finite tuples."""
    kept = []
    for fam in out.families:
        if isinstance(fam, SolutionFamily) and not fam.params:
            tup = tuple(fam.exprs[v].eval({}) for v in fam.variables)
            out.add_finite(tup)
        else:
            kept.append(fam)
    out.families = kept
