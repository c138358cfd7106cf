"""Complete solver for two-monomial equations a*prod(x^alpha) = b*prod(x^gamma).

Same-signed exponent differences give finite divisor enumerations; mixed
signs give the d-th-root criterion and a parametric family built by
`divisor_family`, which also builds the direct formula for three monomials.
The family lists its box points as the values of its expressions at the
witnesses of the box solutions of the power product.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from . import expr as ex
from .eqparse import Polynomial
from .intcore import divisors_k, exact_iroot, exact_roots, rational_root_d
from .lindioph import solve_monoid_target_2d
from .solset import (
    COMPLETE,
    AllIntegers,
    DivisorSet,
    NonzeroIntegers,
    SolutionFamily,
    SolutionSet,
    pinned_family,
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
        for tup in exact_products(
                [abs(exponents[i]) for i in support], int(target)):
            if not free:
                out.add_finite(tup)
                continue
            fixed = {variables[i]: x for i, x in zip(support, tup)}
            out.families.append(pinned_family(
                variables, fixed, "finite divisor branch", lambda v: f"u_{v}"))
        return out

    d = gcd(*(exponents[i] for i in support))
    s = rational_root_d(r, d)
    if s is None:
        return out
    # prod(x**e') = root with e' = e/d: A prod x^a' = B prod x^g' for
    # root = B/A, and the divisor family of that two-term identity
    reduced = [exponents[i] // d for i in support]
    a_exp = [max(e, 0) for e in reduced]
    g_exp = [max(-e, 0) for e in reduced]
    gens = [(e, 0) for e in reduced]
    stz, z = solve_monoid_target_2d(gens, (-1, 0))
    stt, t = solve_monoid_target_2d(gens, (1, 0))
    assert stz == "feasible" and stt == "feasible"
    svars = [variables[i] for i in support]
    uname = {v: f"u_{v}" for v in variables}
    u_params = [(uname[v], NonzeroIntegers() if v in svars else AllIntegers())
                for v in variables]
    for root in ([s, -s] if d % 2 == 0 else [s]):
        lhs = ex.monomial_expr(root.denominator,
                               [(uname[v], e) for v, e in zip(svars, a_exp)])
        rhs = ex.monomial_expr(root.numerator,
                               [(uname[v], e) for v, e in zip(svars, g_exp)])

        def candidates(bound, root=root):
            # the support coordinates solve prod(x**e') = root: each
            # magnitude tuple under every sign vector whose product has the
            # sign of root; free ones sweep the box
            signs = [sg for sg in itertools.product((1, -1), repeat=len(svars))
                     if sum(e for x, e in zip(sg, reduced) if x < 0) % 2
                     == (root < 0)]
            for mags in power_fiber(reduced, root.numerator,
                                    root.denominator, bound):
                for sg in signs:
                    core = tuple(m * x for m, x in zip(mags, sg))
                    for vals in itertools.product(range(-bound, bound + 1),
                                                  repeat=len(free)):
                        point = dict(zip(support + free, core + vals))
                        yield tuple(point[i] for i in range(len(variables)))

        out.families.append(divisor_family(
            variables, u_params, lhs, rhs, dict(zip(svars, z)),
            dict(zip(svars, t)), f"power-product family, root {root}",
            candidates))
    return out


def exact_products(exps: list[int], target: int) -> list[tuple[int, ...]]:
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


def power_fiber(exps: list[int], num: int, den: int, bound: int
                ) -> list[tuple[int, ...]]:
    """Magnitudes |x| of the nonzero tuples with prod x^exps == num/den and
    |x| <= bound, for exps of mixed signs and num nonzero: the positive
    tuples m <= bound with prod m^exps == |num/den|, or none when num/den is
    negative and every exponent even.  All but the largest exponent's
    variable sweep 1..bound in integer arithmetic, and that one is an exact
    root."""
    if num * den < 0 and all(e % 2 == 0 for e in exps):
        return []
    j = max(range(len(exps)), key=lambda i: abs(exps[i]))
    if exps[j] < 0:  # prod m^exps == num/den iff prod m^-exps == den/num
        exps, num, den = [-e for e in exps], den, num
    others = exps[:j] + exps[j + 1:]
    out = []
    for combo in itertools.product(range(1, bound + 1), repeat=len(others)):
        # m_j^exps[j] == top/bottom
        top, bottom = abs(num), abs(den)
        for e, v in zip(others, combo):
            if e > 0:
                bottom *= v ** e
            else:
                top *= v ** -e
        if top % bottom == 0:
            rt = exact_iroot(top // bottom, exps[j])
            if rt is not None and rt <= bound:
                out.append(combo[:j] + (rt,) + combo[j:])
    return out


def divisor_family(variables: list[str], u_params, lhs: ex.Expr,
                   rhs: ex.Expr, z: dict[str, int], t: dict[str, int],
                   note: str, candidates) -> SolutionFamily:
    """The parametric family of the identity lhs = rhs, two expressions in
    the u parameters:

        x_v = lhs^{z_v} rhs^{t_v} u_v / w^{z_v + t_v}   for v in z,
        x_v = u_v                                       otherwise,

    with z and t solving the caller's exponent systems, u_params naming and
    bounding the u parameter of each variable in order, and w running over
    D_1(gcd(lhs, rhs)).  The witness of a solution x with its z-coordinates
    nonzero is u = x, w = rhs(x): lhs(x) = rhs(x) there, so the expressions
    give back x.  The box listing evaluates the expressions at the witness
    of every point of `candidates(bound)` and keeps the integral values.
    The candidates must include every box solution the family stands for;
    a wrong expression then moves listed points off the solutions.  The
    listing compiles the expressions and rhs once per call, from `exprs` as
    it stands then."""
    unames = [name for name, _ in u_params]
    params = list(u_params) + [("w", DivisorSet(1, ex.Gcd(lhs, rhs)))]
    exprs = {}
    for v, u in zip(variables, unames):
        if v not in z:
            exprs[v] = ex.param(u)
            continue
        num = ex.Mul(ex.Pow(lhs, z[v]), ex.Pow(rhs, t[v]), ex.param(u))
        exprs[v] = (ex.ExactDiv(num, ex.Pow(ex.param("w"), z[v] + t[v]))
                    if z[v] + t[v] else num)

    zpos = [i for i, v in enumerate(variables) if v in z]

    def witness(solution, rhs_value=rhs.eval):
        if not all(map(solution.__getitem__, zpos)):
            return None
        env = dict(zip(unames, solution))
        env["w"] = rhs_value(env)
        return env

    def box_enumerator(bound):
        fns = [exprs[v].compile() for v in variables]
        rhs_value = rhs.compile()
        out = set()
        for point in candidates(bound):
            env = witness(point, rhs_value)
            if env is None:
                continue
            try:
                out.add(tuple([f(env) for f in fns]))
            except ex.ExactDivisionError:
                continue
        return out

    return SolutionFamily(
        variables=list(variables), params=params, exprs=exprs,
        witness=witness, exact_box=True, note=note,
        box_enumerator=box_enumerator)
