"""Complete solver for two-monomial equations a*prod(x^alpha) = b*prod(x^gamma),
and the one routine for solutions with a zero coordinate.

Same-signed exponent differences give finite divisor enumerations; mixed
signs give the d-th-root criterion and a parametric family built by
`divisor_family`, which also builds the direct formula for three monomials.
The family lists its box points as the values of its expressions at the
witnesses of the box solutions of the power product.

`trivial_solutions` lists every solution with a zero coordinate: one zero
family per minimal set of variables whose vanishing kills every monomial,
and the nonzero solutions of each two-monomial equation that setting some
variables to zero leaves.  Every solver adds its nonzero solutions to it.
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
    MappedFamily,
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


def trivial_solutions(poly: Polynomial) -> SolutionSet:
    """All solutions of the uncancelled equation poly = 0 with a zero
    coordinate, walked by the set Z of zero variables, smallest first.

    A Z that kills every monomial gets a zero family, the variables outside
    Z free, unless a smaller killing set lies inside it and already covers
    its points; a minimal Z of every variable is the point (0, ..., 0).  A Z
    that leaves two monomials adds their solutions with every variable
    outside Z nonzero.  A Z that leaves one monomial adds none.  A Z that
    leaves three names only variables no monomial contains; their solutions
    need the full solver, and this routine does not list them."""
    variables = list(poly.variables)
    out = SolutionSet(variables, status=COMPLETE, equation=poly)
    killing: list[set[str]] = []
    for size in range(1, len(variables) + 1):
        for zeros in map(set, itertools.combinations(variables, size)):
            sub = poly.substitute_zero(zeros)
            if not sub.monomials:
                if any(k <= zeros for k in killing):
                    continue
                killing.append(zeros)
                if size == len(variables):
                    out.add_finite((0,) * size)
                else:
                    out.families.append(zero_family(variables, zeros))
            elif len(sub.monomials) == 2:
                _embed_nonzero(out, zeros, solve_two_monomial(sub))
    return out


def zero_family(variables: list[str], zeros: set[str]) -> SolutionFamily:
    """The points with the `zeros` at 0 and every other variable v free as
    the parameter w_v."""
    return pinned_family(variables, dict.fromkeys(zeros, 0),
                         f"{'='.join(sorted(zeros))}=0, rest free",
                         lambda v: f"w_{v}")


def _embed_nonzero(out: SolutionSet, zeros: set[str], inner: SolutionSet):
    """Add to `out` the points of `inner`, a set over the variables outside
    `zeros`, that have no zero coordinate, with the `zeros` put at 0: its
    finite points as finite points, its families as one MappedFamily."""
    where = [None if v in zeros else inner.variables.index(v)
             for v in out.variables]

    def lift(points, bound=None):
        # a point with a zero coordinate is another zero set's solution
        return [tuple([0 if i is None else point[i] for i in where])
                for point in points if 0 not in point]

    for point in lift(inner.finite):
        out.add_finite(point)
    if inner.families:
        out.families.append(MappedFamily(
            variables=list(out.variables),
            inner=SolutionSet(inner.variables, families=inner.families),
            lift=lift, exact_box=all(f.exact_box for f in inner.families),
            note=f"{','.join(sorted(zeros))}=0"))


def solve_power_product(exponents: list[int], r: Fraction,
                        variables: list[str],
                        equation: Polynomial | None = None) -> SolutionSet:
    """Solve prod(x_i**e_i) = r != 0 over nonzero integers, completely.

    Variables with e_i = 0 are free.  For mixed-sign exponents the solution
    is the standard parametric family; the rational d-th-root criterion
    decides solvability.
    """
    out = SolutionSet(variables, status=COMPLETE, equation=equation)
    support = [i for i, e in enumerate(exponents) if e != 0]
    free = [i for i in range(len(variables)) if i not in support]
    if not support:
        raise ValueError("no variable with nonzero exponent")

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
    # each chosen prefix with what it leaves of the target
    partial = [((), target)]
    for e in exps[:-1]:
        partial = [(prefix + (z,), rem // z**e) for prefix, rem in partial
                   for z in divisors_k(rem, e)]
    return sorted({prefix + (cand,) for prefix, rem in partial
                   for cand in exact_roots(rem, exps[-1]) if cand != 0})


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
    of every point of `candidates(bound)` and keeps the integral values,
    through one kernel generated per call by `expr.listing_kernel` from
    `exprs` and rhs as they stand then; a call with no candidate builds
    none.  The candidates must include every box solution the family stands
    for; a wrong expression then moves listed points off the solutions."""
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

    def witness(solution):
        if not all(map(solution.__getitem__, zpos)):
            return None
        env = dict(zip(unames, solution))
        env["w"] = rhs.eval(env)
        return env

    def box_enumerator(bound):
        points = iter(candidates(bound))
        first = next(points, None)
        if first is None:
            return set()
        kernel = ex.listing_kernel(unames, {"w": rhs},
                                   [exprs[v] for v in variables], zpos)
        return kernel(itertools.chain((first,), points))

    return SolutionFamily(
        variables=list(variables), params=params, exprs=exprs,
        witness=witness, exact_box=True, note=note,
        box_enumerator=box_enumerator)
