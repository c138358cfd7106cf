"""The complete pipeline for two-variable three-monomial equations: the
solutions with a zero coordinate from `twomon.trivial_solutions`, the one
routine for them (minimal zero sets only), then normalization to
a*x^n + b*x^k*y^l + c*y^m = 0, the finite divisor branch, the equality case
(rational roots of a one-variable trinomial), the strict case (prime-split
candidates and base equations), the Runge case, and the dedicated
x^4 + a*x*y + y^3 solver.

The strict and Runge cases share one valuation argument: at each prime of
abc the least of the three term valuations is attained twice, which leaves
finitely many candidates (X, Y) up to the directions along which the
inequality n*l + m*k < m*n or > m*n lets the valuations grow.  The strict
case lifts each candidate through a base equation; the Runge case fixes the
one free factor by an exact root (C. Runge, J. reine angew. Math. 100, 1887;
P. G. Walsh, Acta Arith. 62, 1992).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .basesolve import (
    BaseSolveRecord,
    solve_runge_finite,
    solve_superelliptic,
)
from .eqparse import (
    Polynomial,
    TrinomialEquation,
    parse_equation,
    parse_trinomial,
)
from .intcore import divisors, divisors_k, integer_roots, solve_univariate
from .lindioph import solve_xy_eq_zt, valuation_candidates
from .solset import COMPLETE, MappedFamily, SolutionSet
from .twomon import (
    solve_power_product,
    solve_two_monomial,
    trivial_solutions,
)


@dataclass
class TwoVarForm:
    """a*x^n + b*x^k*y^l + c*y^m = 0."""

    a: int
    b: int
    c: int
    n: int
    k: int
    l: int
    m: int
    variables: list[str]

    def strict_data(self):
        """The derived exponents l', n', m', k' and the base-equation
        exponents; asserts the defining identities."""
        n, k, l, m = self.n, self.k, self.l, self.m
        g1 = gcd(l, n - k)
        lp, np_ = l // g1, (n - k) // g1
        g2 = gcd(k, m - l)
        mp, kp = (m - l) // g2, k // g2
        ev = n * mp - k * mp - l * kp
        eu = m * np_ - k * lp - l * np_
        assert n * lp - k * lp - l * np_ == 0
        assert m * kp - k * mp - l * kp == 0
        assert ev > 0 and eu > 0
        return lp, np_, mp, kp, ev, eu


@dataclass
class TwoVarReport:
    equation: TrinomialEquation
    path: list[str]
    solutions: SolutionSet
    base_records: list[BaseSolveRecord] = field(default_factory=list)


# ---------------------------------------------------------------------------
# normalization to the (n, k, l, m) form
# ---------------------------------------------------------------------------

def normalize_two_var(eq: TrinomialEquation):
    """Either a TwoVarForm, or ("divisors", index of the constant monomial)
    when both non-constant monomials involve both variables (finite check
    through divisors)."""
    if len(eq.variables) != 2:
        raise ValueError("normalize_two_var needs exactly two variables")
    xs = [row[0] for row in eq.rows]
    ys = [row[1] for row in eq.rows]
    pure_x = [i for i in range(3) if ys[i] == 0]
    pure_y = [j for j in range(3) if xs[j] == 0]
    for i in pure_x:
        for j in pure_y:
            if i != j:
                mid = 3 - i - j
                return TwoVarForm(
                    a=eq.coeffs[i], b=eq.coeffs[mid], c=eq.coeffs[j],
                    n=xs[i], k=xs[mid], l=ys[mid], m=ys[j],
                    variables=list(eq.variables))
    # the only y-free monomial is also the only x-free one: a constant,
    # and the other two involve both variables
    const = pure_x[0]
    return ("divisors", const)


# ---------------------------------------------------------------------------
# finite divisor branch
# ---------------------------------------------------------------------------

def _divisor_branch(poly: Polynomial, var: str) -> SolutionSet:
    """Nonzero solutions of an equation with a constant monomial whose other
    two monomials both contain var: var divides the constant, and each
    divisor leaves a one-variable polynomial in the other variable."""
    variables = list(poly.variables)
    other = variables[1 - variables.index(var)]
    const = next(mono.coeff for mono in poly.monomials if not mono.exps)
    degree = poly.degree_in(other)
    out = SolutionSet(variables, status=COMPLETE, equation=poly)
    for d in divisors_k(const, 1):
        coeffs = [0] * (degree + 1)
        for mono in poly.monomials:
            coeffs[mono.exp_of(other)] += mono.coeff * d ** mono.exp_of(var)
        for root in integer_roots(coeffs):
            if root != 0:
                point = {var: d, other: root}
                out.add_finite(tuple(point[v] for v in variables))
    return out


# ---------------------------------------------------------------------------
# equality case: nl + mk = mn
# ---------------------------------------------------------------------------

def solve_equality_case(form: TwoVarForm, trace=None) -> SolutionSet:
    """Reduce to a one-variable trinomial a t^u + b t^r + c via t = x^w / y^v
    and solve a two-monomial equation per rational root."""
    n, k, l, m = form.n, form.k, form.l, form.m
    u, v, w, r = (abs(t) for t in solve_xy_eq_zt(m, k, n, m - l))
    coeffs = [0] * (u + 1)
    coeffs[0] += form.c
    coeffs[r] += form.b
    coeffs[u] += form.a
    _, rationals = solve_univariate(coeffs)
    out = SolutionSet(form.variables, status=COMPLETE)
    if trace is not None:
        trace.append(BaseSolveRecord(
            f"{form.a}*t^{u} + {form.b}*t^{r} + {form.c} = 0",
            [], f"rational roots {[str(q) for q in rationals]}"))
    for root in rationals:
        part = solve_power_product([w, -v], root, form.variables)
        out = out.union(part)
    return out


# ---------------------------------------------------------------------------
# strict case: nl + mk < mn
# ---------------------------------------------------------------------------

def solve_strict_case(form: TwoVarForm, bound: int = 10_000,
                      backend: str | None = None,
                      trace: list | None = None) -> SolutionSet:
    """Nonzero solutions under n*l + m*k < m*n: each valuation candidate
    (X, Y), in each of its four sign variants (sx*X, sy*Y), leads to one
    base equation in (v, u), whose points lift to x = sx*X*u^l'*v^m',
    y = sy*Y*u^n'*v^k'.

    Exact repeats of a base equation are solved once per call (``cache``),
    each with one trace record.  The variants of a candidate mostly share
    a sign class, which solve_superelliptic takes once per base equation,
    and descends and solves once per process (see its caches), building no
    Polynomial."""
    lp, np_, mp, kp, ev, eu = form.strict_data()
    variables = form.variables
    out = SolutionSet(variables, status=COMPLETE)
    cache: dict[tuple, SolutionSet] = {}
    for xa, ya in valuation_candidates(form.a, form.b, form.c, form.n,
                                       form.k, form.l, form.m):
        for sx in (1, -1):
            for sy in (1, -1):
                xi, yi = sx * xa, sy * ya
                A = form.c * yi**form.m
                B = -form.a * xi**form.n
                C = -form.b * xi**form.k * yi**form.l
                key = (A, B, C, ev, eu)
                if key not in cache:
                    cache[key] = solve_superelliptic(
                        A, B, C, ev, eu, bound=bound,
                        variables=["v", "u"], backend=backend, trace=trace)
                base = cache[key]
                out.status = out.status.combine(base.status)
                out.provenance = sorted(set(out.provenance)
                                        | set(base.provenance))
                for (v0, u0) in base.finite:
                    x = xi * u0**lp * v0**mp
                    y = yi * u0**np_ * v0**kp
                    if x != 0 and y != 0:
                        out.add_finite((x, y))
                for fam in base.families:
                    out.families.append(_lifted_family(
                        fam, variables, xi, yi, lp, np_, mp, kp))
    return out


def _lifted_family(fam, variables, xi, yi, lp, np_, mp, kp):
    inner = SolutionSet(["v", "u"], families=[fam], status=COMPLETE)

    def lift(points, bound):
        for v0, u0 in points:
            x = xi * u0**lp * v0**mp
            y = yi * u0**np_ * v0**kp
            if x != 0 and y != 0:
                yield x, y

    return MappedFamily(
        variables=list(variables), inner=inner, lift=lift,
        exact_box=fam.exact_box,
        note=f"strict-case lift x={xi}*u^{lp}*v^{mp}, y={yi}*u^{np_}*v^{kp}")


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

def solve_two_var(eq: TrinomialEquation, bound: int = 10_000,
                  backend: str | None = None) -> TwoVarReport:
    variables = list(eq.variables)
    trace: list[BaseSolveRecord] = []
    path = []
    trivial = trivial_solutions(eq.full_polynomial())
    poly = eq.polynomial()
    norm = normalize_two_var(eq)
    if isinstance(norm, tuple):
        path.append("divisor-branch")
        nonzero = _divisor_branch(poly, variables[1])
    else:
        nonzero, path = _solve_form(norm, poly, bound, backend, trace)
    return TwoVarReport(eq, path, trivial.union(nonzero), trace)


def _solve_form(form: TwoVarForm, poly: Polynomial, bound, backend, trace):
    n, k, l, m = form.n, form.k, form.l, form.m
    path: list[str] = []

    # canonicalize sorts the monomials by descending exponent vector and
    # normalize_two_var takes the first pure-x and the first other pure-y
    # monomial, so l = 0 gives 0 < k < n and k = 0 gives 0 < l < m; then
    # n*l + m*k is m*k or n*l, below m*n, and the comparison below takes
    # both to the strict case.  A constant monomial (m = 0 or n = 0) comes
    # with k*l > 0, so the variable of its pure monomial divides it.
    if k == 0 and l == 0:
        path.append("base-equation")
        out = solve_superelliptic(form.c, -form.a, -form.b, n, m,
                                  bound=bound, variables=form.variables,
                                  backend=backend, trace=trace)
        return out, path

    if m == 0 or n == 0:
        path.append("divisor-branch")
        var = form.variables[0] if m == 0 else form.variables[1]
        return _divisor_branch(poly, var), path

    lhs, rhs = n * l + m * k, m * n
    if lhs < rhs:
        path.append("strict")
        return solve_strict_case(form, bound, backend, trace), path
    if lhs == rhs:
        path.append("equality")
        return solve_equality_case(form, trace), path
    path.append("runge")
    return solve_runge_finite(form.a, form.b, form.c, n, k, l, m,
                              form.variables, trace), path


# ---------------------------------------------------------------------------
# x^4 + a x y + y^3 = 0
# ---------------------------------------------------------------------------

def solve_masser(a: int, bound: int = 10_000,
                 backend: str | None = None,
                 trace: list | None = None) -> SolutionSet:
    """Dedicated solver for x^4 + a*x*y + y^3 = 0 via the gcd substitution:
    candidates (u, w) with u*w | a, then one quintic base equation each.

    Each base equation takes its sign class once, and each class is
    descended and solved once per process (solve_superelliptic's caches,
    which backend calls bypass) with no Polynomial built; every base
    equation keeps its own trace record."""
    variables = ["x", "y"]
    if a == 0:
        out = SolutionSet(variables, status=COMPLETE)
        out.add_finite((0, 0))
        return out.union(solve_two_monomial(parse_equation("x^4 + y^3")))
    eq = parse_trinomial(f"x^4 + {a}*x*y + y^3" if a >= 0
                         else f"x^4 - {-a}*x*y + y^3")
    out = SolutionSet(variables, status=COMPLETE, equation=eq.polynomial())
    out.add_finite((0, 0))
    for u in divisors(a):
        for w in divisors(abs(a) // u):
            # u w^2 x1^5 + w u^3 v^5 = -a, variables (x1, v)
            base = solve_superelliptic(
                w * u**3, -u * w**2, -a, 5, 5, bound=bound,
                variables=["x1", "v"], backend=backend, trace=trace)
            out.status = out.status.combine(base.status)
            out.provenance = sorted(set(out.provenance) | set(base.provenance))
            for (x1, v) in base.finite:
                if x1 == 0 or v == 0:
                    continue
                kk = u * v * w
                d = kk * x1
                x, y = d * x1, d * u * v * v
                if x**4 + a * x * y + y**3 == 0:
                    out.add_finite((x, y))
    return out
