"""n-variable machinery: the direct parametrization, the sufficient-condition
solver, the reduction of an arbitrary three-monomial equation to equations
with independent monomials, family classification, cyclic equations, the
Monte-Carlo experiment, and the master dispatcher.  Separated-linear
equations a*x + P(rest) = 0 go to basesolve.solve_separated_linear, the
routine of the linear base equation, which this module re-exports.  The
solutions with a zero coordinate come from twomon.trivial_solutions, the one
routine for them, with a zero family per minimal zero set only; this module
re-exports it too.
"""

from __future__ import annotations

import itertools
import random
import struct
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd, prod

from . import expr as ex
from .basesolve import (
    BaseSolveRecord,
    find_separated_linear,
    solve_separated_linear,
)
from .eqparse import (
    Monomial,
    Polynomial,
    TrinomialEquation,
    canonicalize,
    parse_equation,
    poly_to_string,
)
from .intcore import (
    ResourceLimit,
    divisors,
    factorize,
    integer_roots,
    valuation,
)
from .lindioph import (
    hilbert_basis,
    minimal_divisibility_set,
    monoid_contains_2d,
    solve_monoid_target_2d,
    solve_system_nonneg,
)
from .solset import (
    COMPLETE,
    REDUCED_ONLY,
    UNKNOWN,
    AllIntegers,
    DivisorSet,
    MappedFamily,
    SolutionFamily,
    SolutionSet,
    Status,
    searched,
)
from .oracle import brute_force
from .twomon import (
    divisor_family,
    exact_products,
    power_fiber,
    solve_two_monomial,
    trivial_solutions,
    zero_family,
)
from .twovar import solve_two_var

# re-exported surface
__all__ = [
    "Prop4Certificate", "ReducedEquation", "SolveReport",
    "trivial_solutions", "check_prop4", "check_sums", "direct_formula",
    "solve_prop4", "solve_separated_linear", "solve_x1k_x2",
    "solve_two_monomial", "reduce_to_independent", "classify_family",
    "classify_cyclic", "monte_carlo_prop4", "solve",
]


# ---------------------------------------------------------------------------
# the sufficient condition and the direct formula
# ---------------------------------------------------------------------------

@dataclass
class Prop4Certificate:
    """Orientation index i: monomial i plays the right-hand role, so with
    (alpha, beta) the other two exponent rows and gamma = row i,
    sum(alpha*z) = sum(beta*z) = sum(gamma*z) - 1 holds exactly."""

    orientation: int
    z: tuple[int, ...]
    t: tuple[int, ...] | None
    unknown: bool = False


#: Row indices (alpha, beta, gamma) of the three orientations of the exponent
#: system; orientation i puts monomial i on the right-hand side as gamma.
_ORIENTATIONS = ((1, 2, 0), (0, 2, 1), (0, 1, 2))


def _system_solve(alpha, beta, gamma, target_sign: int, budget: int):
    """Non-negative z with sum(alpha z) = sum(beta z) = sum(gamma z) - s for
    s = target_sign (1 or -1), from the 2-D monoid solver under `budget`.
    The witness is shrunk by one-signed circuits, not always the least.
    Returns (status, vector)."""
    gens = [(a - b, g - a) for a, b, g in zip(alpha, beta, gamma)]
    status, vec = solve_monoid_target_2d(gens, (0, target_sign), budget)
    return status, tuple(vec) if vec is not None else None


def check_prop4(eq: TrinomialEquation, budget: int = 1_000_000
                ) -> Prop4Certificate | None:
    """First orientation (in monomial order) whose z-system is solvable in
    non-negative integers; the t-system is attempted as well to decide
    whether the direct formula applies.  Both witnesses come from the 2-D
    monoid solver, shrunk by one-signed circuits; they are not always the
    least.  Returns a certificate, None when every orientation is
    infeasible, or a certificate flagged unknown when a search exceeded its
    budget."""
    saw_unknown = False
    for i, (ia, ib, ig) in enumerate(_ORIENTATIONS):
        alpha, beta, gamma = eq.rows[ia], eq.rows[ib], eq.rows[ig]
        status, z = _system_solve(alpha, beta, gamma, 1, budget)
        if status == "unknown":
            saw_unknown = True
            continue
        if status != "feasible":
            continue
        assert check_sums(alpha, beta, gamma, z, 1)
        status_t, t = _system_solve(alpha, beta, gamma, -1, budget)
        tvec = tuple(t) if status_t == "feasible" else None
        if tvec is not None:
            assert check_sums(alpha, beta, gamma, tvec, -1)
        return Prop4Certificate(i, tuple(z), tvec)
    if saw_unknown:
        return Prop4Certificate(-1, (), None, unknown=True)
    return None


def check_sums(alpha, beta, gamma, z, s) -> bool:
    """Whether sum(alpha*z) = sum(beta*z) = sum(gamma*z) - s."""
    sa = sum(a * zi for a, zi in zip(alpha, z))
    sb = sum(b * zi for b, zi in zip(beta, z))
    sg = sum(g * zi for g, zi in zip(gamma, z))
    return sa == sb == sg - s


def direct_formula(eq: TrinomialEquation, cert: Prop4Certificate
                   ) -> SolutionFamily:
    """The closed-form family for eq given both exponent systems solvable:
    x_i = (a prod u^alpha + b prod u^beta)^{z_i} (c prod u^gamma)^{t_i}
          w^{-z_i-t_i} u_i,
    with w a common divisor of the two bracketed values.  The witness takes
    u = x and w = c prod x^gamma.

    The box listing tries every nonzero u in the box with its witness value
    w = c prod u^gamma, which gives x_i = lambda^{z_i} u_i for
    lambda = (a prod u^alpha + b prod u^beta) / (c prod u^gamma).  Since
    alpha.z = beta.z = gamma.z - 1, every integral such x is a solution, and
    each nonzero box solution x comes back from u = x.  The listing runs as
    one kernel generated from the expressions (`twomon.divisor_family`),
    which computes the bracket and c prod u^gamma once per u."""
    if cert.t is None:
        raise ValueError("direct formula needs both systems solvable")
    ia, ib, ig = _ORIENTATIONS[cert.orientation]
    alpha, beta, gamma = eq.rows[ia], eq.rows[ib], eq.rows[ig]
    a, b, c = eq.coeffs[ia], eq.coeffs[ib], -eq.coeffs[ig]
    variables = list(eq.variables)
    uname = {v: f"u_{v}" for v in variables}

    def mono_expr(coeff, row):
        return ex.monomial_expr(
            coeff, [(uname[v], e) for v, e in zip(variables, row) if e])

    def candidates(bound):
        nz = [v for v in range(-bound, bound + 1) if v != 0]
        return itertools.product(nz, repeat=len(variables))

    return divisor_family(
        variables, [(uname[v], AllIntegers()) for v in variables],
        ex.Add(mono_expr(a, alpha), mono_expr(b, beta)), mono_expr(c, gamma),
        dict(zip(variables, cert.z)), dict(zip(variables, cert.t)),
        "direct formula", candidates)


# ---------------------------------------------------------------------------
# limits of the reduction and of its block and lift families
# ---------------------------------------------------------------------------

#: Most branches (one per sign class) reduce_to_independent emits.
_MAX_BRANCHES = 4096
#: Largest inner bound a block-grouping family lists its inner set at.
_BLOCK_INNER_LIMIT = 10**6


# ---------------------------------------------------------------------------
# form (20): a block x1^k * x2 inside a monomial
# ---------------------------------------------------------------------------

def solve_x1k_x2(poly: Polynomial, block_idx: int) -> SolutionSet:
    """Solve an equation whose monomial `block_idx` contains a variable of
    exponent 1: substitute the whole block y := prod(vars^exps), solve the
    resulting separated-linear equation in y, then recover the block
    variables through chained divisor domains."""
    mono = poly.monomials[block_idx]
    exps = list(mono.exps)
    lin = next((v for v, e in exps if e == 1), None)
    if lin is None:
        raise ValueError("no exponent-1 variable in the block monomial")
    if any(other.variables() & mono.variables()
           for j, other in enumerate(poly.monomials) if j != block_idx):
        raise ValueError("block variables must not occur elsewhere")
    block_vars = [v for v, _ in exps]
    other_vars = [v for v in poly.variables if v not in block_vars]
    yname = "y_block"
    sub_monos = [Monomial.make(mono.coeff, {yname: 1})]
    for j, other in enumerate(poly.monomials):
        if j != block_idx:
            sub_monos.append(other)
    sub_poly = Polynomial(sub_monos, [yname] + other_vars)
    inner = solve_separated_linear(sub_poly)

    variables = list(poly.variables)
    out = SolutionSet(variables, status=inner.status, equation=poly,
                      provenance=list(inner.provenance))
    for fam in inner.families:
        out.families.append(_unsub_block_family(
            fam, variables, yname, other_vars, exps, lin))
    return out


def _unsub_block_family(fam: SolutionFamily, variables, yname, other_vars,
                        exps, lin):
    """Compose an inner family (over y_block and the other variables) with
    the divisor-chain recovery of the block variables."""
    y_expr = fam.exprs[yname]
    params = list(fam.params)
    exprs = {v: fam.exprs[v] for v in other_vars}
    remaining = y_expr
    denom_terms: list[ex.Expr] = []
    for v, e in exps:
        if v == lin:
            continue
        pname = f"d_{v}"
        if denom_terms:
            remaining = ex.ExactDiv(y_expr, ex.Mul(*denom_terms))
        params.append((pname, DivisorSet(e, remaining)))
        exprs[v] = ex.param(pname)
        denom_terms.append(ex.Pow(ex.param(pname), e))
    exprs[lin] = (ex.ExactDiv(y_expr, ex.Mul(*denom_terms)) if denom_terms
                  else y_expr)

    def witness(sol):
        env_sol = dict(zip(variables, sol))
        if any(env_sol[v] == 0 for v, _ in exps):
            return None
        yval = 1
        for v, e in exps:
            yval *= env_sol[v] ** e
        inner_sol = [yval] + [env_sol[v] for v in other_vars]
        base = fam.witness(tuple(inner_sol)) if fam.witness else None
        if base is None:
            return None
        env = dict(base)
        for v, _ in exps:
            if v != lin:
                env[f"d_{v}"] = env_sol[v]
        return env

    def param_bound(box):
        # y_block of a box point is at most the product of box[v]^e over the
        # block; each d_v is a block variable itself
        inner = fam.param_bound({yname: prod(box[v] ** e for v, e in exps),
                                 **{v: box[v] for v in other_vars}})
        return {**inner, **{f"d_{v}": box[v] for v, _ in exps if v != lin}}

    note = f"block {'*'.join(f'{v}^{e}' for v, e in exps)} via divisors"
    return SolutionFamily(
        variables=list(variables), params=params, exprs=exprs,
        witness=witness, param_bound=param_bound, exact_box=fam.exact_box,
        note=note)


# ---------------------------------------------------------------------------
# reduction to independent monomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReducedTerm:
    """One transformed term coeff * prod(var^exp) of a reduced equation,
    together with the recipe for recovering the original block variables."""

    coeff: int
    exps: tuple[int, ...]          # exponents of the fresh variables
    varnames: tuple[str, ...]
    kind: str                      # 'const' | 'case2' | 'case3'
    # case 'const': side equation prod U^{side_exps} = target, and the
    # magnitudes of its solutions on the nonzero side_exps, sorted
    side_exps: tuple[int, ...] = ()
    side_mags: tuple[tuple[int, ...], ...] = ()
    # case 'case2': prod U^{orig_exps/d} = root_num/root_den * U' (sign split
    # for even d); orig block exponent list and substitution data
    orig_exps: tuple[int, ...] = ()
    d: int = 1
    qstar: int = 1
    vdiv: int = 1
    # case 'case3': U_k = scale_k * U'_k
    scales: tuple[int, ...] = ()
    # free block variables (exponent 0 in the term) by original index
    free_idx: tuple[int, ...] = ()

    def describe(self) -> str:
        body = "*".join(
            f"{v}^{e}" if e != 1 else v
            for v, e in zip(self.varnames, self.exps) if e)
        if not body:
            return str(self.coeff)
        if self.coeff == 1:
            return body
        if self.coeff == -1:
            return f"-{body}"
        return f"{self.coeff}*{body}"


@dataclass
class ReducedEquation:
    """A * prod W^g + B * prod V^f + C * prod U^e = 0 with integral
    coefficients, non-negative exponents, disjoint fresh variables, and a
    back map onto the source equation.

    A term with a variable of odd exponent is sign-free: negating its
    coefficient and that variable maps the solutions one to one and keeps
    every term value, and the lift reads only the term values up to a
    global sign and the magnitudes of the reduced variables.  So branches
    equal up to negating sign-free coefficients and all three coefficients
    at once lift to the same points: a sign class, which
    reduce_to_independent emits once, with its sign-free coefficients and
    its first other coefficient positive.
    Only primitive solutions (block variables pairwise coprime across
    blocks) are needed; the solvers here do not exploit that, which is
    sound."""

    source: TrinomialEquation
    terms: tuple[ReducedTerm, ReducedTerm, ReducedTerm]
    particular: tuple[int, ...]              # P_i per source variable
    bases: tuple[tuple[tuple[int, ...], ...], ...]  # E/F/G basis row lists
    # the source's variable sign vectors (1 = negative) keyed by the signs
    # (True = positive) they give its three monomials; one table shared by
    # every branch of the source equation
    sign_table: dict[tuple[bool, bool, bool], list[tuple[int, ...]]]

    def describe(self) -> str:
        out = ""
        for term in self.terms:
            s = term.describe()
            out += s if not out else (s if s.startswith("-") else "+" + s)
        return out + "=0"

    def polynomial(self) -> Polynomial:
        monos = []
        merged: dict = {}
        for term in self.terms:
            exps = {v: e for v, e in zip(term.varnames, term.exps) if e}
            key = tuple(sorted(exps.items()))
            merged[key] = merged.get(key, 0) + term.coeff
        variables = []
        for term in self.terms:
            for v, e in zip(term.varnames, term.exps):
                if e and v not in variables:
                    variables.append(v)
        for key, co in merged.items():
            if co:
                monos.append(Monomial(co, key))
        return Polynomial(monos, variables)


def _block_term_options(coeff: Fraction, eks: list[int], prefix: str):
    """Transform the term coeff * prod(U_k^{e_k}) (e_k of any sign, coeff
    rational) into integral options per the three representability cases."""
    s, q = coeff.numerator, coeff.denominator
    nz = [e for e in eks if e != 0]
    free_idx = tuple(i for i, e in enumerate(eks) if e == 0)
    options: list[ReducedTerm] = []
    if not nz:
        if q == 1:
            options.append(ReducedTerm(
                coeff=s, exps=(), varnames=(), kind="const",
                side_exps=(), free_idx=free_idx))
        return options

    if all(e < 0 for e in nz):
        # term = s / (q * prod U^{|e|}): enumerate integer values m
        for m in divisors(s) + [-d for d in divisors(s)]:
            num, den = s, q * m
            if num % den:
                continue
            target = num // den
            if target == 0:
                continue
            side_exps = tuple(-e for e in eks)
            tuples = exact_products([e for e in side_exps if e], target)
            if not tuples:
                continue
            options.append(ReducedTerm(
                coeff=m, exps=(), varnames=(), kind="const",
                side_exps=side_exps,
                side_mags=tuple(sorted({tuple(map(abs, t)) for t in tuples})),
                free_idx=free_idx))
        return options

    if any(e < 0 for e in nz):
        d = gcd(*nz)
        # q* = least positive with q | (q*)^d
        qstar = 1
        for p, qp in factorize(q).factors:
            qstar *= p ** (-(-qp // d))
        for v in [dv for dv in divisors(s) if s % dv**d == 0]:
            new_coeff = s * qstar**d // (v**d * q)
            options.append(ReducedTerm(
                coeff=new_coeff, exps=(d,), varnames=(f"{prefix}1",),
                kind="case2", orig_exps=tuple(eks), d=d, qstar=qstar,
                vdiv=v, free_idx=free_idx))
        return options

    # all >= 0, some > 0
    mds = minimal_divisibility_set(list(eks), q)
    for scales in mds.tuples:
        prod = 1
        for sc, e in zip(scales, eks):
            prod *= sc**e
        new_coeff = s * prod // q
        names = tuple(f"{prefix}{i + 1}" for i in range(len(eks)))
        options.append(ReducedTerm(
            coeff=new_coeff, exps=tuple(eks), varnames=names,
            kind="case3", scales=tuple(scales), free_idx=free_idx))
    return options


def _hilbert_homogeneous(row: list[int]) -> list[tuple[int, ...]]:
    """Hilbert basis of row.z = 0 over the non-negative integers; a search
    cut at its node budget raises ResourceLimit instead of returning part of
    the basis."""
    basis = hilbert_basis([row])
    if basis.status == "budget":
        raise ResourceLimit(f"Hilbert basis of {row}.z = 0 cut at the node "
                            f"budget")
    return basis.homogeneous


def _block_systems(rows):
    """The three block systems of the reduction, as (Hilbert basis, block
    exponents) pairs for exponent rows r1, r2, r3: the basis of
    (r1 - r2).z = 0 with exponents (r3 - r1).v per basis vector v, then
    (r1 - r3).z = 0 with (r2 - r3).v, then (r2 - r3).z = 0 with
    (r1 - r2).v."""
    r1, r2, r3 = rows
    systems = []
    for p, q, s, t in ((r1, r2, r3, r1), (r1, r3, r2, r3), (r2, r3, r1, r2)):
        basis = _hilbert_homogeneous([x - y for x, y in zip(p, q)])
        weights = [x - y for x, y in zip(s, t)]
        systems.append((basis, [sum(w * v for w, v in zip(weights, vec))
                                for vec in basis]))
    return systems


def _sign_table(coeffs, rows) -> dict:
    """Every variable sign vector (1 = negative) of a trinomial with these
    coefficients and exponent rows, bucketed by the signs (True = positive)
    it gives the three monomials."""
    table: dict = {}
    for eps in itertools.product((0, 1), repeat=len(rows[0])):
        key = tuple((co > 0) == (sum(e * x for e, x in zip(row, eps)) % 2 == 0)
                    for co, row in zip(coeffs, rows))
        table.setdefault(key, []).append(eps)
    return table


def reduce_to_independent(eq: TrinomialEquation) -> list[ReducedEquation]:
    """Theorem-3 style reduction: enumerate prime splits and particular
    minimal solutions, form the rational coefficients, and apply the
    per-term representability substitutions, yielding integral independent
    -monomial equations with back maps, one branch per sign class (see
    ReducedEquation) in the order the four sign patterns first reach it."""
    nv = len(eq.variables)
    r1, r2, r3 = eq.rows
    a, b, c = eq.coeffs
    diff_ab, diff_ag, diff_bg = ([x - y for x, y in zip(p, q)]
                                 for p, q in ((r1, r2), (r1, r3), (r2, r3)))
    (e_basis, e_exp), (f_basis, f_exp), (g_basis, g_exp) = _block_systems(
        eq.rows)
    bases = (tuple(g_basis), tuple(f_basis), tuple(e_basis))
    sign_table = _sign_table(eq.coeffs, eq.rows)
    primes = factorize(a * b * c).primes()

    # particular minimal solutions per prime and class
    per_prime: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for p in primes:
        ap, bp, cp = valuation(a, p), valuation(b, p), valuation(c, p)
        for cls, (coefrow, rhs) in enumerate((
                (diff_ab, bp - ap), (diff_ag, cp - ap), (diff_bg, cp - bp))):
            if rhs == 0:
                per_prime[(p, cls)] = [tuple([0] * nv)]
                continue
            mb = solve_system_nonneg([coefrow], [rhs], budget=200000)
            if mb.status == "budget":
                raise ResourceLimit(f"minimal solutions of {coefrow}.z = "
                                    f"{rhs} cut at the node budget")
            per_prime[(p, cls)] = list(mb.particular)

    term_options: dict[tuple[int, Fraction], list] = {}  # by |value|

    def options(pos, value):
        """Each option of block pos's term value * prod U^exps as its class
        form and that form negated, the same term when it is sign-free."""
        # the options of -X are those of X with every coefficient negated;
        # _block_term_options lists a constant term's options positive
        # first, but when they take both signs X and -X have the same
        # options, so the negated order meets no class form earlier
        key = (pos, abs(value))
        if key not in term_options:
            term_options[key] = [
                (replace(t, coeff=abs(t.coeff)),) * 2
                if any(e % 2 for e in t.exps) else
                (t, replace(t, coeff=-t.coeff))
                for t in _block_term_options(
                    abs(value), (g_exp, f_exp, e_exp)[pos], "wvu"[pos])]
        return ([(n, t) for t, n in term_options[key]] if value < 0
                else term_options[key])

    out: list[ReducedEquation] = []
    seen_coeffs, seen_branches = set(), set()
    for split in itertools.product(range(3), repeat=len(primes)):
        for combo in itertools.product(*[
                [(p, cls, z0) for z0 in per_prime[(p, cls)]]
                for p, cls in zip(primes, split)]):
            A = B = C = Fraction(1)
            particular = [1] * nv
            for p, cls, z0 in combo:
                ap, bp, cp = valuation(a, p), valuation(b, p), valuation(c, p)
                particular = [x * p ** z for x, z in zip(particular, z0)]
                ab, ag, bg = (sum(d * z for d, z in zip(row, z0))
                              for row in (diff_ab, diff_ag, diff_bg))
                if cls == 2:  # P3: b-term = c-term < a-term
                    A *= Fraction(p) ** (ap - bp + ab)
                elif cls == 1:  # P2: a-term = c-term < b-term
                    B *= Fraction(p) ** (bp - cp + bg)
                else:  # P1: a-term = b-term <= c-term
                    C *= Fraction(p) ** (cp - ap - ag)
            particular = tuple(particular)
            if (A, B, C, particular) in seen_coeffs:
                continue
            seen_coeffs.add((A, B, C, particular))
            # the four sign patterns (1, s2, s3) cover all eight up to a
            # global flip; each branch is emitted in its class form, the
            # first time it is met
            a_opts = options(0, A)
            for b_opts, c_opts in itertools.product(
                    (options(1, B), options(1, -B)),
                    (options(2, C), options(2, -C))):
                for opts in itertools.product(a_opts, b_opts, c_opts):
                    flip = next((t.coeff < 0 for t, neg in opts
                                 if t is not neg), False)
                    terms = tuple(opt[flip] for opt in opts)
                    if (particular, terms) in seen_branches:
                        continue
                    seen_branches.add((particular, terms))
                    out.append(ReducedEquation(
                        source=eq, terms=terms, particular=particular,
                        bases=bases, sign_table=sign_table))
                    if len(out) > _MAX_BRANCHES:
                        raise ResourceLimit("reduction branch explosion")
    return out


# ---------------------------------------------------------------------------
# solving reduced equations and lifting back
# ---------------------------------------------------------------------------

def _fiber_core_options(term: ReducedTerm, values: dict[str, int],
                        bound: int):
    """Positive magnitude assignments for the non-free block positions of a
    term, each at most the bound: (positions, list of magnitude tuples).
    Signs of block variables never matter downstream (term values come from
    the transformed variables and the back map uses absolute values)."""
    if term.kind == "const":
        support = [i for i, e in enumerate(term.side_exps) if e]
        if not support:
            return [], [()]
        return support, [t for t in term.side_mags if max(t) <= bound]

    if term.kind == "case3":
        support = [i for i, e in enumerate(term.exps) if e]
        core = []
        for i in support:
            val = abs(values[term.varnames[i]]) * term.scales[i]
            if val > bound:
                return support, []
            core.append(val)
        return support, [tuple(core)]

    # case2: prod U^{e_k/d} = +- qstar * U' / vdiv, with U' nonzero
    support = [i for i, e in enumerate(term.orig_exps) if e]
    red_exps = [term.orig_exps[i] // term.d for i in support]
    return support, power_fiber(
        red_exps, abs(term.qstar * values[term.varnames[0]]), term.vdiv,
        bound)


def lift_reduced_solution(red: ReducedEquation, values: dict[str, int],
                          bound: int) -> list[tuple[int, ...]]:
    """Original solutions generated by one solution of the reduced equation,
    restricted to the box.

    The cheap rejections come first: the particular solution past the bound,
    then term values that do not sum to zero, then an empty term fiber.
    Core block magnitudes come from the term fibers; free block variables
    (zero exponent in the reduced term) sweep positive magnitudes with early
    pruning.  A candidate magnitude vector lifts iff the three source
    monomial magnitudes are in proportion |M_j| = F * |T_j| for a common
    F > 0; its variable signs are the source's sign table entries that give
    the monomials the signs of the T_j or of the -T_j, the two global sign
    interpretations of the branch.
    """
    if any(m > bound for m in red.particular):
        return []
    tvals = [_term_value(t, values) for t in red.terms]
    if sum(tvals) != 0 or any(t == 0 for t in tvals):
        return []

    term_data = []
    free_vecs = []
    for term, basis in zip(red.terms, red.bases):
        positions, opts = _fiber_core_options(term, values, bound)
        if positions and not opts:
            return []
        term_data.append((basis, positions, opts))
        for i in term.free_idx:
            free_vecs.append(basis[i])

    pattern = tuple(t > 0 for t in tvals)
    eps_union = (red.sign_table.get(pattern, [])
                 + red.sign_table.get(tuple(not p for p in pattern), []))
    if not eps_union:
        return []
    eq = red.source
    nv = len(eq.variables)
    tabs = [abs(t) for t in tvals]
    out = set()
    coeff_abs = [abs(c) for c in eq.coeffs]

    def emit(mags):
        m = []
        for j in range(3):
            val = coeff_abs[j]
            for i in range(nv):
                if eq.rows[j][i]:
                    val *= mags[i] ** eq.rows[j][i]
            m.append(val)
        # common positive ratio |M_j| / |T_j|
        if m[0] * tabs[1] != m[1] * tabs[0] or m[1] * tabs[2] != m[2] * tabs[1]:
            return
        for eps in eps_union:
            out.add(tuple(v if not e else -v for v, e in zip(mags, eps)))

    def sweep_free(idx, mags):
        if idx == len(free_vecs):
            emit(mags)
            return
        vec = free_vecs[idx]
        val = 1
        while val <= bound:
            nxt = [m * val ** vec[i] for i, m in enumerate(mags)]
            if any(m > bound for m in nxt):
                break
            sweep_free(idx + 1, nxt)
            val += 1

    def walk_terms(t_idx, mags):
        if t_idx == 3:
            sweep_free(0, list(mags))
            return
        basis, positions, opts = term_data[t_idx]
        if not positions:
            walk_terms(t_idx + 1, mags)
            return
        for tup in opts:
            nxt = list(mags)
            dead = False
            for pos, val in zip(positions, tup):
                vec = basis[pos]
                for i in range(nv):
                    if vec[i]:
                        nxt[i] *= val ** vec[i]
                        if nxt[i] > bound:
                            dead = True
                            break
                if dead:
                    break
            if not dead:
                walk_terms(t_idx + 1, nxt)

    walk_terms(0, list(red.particular))
    return sorted(out)


def _term_value(term: ReducedTerm, values: dict[str, int]) -> int:
    if term.kind == "const":
        return term.coeff
    val = term.coeff
    if term.kind == "case3":
        for name, e in zip(term.varnames, term.exps):
            if e:
                val *= values[name] ** e
        return val
    # case2
    val *= values[term.varnames[0]] ** term.d
    return val


def solve_reduced(red: ReducedEquation, bound: int = 10_000,
                  backend: str | None = None):
    """Solve one reduced equation over nonzero integers: the solution set
    over the reduced variables, whose status is that of the equation."""
    poly = red.polynomial()
    variables = list(poly.variables)
    monos = poly.monomials
    if not variables:
        total = sum(m.coeff for m in monos)
        out = SolutionSet([], status=COMPLETE)
        if total == 0:
            out.add_finite(())
        return out
    if len(monos) == 1:
        return SolutionSet(variables, status=COMPLETE)
    if len(monos) == 2:
        return solve_two_monomial(poly)
    # trinomial in the reduced variables, whose terms share no variable: in
    # at most two variables it is a constant plus two one-variable terms
    if len(variables) <= 2:
        return solve_two_var(canonicalize(poly), bound=bound,
                             backend=backend).solutions
    lin_idx = None
    for idx, mono in enumerate(monos):
        if any(e == 1 for _, e in mono.exps):
            lin_idx = idx
            break
    if lin_idx is not None:
        return solve_x1k_x2(poly, lin_idx)
    blocks = _solve_blocks(poly, bound, backend)
    if blocks is not None:
        return blocks
    # definite check: all exponents even, coefficients of one sign
    if _definite_empty(monos):
        return SolutionSet(variables, status=COMPLETE)
    cap = {1: 60, 2: 60, 3: 25}.get(len(variables), 10)
    searched_set = _bounded_reduced_search(poly, min(bound, cap))
    searched_set.status = REDUCED_ONLY
    return searched_set


def _solve_blocks(poly: Polynomial, bound, backend):
    """Group each monomial into a single power of a product block and solve
    the resulting equation when it has at most two block variables (or a
    linear block); recover the block variables by divisor fibers."""
    monos = poly.monomials
    blocks = []
    sub_monos: dict[tuple, int] = {}
    names = []
    for j, m in enumerate(monos):
        exps = [e for _, e in m.exps]
        if not exps:
            sub_monos[()] = sub_monos.get((), 0) + m.coeff
            blocks.append(None)
            continue
        d = gcd(*exps)
        wname = f"blk{j}"
        names.append(wname)
        key = ((wname, d),)
        sub_monos[key] = sub_monos.get(key, 0) + m.coeff
        blocks.append((wname, d, [(v, e // d) for v, e in m.exps]))
    merged = [Monomial(co, key) for key, co in sub_monos.items() if co]
    sub_poly = Polynomial(merged, names)
    nvars = len({v for mo in merged for v, _ in mo.exps})
    if nvars > 2:
        if find_separated_linear(sub_poly) is not None:
            inner = solve_separated_linear(sub_poly)
        else:
            return None
    else:
        inner = solve(sub_poly, bound=bound, backend=backend).solutions
    return _unsub_blocks(poly, inner, blocks, names)


def _unsub_blocks(poly: Polynomial, inner: SolutionSet, blocks, names):
    variables = list(poly.variables)
    live = [b for b in blocks if b]

    def lift(point, bound):
        vals = dict(zip(inner.variables, point))
        fibers = []
        for wname, d, parts in live:
            wval = vals.get(wname)
            if wval is None or wval == 0:
                return []
            tuples = [t for t in exact_products(
                [e for _, e in parts], wval)
                if all(abs(x) <= bound for x in t)]
            if not tuples:
                return []
            fibers.append((parts, tuples))
        out = []
        for combo in itertools.product(*[f[1] for f in fibers]):
            env = {}
            for (parts, _), tup in zip(fibers, combo):
                for (v, _), val in zip(parts, tup):
                    env[v] = val
            if poly.evaluate(env) == 0:
                out.append(tuple(env[v] for v in variables))
        return out

    degree = {wname: sum(e for _, e in parts) for wname, _, parts in live}

    def inner_bound(b):
        # a block value of a box point is at most b^(its block's degree);
        # listing the inner set at a smaller bound could lose points, so
        # give up instead
        bounds = tuple(abs(b) ** degree[v] for v in inner.variables)
        if max(bounds, default=0) > _BLOCK_INNER_LIMIT:
            raise ResourceLimit(f"block grouping needs the inner set to bound "
                                f"{max(bounds)}")
        return bounds

    out = SolutionSet(variables, status=inner.status, equation=poly,
                      provenance=list(inner.provenance))
    out.families.append(MappedFamily(
        variables=variables, inner=inner, lift=lift, inner_bound=inner_bound,
        exact_box=all(f.exact_box for f in inner.families),
        note="block grouping"))
    return out


def _definite_empty(monos) -> bool:
    signs = set()
    for m in monos:
        if any(e % 2 for _, e in m.exps):
            return False
        signs.add(m.coeff > 0)
    return len(signs) == 1


def _bounded_reduced_search(poly: Polynomial, bound: int) -> SolutionSet:
    out = SolutionSet(list(poly.variables), status=searched(bound),
                      equation=poly)
    if len(poly.variables) <= 4:
        for t in brute_force(poly, bound).solutions:
            if all(x != 0 for x in t):
                out.add_finite(t)
    return out


def solve_prop4(eq: TrinomialEquation, bound: int = 10_000) -> SolutionSet:
    """Complete solving when the z-system is solvable: reduce to independent
    monomials and solve the guaranteed linear-block shapes."""
    out = SolutionSet(list(eq.variables), status=COMPLETE)
    out.families, out.status = _lift_reduced(reduce_to_independent(eq), bound)
    return out


def _lift_reduced(reduced: list[ReducedEquation], bound, backend=None):
    """Solve each distinct reduced equation once and map its solutions back
    to the source variables through every branch (one per sign class) that
    gives it: one family per reduced equation, listed from the reduced
    solution set, and the weakest status among them."""
    groups: dict[str, list[ReducedEquation]] = {}
    for red in reduced:
        groups.setdefault(red.describe(), []).append(red)
    families = []
    status = COMPLETE
    for text, branches in groups.items():
        inner = solve_reduced(branches[0], bound=bound, backend=backend)
        status = status.combine(inner.status)
        # every block value U_k of a box point is at most the box bound b, so
        # a reduced variable is at most ceil(vdiv * b^p / qstar): a case2
        # variable is vdiv/qstar * prod U_k^(e_k/d) with p the sum of the
        # positive e_k/d, and any other is a block value divided by its
        # scale (vdiv = p = qstar = 1)
        caps = {(t.varnames[0], t.vdiv,
                 sum(e for e in t.orig_exps if e > 0) // t.d, t.qstar)
                if t.kind == "case2" else (name, 1, 1, 1)
                for red in branches for t in red.terms
                for name in t.varnames}

        def lift(point, box, branches=branches, names=inner.variables):
            if any(x == 0 for x in point):
                return []
            values = dict(zip(names, point))
            return [p for red in branches
                    for p in lift_reduced_solution(red, values, box)]

        def inner_bound(b, caps=caps, names=inner.variables):
            need = {}
            for name, v, p, q in caps:
                need[name] = max(need.get(name, 0), -(-v * b**p // q))
            bounds = tuple(need.get(name, b) for name in names)
            if max(bounds, default=0) > _BLOCK_INNER_LIMIT:
                raise ResourceLimit(f"a reduced lift needs the inner set to "
                                    f"bound {max(bounds)}")
            return bounds

        families.append(MappedFamily(
            variables=list(branches[0].source.variables), inner=inner,
            lift=lift, inner_bound=inner_bound,
            exact_box=all(f.exact_box for f in inner.families),
            note=f"lift of {text}"))
    return families, status

# ---------------------------------------------------------------------------
# classification of coefficient families
# ---------------------------------------------------------------------------

def classify_family(rows: tuple[tuple[int, ...], ...]):
    """For a family of equations a*M1 + b*M2 = c*M3 given by exponent rows
    (coefficients symbolic): either the sufficient condition holds for some
    orientation (returns ('prop4', orientation, z)), or the reduced
    independent-monomial shape with unit coefficients
    (returns ('reduced', shape string))."""
    for i, (ia, ib, ig) in enumerate(_ORIENTATIONS):
        status, z = _system_solve(rows[ia], rows[ib], rows[ig], 1,
                                  budget=200000)
        if status == "feasible":
            return ("prop4", i, tuple(z))
    shapes = [_shape_of_exponents(exps) for _, exps in _block_systems(rows)]
    shapes.sort(key=_shape_sort_key, reverse=True)
    letters = iter("uvwrst")
    parts = []
    seen_const = False
    for shape in shapes:
        if shape == ():
            if seen_const:
                continue  # two constant blocks merge into one
            seen_const = True
            parts.append("C")
        else:
            body = "".join(
                f"{next(letters)}^{e}" if e != 1 else next(letters)
                for e in shape)
            parts.append(body)
    return ("reduced", "+".join(parts) + "=0")


def _shape_of_exponents(exps: list[int]):
    """The monomial shape of a block term: mixed signs collapse to a single
    d-th power (root criterion), all-negative to a constant, and non-negative
    lists with a common factor d >= 2 group into a d-th power of a product."""
    nz = [e for e in exps if e]
    if not nz:
        return ()
    if all(e < 0 for e in nz):
        return ()
    d = gcd(*nz)
    if any(e < 0 for e in nz):
        return (d,)
    if d >= 2 or len(nz) == 1:
        return (d,)
    return tuple(sorted(nz, reverse=True))


def _shape_sort_key(shape):
    return (len(shape), sorted(shape, reverse=True) if shape else [])


# enumeration of families by degree ----------------------------------------

def enumerate_families(degree: int):
    """Canonical exponent matrices (rows = monomials) of the three-monomial
    families of the given degree, up to renaming of variables and reordering
    of monomials.  A family is a set of at least three distinct exponent
    columns, one per variable, each with a zero entry (no variable shared by
    all three monomials) and a nonzero one; its rows are distinct and
    nonzero (no constant monomial), and its largest row sum is the degree."""
    columns = [col for col in itertools.product(range(degree + 1), repeat=3)
               if 0 in col and any(col)]
    out = set()

    def walk(start, chosen, sums):
        if len(chosen) >= 3 and max(sums) == degree and all(sums):
            rows = list(zip(*chosen))
            if len(set(rows)) == 3:
                out.add(min(
                    tuple(zip(*sorted(zip(*perm), reverse=True)))
                    for perm in itertools.permutations(rows)))
        for i in range(start, len(columns)):
            grown = tuple(s + e for s, e in zip(sums, columns[i]))
            if max(grown) <= degree:
                walk(i + 1, chosen + [columns[i]], grown)

    walk(0, [], (0, 0, 0))
    return sorted(out)


# ---------------------------------------------------------------------------
# cyclic equations x^a y^b + y^a z^b + z^a x^b = 0
# ---------------------------------------------------------------------------

@dataclass
class CyclicReport:
    a: int
    b: int
    case: str
    m: int
    solutions: SolutionSet
    citations: list[str] = field(default_factory=list)


def classify_cyclic(a: int, b: int, bound: int = 10_000) -> CyclicReport:
    if (a, b) == (0, 0):
        raise ValueError("(a, b) must not be (0, 0)")
    eq = _cyclic_equation(a, b)
    d = gcd(a, b)
    m = a * a - a * b + b * b
    if d == 1 and m < 3:
        report = solve(poly_to_string(eq.full_polynomial()) + "=0",
                       bound=bound)
        return CyclicReport(
            a, b, f"m = {m} < 3: delegated to the general solver", m,
            report.solutions)
    triv = trivial_solutions(eq.full_polynomial())
    if d == 2:
        return CyclicReport(a, b, "even-gcd: non-negative monomials", m, triv)
    case = (f"gcd {d} >= 3: no solutions with xyz != 0" if d >= 3 else
            f"coprime, m = {m} >= 3: xyz = 0 forced")
    return CyclicReport(a, b, case, m, triv,
                        ["Fermat's Last Theorem (Wiles 1995)"])


def _cyclic_equation(a: int, b: int) -> TrinomialEquation:
    def mono(e1, e2):
        parts = []
        for v, e in e1, e2:
            if e:
                parts.append(f"{v}^{e}")
        return "*".join(parts) if parts else "1"

    text = "+".join([mono(("x", a), ("y", b)), mono(("y", a), ("z", b)),
                     mono(("z", a), ("x", b))])
    return canonicalize(parse_equation(text))


# ---------------------------------------------------------------------------
# Monte Carlo experiment
# ---------------------------------------------------------------------------

def _prop4_condition(alpha, beta, gamma, budget=500000) -> tuple[bool, bool]:
    """(solvable in some orientation, hit unknown before the first feasible
    orientation).

    Orientation (ia, ib, ig) asks for z >= 0 with
    sum((row_ia - row_ib) z) = 0 and sum((row_ig - row_ia) z) = 1.  Written
    in P = sum((alpha_i - beta_i) z_i) and Q = sum((beta_i - gamma_i) z_i),
    the orientations (0, 1, 2), (0, 2, 1) and (1, 2, 0), taken in that
    order, ask for (P, Q) = (0, -1), (-1, 1) and (1, 0).  So one generator
    list (alpha_i - beta_i, beta_i - gamma_i) serves all three, with one
    cone and one lattice.  Each orientation's own generator list is the
    image of this one under a unimodular map, which carries the cone kind,
    the lattice and the search's node count along, so every status,
    'unknown' included, is the one its own list would give."""
    gens = [(a - b, b - g) for a, b, g in zip(alpha, beta, gamma)]
    unknown = False
    for status in monoid_contains_2d(gens, ((0, -1), (-1, 1), (1, 0)),
                                     budget):
        if status == "feasible":
            return True, unknown
        if status == "unknown":
            unknown = True
    return False, unknown


def _uniform_draws(rng: random.Random, d: int, count: int) -> list[int]:
    """[rng.randint(0, d) for _ in range(count)], drawn in bulk.

    CPython 3.11's randint(0, d) calls getrandbits(k), k = (d + 1).bit_length(),
    until the value is at most d, and getrandbits(k <= 32) is the next 32-bit
    Mersenne Twister word shifted right by 32 - k.  getrandbits(32 * w) holds
    the next w words, least significant first, so one call yields w
    candidates.  The generator may end up past the values returned.
    """
    k = (d + 1).bit_length()
    if k > 32:
        return [rng.randint(0, d) for _ in range(count)]
    shift = 32 - k
    cut = (d + 1) << shift  # word >> shift <= d  iff  word < cut
    out = []
    while len(out) < count:
        w = ((count - len(out)) << k) // (d + 1) + 8
        words = struct.unpack(f"<{w}I",
                              rng.getrandbits(32 * w).to_bytes(4 * w, "little"))
        out += [x >> shift for x in words if x < cut]
    del out[count:]
    return out


def _mc_chunk(args):
    n, d, seed, count, budget = args
    # the generator dies with the chunk, so bulk draws may overshoot it
    draws = _uniform_draws(random.Random(seed), d, 3 * n * count)
    feasible = 0
    unknown = 0
    for s in range(0, len(draws), 3 * n):
        alpha = draws[s:s + n]
        beta = draws[s + n:s + 2 * n]
        gamma = draws[s + 2 * n:s + 3 * n]
        ok, unk = _prop4_condition(alpha, beta, gamma, budget)
        feasible += ok
        unknown += unk
    return feasible, unknown


@dataclass
class MonteCarloResult:
    n: int
    d: int
    samples: int
    feasible: int
    unknown: int

    @property
    def proportion(self) -> float:
        return self.feasible / self.samples


def monte_carlo_prop4(n: int, d: int, samples: int, seed: int,
                      threads: int = 1, budget: int = 500000,
                      chunk: int = 250) -> MonteCarloResult:
    """Proportion of random exponent draws (uniform on [0, d]) for which the
    sufficient condition holds in some orientation.  Deterministic for fixed
    (n, d, samples, seed) regardless of thread count: fixed-size chunks get
    seeds derived from the chunk index."""
    if n < 1 or samples < 1 or d < 0:
        raise ValueError("need n >= 1, samples >= 1, d >= 0")
    chunks = []
    done = 0
    idx = 0
    while done < samples:
        size = min(chunk, samples - done)
        chunks.append((n, d, (seed << 20) ^ (idx * 0x9E3779B1), size, budget))
        done += size
        idx += 1
    feasible = unknown = 0
    if threads > 1:
        import concurrent.futures as cf

        with cf.ProcessPoolExecutor(max_workers=threads) as pool:
            for f, u in pool.map(_mc_chunk, chunks):
                feasible += f
                unknown += u
    else:
        for args in chunks:
            f, u = _mc_chunk(args)
            feasible += f
            unknown += u
    return MonteCarloResult(n, d, samples, feasible, unknown)


# ---------------------------------------------------------------------------
# master dispatcher
# ---------------------------------------------------------------------------

@dataclass
class SolveReport:
    input_text: str
    canonical: str
    path: list[str]
    solutions: SolutionSet
    reduced: list[str] = field(default_factory=list)
    base_records: list[BaseSolveRecord] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def status(self) -> Status:
        return self.solutions.status


def solve(text_or_poly, bound: int = 10_000, backend: str | None = None,
          budget: int = 1_000_000) -> SolveReport:
    """End-to-end solver for any parsed polynomial equation: univariate and
    one/two-monomial shapes directly, two-variable trinomials through the
    complete pipeline, n-variable trinomials through the direct formula, the
    sufficient condition, or the reduction to independent monomials."""
    start = time.perf_counter()
    if isinstance(text_or_poly, str):
        poly = parse_equation(text_or_poly)
        text = text_or_poly
    else:
        poly = text_or_poly
        text = poly_to_string(poly) + "=0"
    path: list[str] = []
    records: list[BaseSolveRecord] = []
    reduced_strs: list[str] = []

    nmon = len(poly.monomials)
    variables = list(poly.variables)
    if nmon == 0:
        path.append("identically-zero")
        sols = SolutionSet(variables, families=[zero_family(variables, set())],
                           equation=poly)
    elif not variables:
        path.append("constant")
        sols = SolutionSet([], status=COMPLETE)
        if poly.evaluate({}) == 0:
            sols.add_finite(())
    elif nmon == 1:
        path.append("one-monomial")
        sols = trivial_solutions(poly)
    elif len(variables) == 1:
        path.append("univariate")
        sols = _solve_univariate_poly(poly)
    elif nmon == 2:
        path.append("two-monomial")
        sols = solve_two_monomial(poly).union(trivial_solutions(poly))
    else:
        eq = canonicalize(poly)
        if len(eq.variables) == 1:
            path.append("univariate")
            sols = _solve_univariate_poly(poly)
        elif len(eq.variables) == 2:
            rep = solve_two_var(eq, bound=bound, backend=backend)
            path.extend(["two-variable"] + rep.path)
            records.extend(rep.base_records)
            sols = rep.solutions
        else:
            sols, extra_path, reduced_strs = _solve_multivar(
                eq, bound, backend, budget)
            path.extend(extra_path)
    report = SolveReport(text, poly_to_string(poly) + "=0", path, sols,
                         reduced_strs, records,
                         time.perf_counter() - start)
    return report


def _solve_multivar(eq: TrinomialEquation, bound, backend, budget):
    path = ["n-variable"]
    out = trivial_solutions(eq.full_polynomial())
    cert = check_prop4(eq, budget)
    if cert is not None and cert.unknown:
        path.append("feasibility-unknown")
        out.status = out.status.combine(UNKNOWN)
        return out, path, []
    if cert is not None and cert.t is not None:
        path.append("direct-formula")
        out.families.append(direct_formula(eq, cert))
        out.provenance.append("direct parametrization of all nontrivial "
                              "solutions")
        return out, path, []
    # a certificate without a direct formula still guarantees that the
    # reduced equations have the solvable shapes
    path.append("reduction" if cert is None else "sufficient-condition")
    reduced = reduce_to_independent(eq)
    families, status = _lift_reduced(reduced, bound, backend)
    out.families.extend(families)
    out.status = out.status.combine(status)
    return out, path, sorted({red.describe() for red in reduced})


def _solve_univariate_poly(poly: Polynomial) -> SolutionSet:
    var = poly.variables[0]
    out = SolutionSet([var], status=COMPLETE, equation=poly)
    for r in integer_roots(poly.coefficients(var)):
        out.add_finite((r,))
    return out
