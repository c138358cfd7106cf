"""n-variable machinery: the direct parametrization, the sufficient-condition
solver, the reduction of an arbitrary three-monomial equation to equations
with independent monomials, family classification, cyclic equations, the
Monte-Carlo experiment, and the master dispatcher.  Separated-linear
equations a*x + P(rest) = 0 go to basesolve.solve_separated_linear, the
routine of the linear base equation, which this module re-exports.  The
solutions with a zero coordinate come from twomon.trivial_solutions, the one
routine for them, with a zero family per minimal zero set only; this module
re-exports it too.

A reduction's lift family lists its reduced solution set only as far as the
branches' bases and particular solutions let a box point reach, and lifts
that listing in one call, each distinct input once through a plan per
branch.  The solve and verify routes build no reference cycles.
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
    iroot,
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
    global sign and the magnitudes of the reduced variables (which fix the
    former, see _reduced_lift).  So branches equal up to negating sign-free
    coefficients and all three coefficients at once lift to the same
    points: a sign class, which reduce_to_independent emits once, with its
    sign-free coefficients and its first other coefficient positive.
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

    # per prime and class, each particular minimal solution z0 as what it
    # multiplies into the particular solution and into one of A, B, C:
    # (p^z0, index, numerator, denominator)
    per_prime: dict[tuple[int, int], list] = {}
    for p in primes:
        ap, bp, cp = valuation(a, p), valuation(b, p), valuation(c, p)
        for cls, (coefrow, rhs) in enumerate((
                (diff_ab, bp - ap), (diff_ag, cp - ap), (diff_bg, cp - bp))):
            if rhs == 0:
                sols = [(0,) * nv]
            else:
                mb = solve_system_nonneg([coefrow], [rhs], budget=200000)
                if mb.status == "budget":
                    raise ResourceLimit(f"minimal solutions of {coefrow}.z = "
                                        f"{rhs} cut at the node budget")
                sols = mb.particular
            factors = per_prime[(p, cls)] = []
            for z0 in sols:
                ab, ag, bg = (sum(d * z for d, z in zip(row, z0))
                              for row in (diff_ab, diff_ag, diff_bg))
                # P1: a-term = b-term <= c-term scales C, P2: a-term =
                # c-term < b-term scales B, P3: b-term = c-term < a-term
                # scales A
                k = (cp - ap - ag, bp - cp + bg, ap - bp + ab)[cls]
                factors.append((tuple(p ** z for z in z0), 2 - cls,
                                p ** max(k, 0), p ** max(-k, 0)))

    exps = (g_exp, f_exp, e_exp)
    # (pos, signed numerator, denominator) -> the options of that value
    term_options: dict[tuple[int, int, int], list] = {}
    term_ids: dict[ReducedTerm, int] = {}

    def options(pos, num, den):
        """Each option of block pos's term num/den * prod U^exps as (flip,
        class form, that form negated), the same term twice and flip None
        when it is sign-free, else flip True when the class form's
        coefficient is negative; each term as (term, its index among the
        distinct terms)."""
        # the options of -X are those of X with every coefficient negated;
        # _block_term_options lists a constant term's options positive
        # first, but when they take both signs X and -X have the same
        # options, so the negated order meets no class form earlier
        if (pos, num, den) not in term_options:
            entries = []
            for t in _block_term_options(Fraction(abs(num), den), exps[pos],
                                         "wvu"[pos]):
                pair = ((replace(t, coeff=abs(t.coeff)),) * 2
                        if any(e % 2 for e in t.exps) else
                        (t, replace(t, coeff=-t.coeff)))
                form, neg = ((u, term_ids.setdefault(u, len(term_ids)))
                             for u in pair)
                entries.append((None if pair[0] is pair[1] else t.coeff < 0,
                                form, neg))
            term_options[(pos, abs(num), den)] = entries
            term_options[(pos, -abs(num), den)] = [
                (flip if flip is None else not flip, neg, form)
                for flip, form, neg in entries]
        return term_options[(pos, num, den)]

    out: list[ReducedEquation] = []
    seen_coeffs, seen_branches = set(), set()
    for split in itertools.product(range(3), repeat=len(primes)):
        for combo in itertools.product(*[per_prime[(p, cls)]
                                         for p, cls in zip(primes, split)]):
            num, den = [1, 1, 1], [1, 1, 1]
            particular = (1,) * nv
            for factors, idx, up, down in combo:
                particular = tuple(map(int.__mul__, particular, factors))
                num[idx] *= up
                den[idx] *= down
            # each prime scales one coefficient, so num/den is in lowest
            # terms and the pair is the coefficient
            key = (*num, *den, particular)
            if key in seen_coeffs:
                continue
            seen_coeffs.add(key)
            # the four sign patterns (1, s2, s3) cover all eight up to a
            # global flip; each branch is emitted in its class form, the
            # first time it is met: the flip of its first option that is
            # not sign-free decides whether every option is negated
            a_opts = options(0, num[0], den[0])
            for b_opts, c_opts in itertools.product(
                    (options(1, num[1], den[1]), options(1, -num[1], den[1])),
                    (options(2, num[2], den[2]), options(2, -num[2], den[2]))):
                for oa in a_opts:
                    for ob in b_opts:
                        for oc in c_opts:
                            flip = (oa[0] if oa[0] is not None else
                                    ob[0] if ob[0] is not None else
                                    bool(oc[0]))
                            ta, tb, tc = (oa[1 + flip], ob[1 + flip],
                                          oc[1 + flip])
                            branch = (particular, ta[1], tb[1], tc[1])
                            if branch in seen_branches:
                                continue
                            seen_branches.add(branch)
                            out.append(ReducedEquation(
                                source=eq, terms=(ta[0], tb[0], tc[0]),
                                particular=particular, bases=bases,
                                sign_table=sign_table))
                            if len(out) > _MAX_BRANCHES:
                                raise ResourceLimit(
                                    "reduction branch explosion")
    return out


# ---------------------------------------------------------------------------
# solving reduced equations and lifting back
# ---------------------------------------------------------------------------

def _sparse(vec) -> list[tuple[int, int]]:
    return [(i, e) for i, e in enumerate(vec) if e]


def _branch_plan(red: ReducedEquation, names: list[str], bound: int):
    """What lifting a reduced point through branch red into the cube of
    bound `bound` needs from the branch alone, or None when no point can
    reach the cube: (particular solution, per term with block variables its
    kind, data and sparse basis vectors, the sparse free basis vectors).
    Term data: a constant term's side magnitudes inside the cube; a case3
    term's (point index, scale) per block variable; a case2 term's
    (reduced exponents, qstar, point index, vdiv)."""
    if any(m > bound for m in red.particular):
        return None
    terms, free = [], []
    for term, basis in zip(red.terms, red.bases):
        free += [_sparse(basis[i]) for i in term.free_idx]
        if term.kind == "const":
            support = [k for k, e in enumerate(term.side_exps) if e]
            data = [t for t in term.side_mags if max(t) <= bound]
            if support and not data:
                return None
        elif term.kind == "case3":
            support = [k for k, e in enumerate(term.exps) if e]
            data = [(names.index(term.varnames[k]), term.scales[k])
                    for k in support]
        else:
            support = [k for k, e in enumerate(term.orig_exps) if e]
            data = ([term.orig_exps[k] // term.d for k in support],
                    term.qstar, names.index(term.varnames[0]), term.vdiv)
        if support:
            terms.append((term.kind, data, [_sparse(basis[k])
                                            for k in support]))
    return red.particular, terms, free


def _lift_through(plan, mags, bound: int) -> list[list[int]]:
    """The candidate magnitude vectors of the source variables that branch
    plan gives a reduced point with magnitudes `mags`: the particular
    solution times the block values of each term's fiber, then times every
    power of each free basis vector, kept while inside the cube.  Block
    values are at least 1, so magnitudes only grow and a vector that leaves
    the cube never comes back."""
    particular, terms, free = plan
    cands = [particular]
    for kind, data, vecs in terms:
        if kind == "const":
            fiber = data
        elif kind == "case3":
            fiber = [[mags[i] * scale for i, scale in data]]
        else:
            exps, qstar, i, vdiv = data
            fiber = power_fiber(exps, qstar * mags[i], vdiv, bound)
        grown = []
        for base in cands:
            for values in fiber:
                cand = list(base)
                for val, vec in zip(values, vecs):
                    for i, e in vec:
                        cand[i] *= val ** e
                if max(cand) <= bound:
                    grown.append(cand)
        if not grown:
            return []
        cands = grown
    for vec in free:
        grown = []
        for base in cands:
            for val in itertools.count(1):
                cand = list(base)
                for i, e in vec:
                    cand[i] *= val ** e
                if max(cand) > bound:
                    break
                grown.append(cand)
        cands = grown
    return cands


def _reduced_lift(branches: list[ReducedEquation], names: list[str]):
    """The batch lift of the branches of one reduced equation over `names`.
    A point lifts only with no zero coordinate and term values T_j that sum
    to zero, whose signs their magnitudes then fix up to a global sign; so
    the point's magnitudes alone decide its lifts, and each distinct one is
    lifted once, through a plan per branch built once per call.  A candidate
    magnitude vector lifts iff the source monomial magnitudes are in
    proportion |M_j| = F * |T_j| for a common F > 0, under every sign vector
    of the source's sign table that gives the monomials the signs of the
    T_j or of the -T_j."""
    eq = branches[0].source
    # the branches print the same, so their terms share coefficients and
    # exponents, hence term values; they share the source's sign table
    recipe = [(t.coeff, [(names.index(v), e)
                         for v, e in zip(t.varnames, t.exps) if e])
              for t in branches[0].terms]
    table = branches[0].sign_table
    # each source monomial as |coefficient|, variable indices, exponents
    monos = [(abs(co), [i for i, e in enumerate(row) if e],
              [e for e in row if e]) for co, row in zip(eq.coeffs, eq.rows)]

    def lift(points, bound):
        plans = [plan for plan in (_branch_plan(red, names, bound)
                                   for red in branches) if plan]
        out, seen = set(), set()
        for point in points:
            tvals = []
            for coeff, powers in recipe:
                for i, e in powers:
                    coeff *= point[i] ** e
                tvals.append(coeff)
            mags = tuple(map(abs, point))
            if 0 in point or sum(tvals) or 0 in tvals or mags in seen:
                continue
            seen.add(mags)
            pattern = tuple(t > 0 for t in tvals)
            signs = (table.get(pattern, [])
                     + table.get(tuple(not p for p in pattern), []))
            if not signs:
                continue
            t0, t1, t2 = map(abs, tvals)
            for plan in plans:
                for cand in _lift_through(plan, mags, bound):
                    m0, m1, m2 = [co * prod(map(pow, map(cand.__getitem__,
                                                         idx), exps))
                                  for co, idx, exps in monos]
                    if m0 * t1 == m1 * t0 and m1 * t2 == m2 * t1:
                        out.update(tuple([-v if s else v
                                          for v, s in zip(cand, eps)])
                                   for eps in signs)
        return out

    return lift


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

    def lift(points, bound):
        out = []
        for point in points:
            vals = dict(zip(inner.variables, point))
            # a block that is not a variable or is 0 lifts nothing
            fibers = [[t for t in exact_products([e for _, e in parts],
                                                 vals[wname])
                       if all(abs(x) <= bound for x in t)]
                      if vals.get(wname) else []
                      for wname, _, parts in live]
            for combo in itertools.product(*fibers):
                env = {v: val for (_, _, parts), tup in zip(live, combo)
                       for (v, _), val in zip(parts, tup)}
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
    gives it: one family per reduced equation, which lists the reduced
    solution set at the bounds of _reduced_inner_bound and lifts that
    listing in one _reduced_lift call, and the weakest status among them."""
    groups: dict[str, list[ReducedEquation]] = {}
    for red in reduced:
        groups.setdefault(red.describe(), []).append(red)
    families = []
    status = COMPLETE
    for text, branches in groups.items():
        inner = solve_reduced(branches[0], bound=bound, backend=backend)
        status = status.combine(inner.status)
        families.append(MappedFamily(
            variables=list(branches[0].source.variables), inner=inner,
            lift=_reduced_lift(branches, inner.variables),
            inner_bound=_reduced_inner_bound(branches, inner.variables),
            exact_box=all(f.exact_box for f in inner.families),
            note=f"lift of {text}"))
    return families, status


def _reduced_inner_bound(branches: list[ReducedEquation], names: list[str]):
    """The bound per reduced variable that the lift family of the branches
    lists its inner set at for a cube of bound b: the most the variable can
    be at a box point, over the branches whose particular solution fits the
    cube.  A source coordinate is x_i = +-P_i * prod U_k^{v_k,i} over the
    block variables U_k and their basis vectors v_k, and every |U_k| >= 1,
    so |U_k| is at most cap_k, the least (b // P_i)^{1/v_k,i}.  A case3
    variable is U_k / scale_k; a case2 variable is vdiv * prod
    U_k^(e_k/d) / qstar up to sign, where a factor of negative exponent is
    at most 1."""
    def inner_bound(b):
        need = dict.fromkeys(names, 0)
        for red in branches:
            if any(m > b for m in red.particular):
                continue
            room = [b // m for m in red.particular]
            for term, basis in zip(red.terms, red.bases):
                caps = [min(iroot(room[i], v) for i, v in _sparse(vec))
                        for vec in basis]
                if term.kind == "case3":
                    for name, e, cap, scale in zip(term.varnames, term.exps,
                                                   caps, term.scales):
                        if e:
                            need[name] = max(need[name], cap // scale)
                elif term.kind == "case2":
                    name = term.varnames[0]
                    need[name] = max(need[name], term.vdiv * prod(
                        cap ** (e // term.d)
                        for cap, e in zip(caps, term.orig_exps) if e > 0)
                        // term.qstar)
        bounds = tuple(need.values())
        if max(bounds, default=0) > _BLOCK_INNER_LIMIT:
            raise ResourceLimit(f"a reduced lift needs the inner set to "
                                f"bound {max(bounds)}")
        return bounds

    return inner_bound


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
