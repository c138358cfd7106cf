"""Solvers for the base equation shapes a*y^m = b*x^n + c, quadratic forms
A*u^2 + B*v^2 + C = 0, trinomials a*x^n + b*x^k*y^l + c*y^m = 0 under
Runge's condition n*l + m*k > m*n, and separated-linear equations
a*x + P(rest) = 0 in any number of variables, by residue classes.  The
base equations and quadratic forms have three nonzero coefficients, as
their callers pass them; an equation of two monomials is twomon's.

Everything elementary is solved completely (m = 1, which is separated
linear, quadratics, definite or factorable power forms, p-adically
impossible equations).  The
remaining Thue / superelliptic cases run a bounded search whose status is
SearchedToBound unless an external backend certifies completeness, or the
equation has |C| = 1 in reduced two-power form and the search exhibits the
unique positive solution (uniqueness by Bennett's theorem on |ax^n - by^n|=1).

Under Runge's condition the answer is finite and complete.  At each prime
the least term valuation is attained twice.  When the middle term is one of
the two, the condition bounds v_p(x) and v_p(y); otherwise they are free
only along (m', n') = (m, n) / gcd(n, m).  So x = X*u^m', y = Y*u^n' with
(X, Y) from finitely many candidates, and the equation fixes u (C. Runge,
J. reine angew. Math. 100, 1887; P. G. Walsh, Acta Arith. 62, 1992).
"""

from __future__ import annotations

import dataclasses
import shlex
import subprocess
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, isqrt

from . import expr as ex
from .eqparse import Monomial, Polynomial
from .intcore import (
    divisors_k,
    exact_iroot,
    exact_roots,
    factorize,
    iroot,
    rational_root_d,
    ResourceLimit,
    roots_mod,
    shifted_power,
    valuation,
)
from .lindioph import valuation_candidates
from .solset import (
    COMPLETE,
    AllIntegers,
    ConstructionError,
    RecurrenceFamily,
    SolutionFamily,
    SolutionSet,
    searched,
)

BENNETT_CITATION = ("uniqueness of the positive solution of |a*x^n - b*y^n| = 1 "
                    "(Bennett, J. reine angew. Math. 535, 2001)")


#: Most seeds v the indefinite case of solve_quadratic scans.
_PELL_SEED_LIMIT = 2_000_000
#: Most residue classes (one family each) of a separated-linear equation,
#: and most residue tuples its scan visits when two or more variables
#: stand beside the linear one.
_LINEAR_CLASS_LIMIT = 1_000_000
#: Most prime-stripping rounds of _twopower_descend.
_DESCENT_ROUNDS = 64
#: Seconds an external backend may take for one base equation.
_BACKEND_TIMEOUT = 600.0


class RungeConditionError(ValueError):
    pass


@dataclass
class BaseSolveRecord:
    """One solved base equation, for dispatch traces."""

    description: str
    solutions: list[tuple[int, int]]
    status: str


# ---------------------------------------------------------------------------
# Quadratic forms A u^2 + B v^2 + C = 0
# ---------------------------------------------------------------------------

def pell_fundamental(d: int, limit: int | None = None) -> tuple[int, int]:
    """Least (t, s) with t^2 - d*s^2 = 1, t,s > 0; d a positive non-square.

    The convergent numerators only grow and t is the last of them, so the
    expansion raises ResourceLimit as soon as one reaches `limit`:
    solve_quadratic passes the least t whose seed scan would be too long."""
    a0 = isqrt(d)
    if a0 * a0 == d:
        raise ValueError("d must not be a square")
    m, den, a = 0, 1, a0
    num1, num = 1, a0
    den1, den_c = 0, 1
    while num * num - d * den_c * den_c != 1:
        if limit is not None and num >= limit:
            raise ResourceLimit(
                "Pell seed scan of at least "
                f"2^{_PELL_SEED_LIMIT.bit_length() - 1} values")
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        num1, num = num, a * num + num1
        den1, den_c = den_c, a * den_c + den1
    return num, den_c


def solve_quadratic(A: int, B: int, C: int,
                    variables: list[str] | None = None) -> SolutionSet:
    """Complete integer solution set of A u^2 + B v^2 + C = 0 for A, B, C
    nonzero; with a zero coefficient the equation has at most two monomials
    (twomon's business), and ValueError is raised."""
    if A * B * C == 0:
        raise ValueError("need A, B, C nonzero")
    variables = variables or ["u", "v"]
    eq = Polynomial([Monomial.make(A, {variables[0]: 2}),
                     Monomial.make(B, {variables[1]: 2}),
                     Monomial.make(C, {})], list(variables))
    out = SolutionSet(variables, status=COMPLETE, equation=eq)

    if A * B > 0:
        for sol in _twopower_definite(_TwoPower(A, B, -C, 2, 2)):
            out.add_finite(sol)
        return out

    # indefinite: A*B < 0
    D = -A * B
    s0 = exact_iroot(D, 2)
    N = -A * C
    if s0 is not None:
        # (Au - s0 v)(Au + s0 v) = N with N != 0
        for d in divisors_k(N, 1):
            e = N // d
            if (d + e) % 2 or (e - d) % 2:
                continue
            x, y2 = (d + e) // 2, (e - d) // 2
            if x % A or y2 % s0:
                continue
            out.add_finite((x // A, y2 // s0))
        return out

    # the scan below runs over vmin <= v <= vmax; t_limit is the least t
    # that makes it longer than _PELL_SEED_LIMIT
    if N > 0:
        vmin = 0
        t_limit = 1 - (-2 * D * _PELL_SEED_LIMIT**2 // N)
    else:
        vmin = isqrt((-N) // D)
        t_limit = -(2 * D * (_PELL_SEED_LIMIT + vmin) ** 2 // N) - 1
    t, s = pell_fundamental(D, t_limit)
    matrix = ((t, B * s), (-A * s, t))
    seeds = set()
    if N > 0:
        vmax = isqrt((N * (t - 1)) // (2 * D)) + 1
    else:
        vmax = isqrt(((-N) * (t + 1)) // (2 * D)) + 1
    if vmax - vmin > _PELL_SEED_LIMIT:
        raise ResourceLimit("Pell seed scan of about "
                            f"2^{(vmax - vmin).bit_length()} values")
    for v in range(vmin, vmax + 1):
        xx = N + D * v * v
        if xx < 0:
            continue
        x = exact_iroot(xx, 2)
        if x is None or x % A:
            continue
        for su in {x // A, -x // A}:
            for sv in {v, -v}:
                if A * su * su + B * sv * sv + C == 0:
                    seeds.add((su, sv))
    if seeds:
        fam = RecurrenceFamily(variables=list(variables),
                               seeds=sorted(seeds), matrix=matrix,
                               note=f"Pell orbit, automorph of ({A},{B})")
        out.families.append(fam)
    return out


# ---------------------------------------------------------------------------
# Two-power equations A x^N + B y^M = C: certificates and search
# ---------------------------------------------------------------------------

@dataclass
class _TwoPower:
    """A x^N + B y^M = C with the original variables recoverable via
    x_orig = mul_x * x, y_orig = mul_y * y."""

    A: int
    B: int
    C: int
    N: int
    M: int
    mul_x: int = 1
    mul_y: int = 1


def _twopower_descend(tp: _TwoPower):
    """Strip forced prime powers from the variables; detect p-adic
    impossibility.  Returns (tp', empty: bool)."""
    for _ in range(_DESCENT_ROUNDS):
        g = gcd(gcd(tp.A, tp.B), tp.C)
        if g > 1:
            tp = _TwoPower(tp.A // g, tp.B // g, tp.C // g, tp.N, tp.M,
                           tp.mul_x, tp.mul_y)
        for p in factorize(abs(tp.A) * abs(tp.B) * abs(tp.C)).primes():
            ap, bp, cp = (valuation(tp.A, p), valuation(tp.B, p),
                          valuation(tp.C, p))
            feas = _feasible_valuations(ap, bp, cp, tp.N, tp.M, p)
            if feas == "empty":
                return tp, True
            if feas == "x":
                tp = _TwoPower(tp.A * p**tp.N, tp.B, tp.C, tp.N, tp.M,
                               tp.mul_x * p, tp.mul_y)
                break
            if feas == "y":
                tp = _TwoPower(tp.A, tp.B * p**tp.M, tp.C, tp.N, tp.M,
                               tp.mul_x, tp.mul_y * p)
                break
        else:  # no prime forced a factor
            return tp, False
    return tp, False


def _feasible_valuations(ap: int, bp: int, cp: int, N: int, M: int, p: int):
    """Classify the p-adic options for (v_p(x), v_p(y)) in A x^N + B y^M = C.

    Returns 'empty' (no option: the equation has no integer solutions with
    xy != 0 ... and none with xy = 0 either, checked separately), 'x' or 'y'
    (that variable is forced divisible by p), or 'free'.
    """
    options = []
    # alpha, beta are v_p(x), v_p(y); term valuations ap+N*alpha, bp+M*beta, cp
    # Case I: ap + N a = bp + M b <= cp
    for a in range(0, cp // N + 2):
        lhs = ap + N * a
        if lhs > cp:
            break
        if (lhs - bp) % M == 0 and lhs >= bp:
            options.append((a, (lhs - bp) // M))
    # Case II: ap + N a = cp <= bp + M b
    if (cp - ap) % N == 0 and cp >= ap:
        a = (cp - ap) // N
        b_min = max(0, -(-(cp - bp) // M))
        options.append((a, b_min))
    # Case III: bp + M b = cp <= ap + N a
    if (cp - bp) % M == 0 and cp >= bp:
        b = (cp - bp) // M
        a_min = max(0, -(-(cp - ap) // N))
        options.append((a_min, b))
    # xy = 0 cases are handled by the caller's direct substitution; here a
    # solution with x = 0 corresponds to alpha = infinity, covered by case III
    # tails, and vice versa, so `options` nonempty is what matters.
    if not options:
        return "empty"
    if all(a >= 1 for a, _ in options):
        return "x"
    if all(b >= 1 for _, b in options):
        return "y"
    return "free"


def _twopower_axis_solutions(tp: _TwoPower) -> list[tuple[int, int]]:
    """Solutions with x = 0 or y = 0 (finitely many, since C != 0)."""
    out = []
    # x = 0: B y^M = C
    if tp.C % tp.B == 0:
        out.extend((0, y) for y in exact_roots(tp.C // tp.B, tp.M))
    if tp.C % tp.A == 0:
        out.extend((x, 0) for x in exact_roots(tp.C // tp.A, tp.N))
    return sorted(set(out))


#: Primes whose residues sieve the x of a bounded search.  A prime q helps
#: only when gcd(M, q - 1) > 1, since otherwise every residue is an M-th power.
_SIEVE_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97)


def _twopower_search(tp: _TwoPower, bound: int) -> list[tuple[int, int]]:
    """All solutions with |x| <= bound (y solved exactly by root extraction).

    Only the x that pass a residue sieve are visited.  For a prime q not
    dividing B, an integer solution (x, y) makes (C - A x^N) / B = y^M an
    M-th power residue modulo q (0 included); and B divides C - A x^N, so
    x passes the sieve modulo |B| as well.  The sieve thus keeps the x of
    every solution, and each survivor is checked exactly as a full scan
    would check it: the result equals a scan of every x.  A modulus q is
    sieved only while at least q survivors remain, since listing its
    residues costs about as much as testing that many survivors.  Each
    prime's one-period pattern (q bits, from `_sieve_period`) is tiled to
    the bound.
    """
    out = set(_twopower_axis_solutions(tp))
    A, B, C, N, M = tp.A, tp.B, tp.C, tp.N, tp.M
    absB = abs(B)
    # bit i of the mask stands for x = i - bound
    mask = ((1 << (2 * bound + 1)) - 1) ^ (1 << bound)
    for q in _SIEVE_PRIMES:
        if gcd(M, q - 1) == 1 or B % q == 0:
            continue
        if mask.bit_count() < q:
            break
        b_inv = pow(B, -1, q)
        mask &= _tile(_sieve_period(N, M, q, C * b_inv % q, A * b_inv % q),
                      q, bound)
    if 1 < absB <= mask.bit_count():
        period = "".join("0" if (C - A * pow(r, N, absB)) % absB else "1"
                         for r in reversed(range(absB)))
        mask &= _tile(int(period, 2), absB, bound)
    bits = bin(mask)[:1:-1]
    i = bits.find("1")
    while i >= 0:
        x = i - bound
        i = bits.find("1", i + 1)
        rem = C - A * x**N
        if rem % B:
            continue
        val = rem // B
        if val == 0:
            continue
        for y in exact_roots(val, M):
            out.add((x, y))
    return sorted(out)


@lru_cache(maxsize=1024)
def _sieve_table(N: int, M: int, q: int):
    """The M-th power residues modulo q (0 included) as a frozenset, and
    r^N modulo q for r = 0, ..., q - 1: constants of (N, M, q) alone."""
    return (frozenset(pow(y, M, q) for y in range(q)),
            tuple(pow(r, N, q) for r in range(q)))


def _sieve_period(N: int, M: int, q: int, c: int, a: int) -> int:
    """Bit r set exactly when c - a*r^N is an M-th power residue modulo q:
    the x = r (mod q) that pass the sieve of c - a*x^N = y^M."""
    powers, nth = _sieve_table(N, M, q)
    return sum(1 << r for r, t in enumerate(nth) if (c - a * t) % q in powers)


def _tile(period: int, q: int, bound: int) -> int:
    """Bits i in [0, 2*bound] set exactly when bit (i - bound) % q of the
    q-bit `period` is: the period rotated to start at x = -bound, then
    tiled by doubling shifts."""
    length = 2 * bound + 1
    start = -bound % q
    pattern = (period >> start) | ((period << (q - start)) & ((1 << q) - 1))
    width = q
    while width < length:
        pattern |= pattern << width
        width *= 2
    return pattern & ((1 << length) - 1)


def _twopower_factorable(tp: _TwoPower) -> list[tuple[int, int]] | None:
    """Complete solving when N == M and -B/A is a D-th power of a rational
    p/q: with U = q x and V = p y the equation reads U^D - V^D = T for
    T = C q^D / A, so U - V = d divides T, and V solves
    (V + d)^D - V^D = T (see _power_difference_roots)."""
    if tp.N != tp.M:
        return None
    D = tp.N
    root = rational_root_d(Fraction(-tp.B, tp.A), D)
    if root is None:
        return None
    p, q = root.numerator, root.denominator
    # A q^D x^D - A (p y)^D = C q^D, i.e. U^D - V^D = C q^D / A
    if (tp.C * q**D) % tp.A:
        return []
    T = tp.C * q**D // tp.A
    out = set()
    for d in divisors_k(T, 1):
        for v in _power_difference_roots(d, D, T):
            u = v + d
            if u % q or v % p:
                continue
            x, y = u // q, v // p
            if tp.A * x**D + tp.B * y**D == tp.C:
                out.add((x, y))
    return sorted(out)


def _power_difference_roots(d: int, D: int, T: int) -> list[int]:
    """Every integer v with f(v) = (v + d)^D - v^D = T, sorted; d != 0 and
    D >= 2.

    With s the sign of d, s*f is strictly increasing for v >= -d/2, and
    for even D on all of Z; for odd D, f(-d - v) = f(v) mirrors the other
    half.  So one root at most lies at v >= -d/2 (or anywhere, for even
    D), found by doubling steps and bisection."""
    s = 1 if d > 0 else -1

    def g(v):
        return s * ((v + d) ** D - v**D - T)

    lo, step = -(d // 2), 1  # the least integer >= -d/2
    while D % 2 == 0 and g(lo) > 0:
        lo, step = lo - step, 2 * step
    if g(lo) > 0:
        return []
    hi, step = lo, 1
    while g(hi) < 0:
        lo, hi, step = hi, hi + step, 2 * step
    while hi - lo > 1:  # g(lo) <= 0 <= g(hi)
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if g(mid) < 0 else (lo, mid)
    roots = {v for v in (lo, hi) if g(v) == 0}
    if D % 2:
        roots |= {-d - v for v in roots}
    return sorted(roots)


def _twopower_definite(tp: _TwoPower) -> list[tuple[int, int]] | None:
    if tp.N % 2 or tp.M % 2 or tp.A * tp.B < 0:
        return None
    sign = 1 if tp.A > 0 else -1
    if tp.C * sign < 0:
        return []
    limit = iroot(abs(tp.C) // abs(tp.A), tp.N) + 1
    out = set()
    for x in range(0, limit + 1):
        rem = tp.C - tp.A * x**tp.N
        if rem % tp.B:
            continue
        ys = exact_roots(rem // tp.B, tp.M)
        out.update((sx, sy) for sx in (x, -x) for sy in ys)
    return sorted(out)


def _twopower_bennett(tp: _TwoPower, found: list[tuple[int, int]]) -> bool:
    """With N == M = D >= 3 and |C| = 1, every solution with xy != 0 maps to
    a positive solution of ||A| u^D - |B| v^D| = 1 (odd D absorbs signs; even
    D with equal signs is the definite case).  That equation has at most one
    positive solution, so once the search exhibits it, the list is complete."""
    if tp.N != tp.M or tp.N < 3 or abs(tp.C) != 1:
        return False
    if tp.N % 2 == 0 and tp.A * tp.B > 0:
        return False
    return any(x != 0 and y != 0 for x, y in found)


def _twopower_terminal(tp: _TwoPower, bound: int):
    """The certificates and the bounded search, in that order, for a
    descended A x^N + B y^M = C with C != 0.  Returns (solutions, status
    string, provenance)."""
    sols = _twopower_definite(tp)
    if sols is not None:
        return sols, "complete-definite", []
    sols = _twopower_factorable(tp)
    if sols is not None:
        return sols, "complete-factored", []
    sols = _twopower_search(tp, bound)
    if _twopower_bennett(tp, sols):
        return sols, "complete-bennett", [BENNETT_CITATION]
    return sols, f"searched({bound})", []


def _twopower_sign_class(tp: _TwoPower):
    """The representative (A', B', C, N, M) of tp's sign class under
    x -> -x (odd N), y -> -y (odd M) and a global sign flip, with the signs
    (ex, ey) that carry each solution (x, y) of the representative to the
    solution (ex*x, ey*y) of tp; C != 0.  It is the least member as a
    tuple, so the global flip g makes negative the first of A, B, C whose
    sign no other flip can change, and ex (odd N), ey (odd M) make A', B'
    negative."""
    A, B, C, N, M = tp.A, tp.B, tp.C, tp.N, tp.M
    g = -1 if (A if N % 2 == 0 else B if M % 2 == 0 else C) > 0 else 1
    ex = -1 if N % 2 and g * A > 0 else 1
    ey = -1 if M % 2 and g * B > 0 else 1
    return (g * ex * A, g * ey * B, g * C, N, M), ex, ey


# One entry serves a whole sign class: gcds, valuations and certificates
# ignore the signs the class changes (both covariances are tested).
@lru_cache(maxsize=4096)
def _descended_class(rep: tuple) -> tuple:
    """((A', B', C', mul_x, mul_y), empty, (rep', ex', ey')):
    _twopower_descend of rep, and the sign class of the descended form with
    the signs that carry rep' to it."""
    tp, empty = _twopower_descend(_TwoPower(*rep))
    return ((tp.A, tp.B, tp.C, tp.mul_x, tp.mul_y), empty,
            _twopower_sign_class(tp))


@lru_cache(maxsize=4096)
def _terminal_class(rep: tuple, bound: int) -> tuple:
    """_twopower_terminal of rep, with its lists made tuples."""
    sols, status, provenance = _twopower_terminal(_TwoPower(*rep), bound)
    return tuple(sols), status, tuple(provenance)


# ---------------------------------------------------------------------------
# Backend hook
# ---------------------------------------------------------------------------

def run_backend(command: str, a: int, b: int, c: int, n: int, m: int):
    """Line protocol for an external solver of a*y^m = b*x^n + c:
    send 'SOLVE a b c n m', read 'SOL x y' lines until
    'END COMPLETE' or 'END BOUNDED'."""
    proc = subprocess.run(
        shlex.split(command), input=f"SOLVE {a} {b} {c} {n} {m}\n",
        capture_output=True, text=True, timeout=_BACKEND_TIMEOUT, check=True)
    sols = []
    complete = False
    for line in proc.stdout.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "SOL":
            sols.append((int(parts[1]), int(parts[2])))
        elif parts[0] == "END":
            complete = parts[1] == "COMPLETE"
    return sols, complete


# ---------------------------------------------------------------------------
# Separated-linear equations a*x + P(rest) = 0
# ---------------------------------------------------------------------------

def find_separated_linear(poly: Polynomial):
    """Index of a monomial that is a single variable of degree 1 not
    occurring in any other monomial, or None."""
    for idx, mono in enumerate(poly.monomials):
        if len(mono.exps) != 1:
            continue
        (v, e), = mono.exps
        if e != 1:
            continue
        if any(other.exp_of(v) for j, other in enumerate(poly.monomials)
               if j != idx):
            continue
        return idx
    return None


def solve_separated_linear(poly: Polynomial) -> SolutionSet:
    """Complete solving of a*x + P(rest) = 0, where x occurs in no monomial
    of P.

    With g = gcd(a, the non-constant coefficients of P), there is no
    solution unless g divides the constant of P.  Otherwise x is an integer
    exactly when the other variables lie in a residue class modulo |a/g| on
    which a/g divides P/g, and each such class is one family.  With one
    other variable the classes are the roots of P/g from intcore.roots_mod;
    with k >= 2 the |a/g|^k tuples of residues are scanned.  Past
    _LINEAR_CLASS_LIMIT classes, or tuples to scan, ResourceLimit is
    raised."""
    idx = find_separated_linear(poly)
    if idx is None:
        raise ValueError("no separated linear monomial")
    mono = poly.monomials[idx]
    (xvar, _), = mono.exps
    rest = [m for j, m in enumerate(poly.monomials) if j != idx]
    rest_vars = [v for v in poly.variables if v != xvar]
    out = SolutionSet(list(poly.variables), status=COMPLETE, equation=poly)
    g = gcd(mono.coeff, *(m.coeff for m in rest if m.exps))
    if sum(m.coeff for m in rest if not m.exps) % g:
        return out
    a = mono.coeff // g
    rest = [Monomial(m.coeff // g, m.exps) for m in rest]
    aa = abs(a)
    if len(rest_vars) == 1:
        coeffs = Polynomial(rest).coefficients(rest_vars[0])
        classes = [(r,) for r in roots_mod(coeffs, aa, _LINEAR_CLASS_LIMIT)]
    else:
        if aa ** len(rest_vars) > _LINEAR_CLASS_LIMIT:
            raise ResourceLimit(f"{aa}^{len(rest_vars)} residue classes")
        classes = [res for res in product(range(aa), repeat=len(rest_vars))
                   if sum(m.evaluate(dict(zip(rest_vars, res)))
                          for m in rest) % aa == 0]
    for res in classes:
        out.families.append(_residue_family(out.variables, xvar, a, rest,
                                            rest_vars, res))
    return out


def _residue_family(variables, xvar, a, rest, rest_vars, residues):
    """x = -P / a over the class v = |a|*w_v + r_v of each other variable v,
    divided exactly; the one parameter is w when there is one other
    variable."""
    aa = abs(a)
    names = (["w"] if len(rest_vars) == 1
             else [f"w_{v}" for v in rest_vars])
    # substitute v = aa*w_v + r_v in -P
    expanded: dict[tuple, int] = {}
    for m in rest:
        acc = {tuple([0] * len(rest_vars)): -m.coeff}
        for pos, v in enumerate(rest_vars):
            e = m.exp_of(v)
            if not e:
                continue
            branch = {k: co for k, co in
                      enumerate(shifted_power(aa, residues[pos], e)) if co}
            acc2 = {}
            for exps, co in acc.items():
                for k, co2 in branch.items():
                    key = list(exps)
                    key[pos] += k
                    key = tuple(key)
                    acc2[key] = acc2.get(key, 0) + co * co2
            acc = acc2
        for key, co in acc.items():
            expanded[key] = expanded.get(key, 0) + co
    terms = []
    for exps, co in sorted(expanded.items()):
        if co == 0:
            continue
        assert co % a == 0 or any(exps), "residue class not divisible"
        terms.append(ex.monomial_expr(
            co, [(w, e) for w, e in zip(names, exps) if e]))
    exprs = {xvar: ex.ExactDiv(ex.Add(*terms) if terms else ex.const(0),
                               ex.const(a))}
    for v, w, r in zip(rest_vars, names, residues):
        exprs[v] = ex.Add(ex.monomial_expr(aa, [(w, 1)]), ex.const(r))

    def witness(sol):
        point = dict(zip(variables, sol))
        if any((point[v] - r) % aa for v, r in zip(rest_vars, residues)):
            return None
        return {w: (point[v] - r) // aa
                for v, w, r in zip(rest_vars, names, residues)}

    if len(rest_vars) == 1:
        note = f"{rest_vars[0]} = {aa}w + {residues[0]}"
    else:
        note = f"residues {dict(zip(rest_vars, residues))} mod {aa}"
    return SolutionFamily(
        variables=list(variables),
        params=[(w, AllIntegers()) for w in names], exprs=exprs,
        witness=witness, exact_box=True,
        param_bound=lambda box: {w: box[v] // aa + 1
                                 for v, w in zip(rest_vars, names)},
        note=note)


# ---------------------------------------------------------------------------
# The superelliptic base equation a y^m = b x^n + c
# ---------------------------------------------------------------------------

def solve_superelliptic(a: int, b: int, c: int, n: int, m: int,
                        bound: int = 10_000,
                        variables: list[str] | None = None,
                        backend: str | None = None,
                        trace: list | None = None) -> SolutionSet:
    """Complete-where-elementary solver for a*y^m = b*x^n + c with a, b, c
    nonzero and n, m >= 1 (with c = 0 the equation has two monomials, which
    twomon solves; ValueError is raised); the terminal Thue/superelliptic
    cases run a bounded search with explicit status.

    The terminal case (2 <= m <= n, n >= 3) takes the sign class
    of its A x^N + B y^M = C (under x -> -x for odd N, y -> -y for odd M
    and a global sign flip) once and builds no Polynomial.  Two
    process-wide caches of 4096 entries hold the descent and the descended
    form's class per class, and the certificates and search per (descended
    class, bound); backend calls bypass the second.  Each member maps the
    class's points by its own signs, checks them against a*y^m = b*x^n + c
    in integers, shares status and provenance, and keeps its own record."""
    variables = variables or ["x", "y"]
    if a == 0 or b == 0 or c == 0:
        raise ValueError("need a, b, c nonzero")
    if n < 1 or m < 1:
        raise ValueError("need n, m >= 1")

    def record(desc, sols, status):
        if trace is not None:
            trace.append(BaseSolveRecord(desc, sorted(sols), status))

    if m == 1 or m > n or m == n == 2:
        poly = _superelliptic_poly(a, b, c, n, m, variables)

    if m > n:
        inner = solve_superelliptic(-b, -a, c, m, n, bound,
                                    variables[::-1], backend, trace)
        flipped = SolutionSet(variables, status=inner.status,
                              provenance=inner.provenance, equation=poly)
        for (y, x) in inner.finite:
            flipped.add_finite((x, y))
        for fam in inner.families:
            flipped.families.append(_swap_family(fam, variables))
        return flipped

    if m == 1:
        out = solve_separated_linear(poly)
        record(f"{a}*y = {b}*x^{n} + {c}", [], "complete")
        return out

    if m == n == 2:
        # b x^2 - a y^2 + c = 0
        out = solve_quadratic(b, -a, c, variables)
        out.equation = poly
        record(f"{a}*y^2 = {b}*x^2 + {c}", sorted(out.finite), "complete")
        return out

    # terminal: 2 <= m <= n, n >= 3; this equation is (s*ex*A,
    # s*ey*B, s*C) for its class's (A, B, C), and so is its descent, whose
    # class the descent cache holds with its own signs
    rep, ex, ey = _twopower_sign_class(_TwoPower(b, -a, -c, n, m))
    s = 1 if rep[2] == -c else -1
    (A, B, C, mul_x, mul_y), empty, (rep, dex, dey) = _descended_class(rep)
    desc = f"{s * ex * A}*x^{n} + {s * ey * B}*y^{m} = {s * C}"
    out = SolutionSet(variables, status=COMPLETE)

    def add(x, y):
        # the check SolutionSet makes against an equation, in integers
        if a * y**m != b * x**n + c:
            raise ConstructionError(f"{(x, y)} does not satisfy the equation")
        out.add_finite((x, y))

    if empty:
        record(desc, [], "complete-empty (p-adic obstruction)")
        return out

    if backend is not None:
        sols, complete = run_backend(backend, a, b, c, n, m)
        for x, y in sols:
            add(x, y)
        out.status = COMPLETE if complete else searched(bound)
        record(f"{a}*y^{m} = {b}*x^{n} + {c} [backend]", sols,
               str(out.status))
        return out

    ex, ey = ex * dex, ey * dey
    rep_sols, status, provenance = _terminal_class(rep, bound)
    sols = sorted((ex * x, ey * y) for x, y in rep_sols)
    if status.startswith("searched"):
        out.status = searched(bound)
    for x, y in sols:
        add(mul_x * x, mul_y * y)
    out.provenance.extend(provenance)
    record(desc, sols, status)
    return out


def _superelliptic_poly(a, b, c, n, m, variables):
    vx, vy = variables
    return Polynomial([Monomial.make(a, {vy: m}), Monomial.make(-b, {vx: n}),
                       Monomial.make(-c, {})], list(variables))


def _swap_family(fam, variables):
    """A linear-case family of the swapped equation, over the original
    variable order: its exprs are keyed by variable name, so only the
    variable list and the witness change."""
    return dataclasses.replace(
        fam, variables=list(variables),
        witness=lambda sol: fam.witness((sol[1], sol[0])))


# ---------------------------------------------------------------------------
# Runge's condition n*l + m*k > m*n
# ---------------------------------------------------------------------------

def solve_runge_finite(a: int, b: int, c: int, n: int, k: int, l: int,
                       m: int, variables: list[str],
                       trace: list | None = None) -> SolutionSet:
    """Every solution with xy != 0 of a*x^n + b*x^k*y^l + c*y^m = 0 under
    Runge's condition n*l + m*k > m*n, with status Complete; the middle
    monomial must contain both variables.

    With e = gcd(n, m), m' = m/e and n' = n/e, each solution is
    x = X*u^m', y = Y*u^n' with u > 0 and (|X|, |Y|) a valuation candidate,
    and then u^(M - N) = -(a*X^n + c*Y^m) / (b*X^k*Y^l) for N = n*m' and
    M = k*m' + l*n' > N.
    """
    if k < 1 or l < 1 or n * l + m * k <= m * n:
        raise RungeConditionError("need k, l >= 1 and n*l + m*k > m*n")
    e = gcd(n, m)
    mp, np_ = m // e, n // e
    rise = k * mp + l * np_ - n * mp
    candidates = valuation_candidates(a, b, c, n, k, l, m)
    out = SolutionSet(list(variables), status=COMPLETE)
    for xa, ya in candidates:
        for X in (xa, -xa):
            for Y in (ya, -ya):
                num, den = -(a * X**n + c * Y**m), b * X**k * Y**l
                if num % den:
                    continue
                for u in exact_roots(num // den, rise):
                    x, y = X * u**mp, Y * u**np_
                    if u > 0 and a * x**n + b * x**k * y**l + c * y**m == 0:
                        out.add_finite((x, y))
    if trace is not None:
        vx, vy = variables
        trace.append(BaseSolveRecord(
            f"runge {a}*{vx}^{n} + {b}*{vx}^{k}*{vy}^{l} + {c}*{vy}^{m} = 0, "
            f"{len(candidates)} candidates", sorted(out.finite), "complete"))
    return out
