"""Solvers for the base equation shapes a*y^m = b*x^n + c, quadratic forms
A*u^2 + B*v^2 + C = 0, and trinomials a*x^n + b*x^k*y^l + c*y^m = 0 under
Runge's condition n*l + m*k > m*n.

Everything elementary is solved completely (m = 1, quadratics, two-monomial,
definite or factorable power forms, p-adically impossible equations).  The
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
from math import gcd, isqrt

from . import expr as ex
from .eqparse import Monomial, Polynomial
from .intcore import (
    divisors_k,
    exact_iroot,
    exact_roots,
    factorize,
    integer_roots,
    iroot,
    rational_root_d,
    shifted_power,
    valuation,
)
from .lindioph import valuation_candidates
from .solset import (
    COMPLETE,
    AllIntegers,
    RecurrenceFamily,
    SolutionFamily,
    SolutionSet,
    pinned_family,
    searched,
)
from .twomon import solve_two_monomial

BENNETT_CITATION = ("uniqueness of the positive solution of |a*x^n - b*y^n| = 1 "
                    "(Bennett, J. reine angew. Math. 535, 2001)")


class ResourceLimit(RuntimeError):
    pass


#: Most seeds v the indefinite case of solve_quadratic scans.
_PELL_SEED_LIMIT = 2_000_000
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
    families: int = 0


# ---------------------------------------------------------------------------
# Quadratic forms A u^2 + B v^2 + C = 0
# ---------------------------------------------------------------------------

def pell_fundamental(d: int) -> tuple[int, int]:
    """Least (t, s) with t^2 - d*s^2 = 1, t,s > 0; d a positive non-square."""
    a0 = isqrt(d)
    if a0 * a0 == d:
        raise ValueError("d must not be a square")
    m, den, a = 0, 1, a0
    num1, num = 1, a0
    den1, den_c = 0, 1
    while num * num - d * den_c * den_c != 1:
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        num1, num = num, a * num + num1
        den1, den_c = den_c, a * den_c + den1
    return num, den_c


def solve_quadratic(A: int, B: int, C: int,
                    variables: list[str] | None = None) -> SolutionSet:
    """Complete integer solution set of A u^2 + B v^2 + C = 0."""
    variables = variables or ["u", "v"]
    eq = _quad_poly(A, B, C, variables)
    out = SolutionSet(variables, status=COMPLETE, equation=eq)

    if A == 0 and B == 0:
        if C == 0:
            out.families.append(pinned_family(
                variables, {}, "identically zero", lambda v: f"u_{v}"))
        return out
    if A == 0 or B == 0:
        coef = B if A == 0 else A
        fixed_index = 1 if A == 0 else 0
        if C % coef != 0 or -C // coef < 0:
            return out
        s = exact_iroot(-C // coef, 2)
        if s is None:
            return out
        fixed_var = variables[fixed_index]
        for val in {s, -s}:
            out.families.append(pinned_family(
                variables, {fixed_var: val}, f"{fixed_var} = {val}",
                lambda v: "w"))
        return out
    if C == 0:
        out.add_finite((0, 0))
        root = rational_root_d(Fraction(-B, A), 2) if -B * A > 0 else None
        if root is not None:
            p, q = root.numerator, root.denominator
            for sp in (p, -p):
                out.families.append(_ray_family(variables, sp, q))
        return out

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

    t, s = pell_fundamental(D)
    matrix = ((t, B * s), (-A * s, t))
    seeds = set()
    if N > 0:
        vmax = isqrt((N * (t - 1)) // (2 * D)) + 1
        vmin = 0
    else:
        vmin = isqrt((-N) // D)
        vmax = isqrt(((-N) * (t + 1)) // (2 * D)) + 1
    if vmax - vmin > _PELL_SEED_LIMIT:
        raise ResourceLimit(f"Pell seed scan of {vmax - vmin} values")
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


def _quad_poly(A, B, C, variables):
    monos = []
    if A:
        monos.append(Monomial.make(A, {variables[0]: 2}))
    if B:
        monos.append(Monomial.make(B, {variables[1]: 2}))
    if C:
        monos.append(Monomial.make(C, {}))
    return Polynomial(monos, list(variables))


def _ray_family(variables, p, q):
    def witness(sol):
        if q and sol[1] % q == 0 and sol[0] * q == p * (sol[1] // q):
            return {"t": sol[1] // q}
        return None

    return SolutionFamily(
        variables=list(variables),
        params=[("t", AllIntegers())],
        exprs={variables[0]: ex.monomial_expr(p, [("t", 1)]),
               variables[1]: ex.monomial_expr(q, [("t", 1)])},
        witness=witness, exact_box=True,
        note=f"ray ({p}t, {q}t)")


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

    def describe(self) -> str:
        return f"{self.A}*x^{self.N} + {self.B}*y^{self.M} = {self.C}"


def _twopower_descend(tp: _TwoPower):
    """Strip forced prime powers from the variables; detect p-adic
    impossibility.  Returns (tp', empty: bool)."""
    for _ in range(_DESCENT_ROUNDS):
        g = gcd(gcd(tp.A, tp.B), tp.C)
        if g > 1:
            tp = _TwoPower(tp.A // g, tp.B // g, tp.C // g, tp.N, tp.M,
                           tp.mul_x, tp.mul_y)
        moved = False
        for p in factorize(abs(tp.A) * abs(tp.B) * abs(tp.C)).primes():
            ap, bp, cp = (valuation(tp.A, p), valuation(tp.B, p),
                          valuation(tp.C, p))
            if ap == 0 and bp == 0 and cp == 0:
                continue
            feas = _feasible_valuations(ap, bp, cp, tp.N, tp.M, p)
            if feas == "empty":
                return tp, True
            if feas == "x":
                tp = _TwoPower(tp.A * p**tp.N, tp.B, tp.C, tp.N, tp.M,
                               tp.mul_x * p, tp.mul_y)
                moved = True
                break
            if feas == "y":
                tp = _TwoPower(tp.A, tp.B * p**tp.M, tp.C, tp.N, tp.M,
                               tp.mul_x, tp.mul_y * p)
                moved = True
                break
        if not moved:
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
    residues costs about as much as testing that many survivors.
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
        powers = {pow(y, M, q) for y in range(q)}
        b_inv = pow(B, -1, q)
        mask &= _residue_mask(
            [(C - A * pow(r, N, q)) * b_inv % q in powers for r in range(q)],
            bound)
    if 1 < absB <= mask.bit_count():
        mask &= _residue_mask(
            [(C - A * pow(r, N, absB)) % absB == 0 for r in range(absB)],
            bound)
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


def _residue_mask(admissible: list[bool], bound: int) -> int:
    """Bits i in [0, 2*bound] set exactly when admissible[(i - bound) % q],
    q = len(admissible): one period of the pattern, tiled by doubling
    shifts."""
    q = len(admissible)
    length = 2 * bound + 1
    start = -bound % q
    period = admissible[start:] + admissible[:start]
    pattern = int("".join("1" if ok else "0" for ok in reversed(period)), 2)
    width = q
    while width < length:
        pattern |= pattern << width
        width *= 2
    return pattern & ((1 << length) - 1)


def _twopower_factorable(tp: _TwoPower) -> list[tuple[int, int]] | None:
    """Complete solving when N == M and -B/A is a d-th power of a rational:
    substitute U = q x, V = p y and enumerate divisors of the difference."""
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
    if T == 0:
        return None  # C == 0 is not this shape's business
    for d in divisors_k(T, 1):
        # U = V + d; (V + d)^D - V^D = T: polynomial in V
        coeffs = shifted_power(1, d, D)
        coeffs[D] -= 1
        coeffs[0] -= T
        if all(c == 0 for c in coeffs):
            continue
        for v in integer_roots(coeffs):
            u = v + d
            if u % q or v % p:
                continue
            x, y = u // q, v // p
            if tp.A * x**D + tp.B * y**D == tp.C:
                out.add((x, y))
    return sorted(out)


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
# The superelliptic base equation a y^m = b x^n + c
# ---------------------------------------------------------------------------

def solve_superelliptic(a: int, b: int, c: int, n: int, m: int,
                        bound: int = 10_000,
                        variables: list[str] | None = None,
                        backend: str | None = None,
                        trace: list | None = None) -> SolutionSet:
    """Complete-where-elementary solver for a*y^m = b*x^n + c, n, m >= 1;
    the terminal Thue/superelliptic cases run a bounded search with explicit
    status."""
    variables = variables or ["x", "y"]
    if a == 0 or b == 0:
        raise ValueError("need a, b nonzero")
    if n < 1 or m < 1:
        raise ValueError("need n, m >= 1")
    poly = _superelliptic_poly(a, b, c, n, m, variables)
    vx, vy = variables

    def record(desc, sols, status, families=0):
        if trace is not None:
            trace.append(BaseSolveRecord(desc, sorted(sols), status, families))

    if c == 0:
        out = solve_two_monomial(poly)
        out.equation = poly
        out.add_finite((0, 0))
        record(f"{a}*y^{m} = {b}*x^{n}", sorted(out.finite), "complete",
               len(out.families))
        return out

    if m > n:
        inner = solve_superelliptic(-b, -a, c, m, n, bound,
                                    [vy, vx], backend, trace)
        flipped = SolutionSet(variables, status=inner.status,
                              provenance=inner.provenance, equation=poly)
        for (y, x) in inner.finite:
            flipped.add_finite((x, y))
        for fam in inner.families:
            flipped.families.append(_swap_family(fam, variables))
        return flipped

    if m == 1:
        return _superelliptic_linear(a, b, c, n, poly, variables, record)

    if m == n == 2:
        # b x^2 - a y^2 + c = 0
        out = solve_quadratic(b, -a, c, variables)
        out.equation = poly
        record(f"{a}*y^2 = {b}*x^2 + {c}", sorted(out.finite),
               "complete", len(out.families))
        return out

    # terminal: 2 <= m <= n, n >= 3, c != 0
    tp = _TwoPower(b, -a, -c, n, m)
    tp, empty = _twopower_descend(tp)
    out = SolutionSet(variables, status=COMPLETE, equation=poly)
    if empty:
        record(tp.describe(), [], "complete-empty (p-adic obstruction)")
        return out

    if backend is not None:
        sols, complete = run_backend(backend, a, b, c, n, m)
        for x, y in sols:
            out.add_finite((x, y))
        out.status = COMPLETE if complete else searched(bound)
        record(f"{a}*y^{m} = {b}*x^{n} + {c} [backend]", sols,
               str(out.status))
        return out

    provenance = []
    sols = _twopower_definite(tp)
    status = "complete-definite"
    if sols is None:
        sols = _twopower_factorable(tp)
        status = "complete-factored"
    if sols is None:
        sols = _twopower_search(tp, bound)
        if _twopower_bennett(tp, sols):
            status = "complete-bennett"
            provenance.append(BENNETT_CITATION)
        else:
            status = f"searched({bound})"
            out.status = searched(bound)
    for x, y in sols:
        out.add_finite((tp.mul_x * x, tp.mul_y * y))
    out.provenance.extend(provenance)
    record(tp.describe(), sols, status)
    return out


def _superelliptic_poly(a, b, c, n, m, variables):
    vx, vy = variables
    monos = [Monomial.make(a, {vy: m}), Monomial.make(-b, {vx: n})]
    if c:
        monos.append(Monomial.make(-c, {}))
    return Polynomial(monos, list(variables))


def _superelliptic_linear(a, b, c, n, poly, variables, record):
    """a y = b x^n + c: no solutions unless g = gcd(a, b) divides c, else one
    family per residue class r modulo |a/g| with a/g | (b/g) r^n + c/g."""
    out = SolutionSet(variables, status=COMPLETE, equation=poly)
    g = gcd(a, b)
    ra, rb, rc = a // g, b // g, c // g
    aa = abs(ra)
    vx, vy = variables
    count = 0
    for r in (range(aa) if c % g == 0 else ()):
        if (rb * pow(r, n, aa) + rc) % aa:
            continue
        count += 1
        coefs = [rb * co for co in shifted_power(aa, r, n)]
        coefs[0] += rc
        terms = [ex.monomial_expr(co, [("w", k)] if k else [])
                 for k, co in enumerate(coefs) if co]
        y_expr = ex.ExactDiv(ex.Add(*terms) if terms else ex.const(0),
                             ex.const(ra))
        x_expr = ex.Add(ex.monomial_expr(aa, [("w", 1)]), ex.const(r))

        def witness(sol, _r=r):
            x, _ = sol
            if (x - _r) % aa:
                return None
            return {"w": (x - _r) // aa}

        out.families.append(SolutionFamily(
            variables=list(variables),
            params=[("w", AllIntegers())],
            exprs={vx: x_expr, vy: y_expr},
            witness=witness, exact_box=True,
            param_bound=lambda box: {"w": box[vx] // aa + 1},
            note=f"x = {aa}w + {r}"))
    record(f"{a}*y = {b}*x^{n} + {c}", [], "complete", count)
    return out


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
