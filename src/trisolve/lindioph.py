"""Linear Diophantine machinery over the non-negative integers.

Covers the two-term solver (n*x = m*y + b), the per-prime valuation split of
a two-variable trinomial built on it, Hilbert bases / minimal solutions of
linear systems via a Contejean-Devie completion, the xy = zt parametrization
(x != 0), minimal divisibility sets, and an exact decision procedure for
membership of a target vector in the monoid generated by a finite set of 2-D
integer vectors (the workhorse behind the sufficient-condition check, fast
enough for exponent bounds around 1e5).  Its witness, the only one the
sufficient condition uses, is shrunk by the one-signed circuits of the
generators (kernel vectors on three columns) and is not always the least.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from math import gcd

from .intcore import factorize, valuation


# ---------------------------------------------------------------------------
# Two-term equation n*x = m*y + b  (x, y >= 0)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoTermSolution:
    solvable: bool
    x0: int = 0
    y0: int = 0
    step_x: int = 0
    step_y: int = 0


def solve_two_term(n: int, m: int, b: int) -> TwoTermSolution:
    """Solve n*x = m*y + b in non-negative integers.

    Returns the x+y-minimal solution and the step pair
    (m/gcd(n,m), n/gcd(n,m)); every solution is (x0 + step_x*u, y0 + step_y*u)
    for u >= 0.  Unsolvable when gcd(n, m) does not divide b or no
    non-negative solution exists.
    """
    if n < 0 or m < 0 or (n, m) == (0, 0):
        raise ValueError("need non-negative n, m, not both zero")
    g = gcd(n, m)
    if b % g != 0:
        return TwoTermSolution(False)
    if m == 0:
        if b < 0 or b % n != 0:
            return TwoTermSolution(False)
        return TwoTermSolution(True, b // n, 0, 0, 1)
    if n == 0:
        if b > 0 or (-b) % m != 0:
            return TwoTermSolution(False)
        return TwoTermSolution(True, 0, -b // m, 1, 0)
    step_x, step_y = m // g, n // g
    # x must satisfy n*x == b (mod m) and n*x >= b.
    ng, mg, bg = n // g, m // g, b // g
    x_res = bg * pow(ng, -1, mg) % mg
    x_min = max(0, (b + n - 1) // n)
    if x_res >= x_min:
        x0 = x_res
    else:
        x0 = x_res + ((x_min - x_res + mg - 1) // mg) * mg
    y0 = (n * x0 - b) // m
    return TwoTermSolution(True, x0, y0, step_x, step_y)


# ---------------------------------------------------------------------------
# Per-prime valuation split of a*x^n + b*x^k*y^l + c*y^m = 0
# ---------------------------------------------------------------------------

def valuation_candidates(a: int, b: int, c: int, n: int, k: int, l: int,
                         m: int) -> list[tuple[int, int]]:
    """Candidate magnitudes (X, Y) of the nonzero solutions of
    a*x^n + b*x^k*y^l + c*y^m = 0 when n*l + m*k != m*n.

    At a prime p the least of the three term valuations is attained twice,
    so (v_p(x), v_p(y)) lies on a line where two term valuations are equal
    and the third is at least as large.  Where the gap to the third shrinks
    along the line, every point with a positive gap is listed; where it
    grows, only the line's first non-negative point is kept, and the rest of
    the line is left to the free factors of the caller's lift.  Primes
    outside abc contribute through those factors alone.
    """
    exps = ((n, 0), (k, l), (0, m))
    candidates = {(1, 1)}
    for p in factorize(a * b * c).primes():
        vals = [valuation(coef, p) for coef in (a, b, c)]
        options = set()
        for i, j, h in ((0, 2, 1), (0, 1, 2), (1, 2, 0)):
            options.update(_equal_valuation_points(vals, exps, i, j, h))
        candidates = {(cx * p**xe, cy * p**ye)
                      for cx, cy in candidates for xe, ye in options}
    return sorted(candidates)


def _equal_valuation_points(vals, exps, i, j, h):
    """The (alpha, beta) >= 0 kept on the line where term valuations
    vals[t] + exps[t] . (alpha, beta) of terms i and j are equal."""
    (xi, yi), (xj, yj), (xh, yh) = exps[i], exps[j], exps[h]
    A, B, C = xi - xj, yi - yj, vals[j] - vals[i]

    def gap(alpha, beta):
        return vals[h] - vals[i] + (xh - xi) * alpha + (yh - yi) * beta

    if A * B > 0:
        # A*alpha + B*beta = C with A, B of one sign: a finite segment
        if A < 0:
            A, B, C = -A, -B, -C
        points = [(al, (C - A * al) // B) for al in range(C // A + 1)
                  if (C - A * al) % B == 0]
        return [pt for pt in points if gap(*pt) > 0]
    if A < 0 or B > 0:
        A, B, C = -A, -B, -C
    s = solve_two_term(A, -B, C)
    if not s.solvable:
        return []
    first = gap(s.x0, s.y0)
    slope = gap(s.x0 + s.step_x, s.y0 + s.step_y) - first
    if slope >= 0:
        return [(s.x0, s.y0)]
    return [(s.x0 + s.step_x * t, s.y0 + s.step_y * t)
            for t in range((first - 1) // -slope + 1)]


# ---------------------------------------------------------------------------
# xy = zt parametrization
# ---------------------------------------------------------------------------

def solve_xy_eq_zt(x: int, y: int, z: int, t: int) -> tuple[int, int, int, int]:
    """Given x*y == z*t with x != 0, return (u, v, w, r) with x=u*v, y=w*r,
    z=u*w, t=v*r, by the gcd construction u = gcd(x, z) > 0.  The equality
    case passes x = m >= 1; x = 0 raises ValueError.
    """
    if x == 0:
        raise ValueError("need x nonzero")
    if x * y != z * t:
        raise ValueError("xy != zt")
    u = gcd(x, z)
    v = x // u
    w = z // u
    assert t % v == 0
    r = t // v
    assert (x, y, z, t) == (u * v, w * r, u * w, v * r)
    return u, v, w, r


# ---------------------------------------------------------------------------
# Contejean-Devie completion
# ---------------------------------------------------------------------------

@dataclass
class MinimalBasis:
    """Minimal non-negative solutions of a linear system.

    `homogeneous` generates the solution cone of A z = 0; `particular` lists
    the minimal solutions of A z = b (empty for b = 0 or infeasible systems).
    status is 'complete' or 'budget' (search truncated: feasibility unknown).
    """

    homogeneous: list[tuple[int, ...]] = field(default_factory=list)
    particular: list[tuple[int, ...]] = field(default_factory=list)
    status: str = "complete"
    homogeneous_system: bool = False
    nvars: int = 0


def _dominates(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Componentwise a >= b with a != b."""
    return a != b and all(x >= y for x, y in zip(a, b))


def _dominates_eq(a, b) -> bool:
    return all(x >= y for x, y in zip(a, b))


def hilbert_basis(system: list[list[int]], budget: int = 1_000_000) -> MinimalBasis:
    """All minimal nonzero non-negative solutions of the homogeneous system
    given as coefficient rows (sum_i row[i]*z_i = 0 for each row)."""
    basis = solve_system_nonneg(system, [0] * len(system), budget)
    return basis


def solve_system_nonneg(system: list[list[int]], rhs: list[int],
                        budget: int = 1_000_000) -> MinimalBasis:
    """Minimal solutions of A z = b over non-negative integers by a
    Contejean-Devie completion on the homogenized system A z - b w = 0.

    Minimal solutions with w = 1 are the minimal particular solutions; those
    with w = 0 form the homogeneous Hilbert basis.  A node budget bounds the
    frontier search; on exhaustion the result carries status='budget' and
    feasibility must be treated as unknown.
    """
    if not system:
        raise ValueError("empty system")
    n = len(system[0])
    if any(len(row) != n for row in system) or len(rhs) != len(system):
        raise ValueError("ragged system")
    homogeneous = rhs == [0] * len(rhs)
    if homogeneous:
        rows = [list(row) for row in system]
        width = n
    else:
        rows = [list(row) + [-b] for row, b in zip(system, rhs)]
        width = n + 1

    def apply(v: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(sum(r[i] * v[i] for i in range(width)) for r in rows)

    col_values = [apply(tuple(1 if j == i else 0 for j in range(width)))
                  for i in range(width)]
    minimals: list[tuple[int, ...]] = []
    frontier: deque[tuple[tuple[int, ...], tuple[int, ...]]] = deque()
    seen: set[tuple[int, ...]] = set()
    for i in range(width):
        unit = tuple(1 if j == i else 0 for j in range(width))
        frontier.append((unit, col_values[i]))
        seen.add(unit)
    status = "complete"
    expansions = 0
    while frontier:
        node, value = frontier.popleft()
        if any(_dominates_eq(node, m) and node != m for m in minimals):
            continue
        if all(v == 0 for v in value):
            minimals = [m for m in minimals if not _dominates(m, node)]
            minimals.append(node)
            continue
        expansions += 1
        if expansions > budget:
            status = "budget"
            break
        for i in range(width):
            if sum(a * b for a, b in zip(value, col_values[i])) >= 0:
                continue
            child = tuple(node[j] + (1 if j == i else 0) for j in range(width))
            if child in seen:
                continue
            if any(_dominates_eq(child, m) for m in minimals):
                continue
            seen.add(child)
            frontier.append((child, apply(child)))

    if homogeneous:
        return MinimalBasis(sorted(minimals), [], status, True, n)
    hom = sorted(v[:n] for v in minimals if v[n] == 0)
    part = sorted(v[:n] for v in minimals if v[n] == 1)
    return MinimalBasis(hom, part, status, False, n)


# ---------------------------------------------------------------------------
# Minimal divisibility sets (finite certificates for q | prod U_k^e_k)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DivisibilityMinimalSet:
    exponents: tuple[int, ...]
    q: int
    tuples: tuple[tuple[int, ...], ...]


def _minimal_inequality(e: list[int], target: int) -> list[tuple[int, ...]]:
    """Minimal non-negative u with sum(e_k * u_k) >= target (target >= 1)."""
    n = len(e)
    out: list[tuple[int, ...]] = []

    def rec(idx: int, prefix: list[int], remaining: int):
        if idx == n:
            if remaining <= 0:
                out.append(tuple(prefix))
            return
        if e[idx] == 0:
            rec(idx + 1, prefix + [0], remaining)
            return
        cap = (remaining + e[idx] - 1) // e[idx] if remaining > 0 else 0
        for u in range(cap + 1):
            rec(idx + 1, prefix + [u], remaining - e[idx] * u)

    rec(0, [], target)
    minimal = [u for u in out if not any(_dominates(u, v) for v in out)]
    return sorted(set(minimal))


def minimal_divisibility_set(e: list[int], q: int) -> DivisibilityMinimalSet:
    """The finite set M of positive tuples d such that q | prod(d_k**e_k) and
    q | prod(U_k**e_k) iff some d in M divides U componentwise.

    Positions with e_k = 0 are forced to 1.  Computed prime by prime: a tuple
    is minimal iff its per-prime exponent vector is a minimal solution of
    sum(e_k * u_k) >= v_p(q) for every p | q.
    """
    if q == 0:
        raise ValueError("q must be nonzero")
    tuples = [tuple([1] * len(e))]
    for p, qp in factorize(q).factors:
        per_prime = _minimal_inequality(list(e), qp)
        tuples = [tuple(t * p**u for t, u in zip(tup, vec))
                  for tup in tuples for vec in per_prime]
    return DivisibilityMinimalSet(tuple(e), q, tuple(sorted(set(tuples))))


# ---------------------------------------------------------------------------
# Exact membership in a finitely generated submonoid of Z^2
# ---------------------------------------------------------------------------

def _cross(a: tuple[int, int], b: tuple[int, int]) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _dot(a: tuple[int, int], b: tuple[int, int]) -> int:
    return a[0] * b[0] + a[1] * b[1]


def _primitive(v: tuple[int, int]) -> tuple[int, int]:
    g = gcd(v[0], v[1])
    return (v[0] // g, v[1] // g)


def _hermite_2d(gens: list[tuple[int, int]]) -> tuple[int, int, int]:
    """(a, b, c) with Z(a, b) + Z(0, c) the lattice of integer (any sign)
    combinations of gens, b = 0 while a = 0: the Hermite basis, one
    extended gcd per generator.  Stops at (1, 0, 1) once the lattice is
    Z^2."""
    a = b = c = 0
    for x, y in gens:
        if a == 0 and x == 0:
            c = gcd(c, y)
            continue
        g, s, t = _xgcd(a, x)
        if g < 0:
            g, s, t = -g, -s, -t
        # (s, t; x/g, -a/g) is unimodular: it maps (a, b), (x, y) to the new
        # first row and a vector on the y-axis
        c = gcd(c, (x * b - a * y) // g)
        a, b = g, s * b + t * y
        if c:
            if a == c == 1:
                return 1, 0, 1
            b %= c
    return a, b, c


def _hermite_contains(basis: tuple[int, int, int],
                      target: tuple[int, int]) -> bool:
    """Whether target lies in the lattice of the Hermite basis (a, b, c):
    a | target_x and c | the remainder."""
    a, b, c = basis
    tx, ty = target
    if a == 0:
        if tx != 0:
            return False
        rest = ty
    else:
        if tx % a:
            return False
        rest = ty - (tx // a) * b
    return rest % c == 0 if c else rest == 0


def _lattice_contains_2d(gens: list[tuple[int, int]],
                        target: tuple[int, int]) -> bool:
    """Whether target is an integer (any sign) combination of gens."""
    return _hermite_contains(_hermite_2d(gens), target)


def _solve_lattice_2d(gens: list[tuple[int, int]], target: tuple[int, int]):
    """Integer (any sign) solution of sum(c_i * gens[i]) = target, for a
    target known to lie in the lattice of gens.

    Column-reduces the 2 x n generator matrix, tracking the transformation.
    """
    n = len(gens)
    cols = [list(g) for g in gens]
    trans = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    # trans[i] tracks: current col i = sum_j trans[i][j] * original col j

    def combine(i, j, a, b, c, d):
        # (col_i, col_j) <- (a*col_i + b*col_j, c*col_i + d*col_j)
        ci = [a * cols[i][0] + b * cols[j][0], a * cols[i][1] + b * cols[j][1]]
        cj = [c * cols[i][0] + d * cols[j][0], c * cols[i][1] + d * cols[j][1]]
        cols[i], cols[j] = ci, cj
        ti = [a * trans[i][k] + b * trans[j][k] for k in range(n)]
        tj = [c * trans[i][k] + d * trans[j][k] for k in range(n)]
        trans[i], trans[j] = ti, tj

    pivots = []
    for row in range(2):
        piv = None
        for i in range(len(pivots), n):
            if cols[i][row] != 0:
                piv = i
                break
        if piv is None:
            continue
        pos = len(pivots)
        cols[piv], cols[pos] = cols[pos], cols[piv]
        trans[piv], trans[pos] = trans[pos], trans[piv]
        for i in range(pos + 1, n):
            while cols[i][row] != 0:
                q = cols[pos][row] // cols[i][row]
                combine(pos, i, 1, -q, 0, 1)
                if cols[i][row] != 0:
                    cols[pos], cols[i] = cols[i], cols[pos]
                    trans[pos], trans[i] = trans[i], trans[pos]
        pivots.append((pos, row))
    # back-solve target against triangular pivot columns
    coeffs_reduced = [0] * n
    residual = list(target)
    for pos, row in pivots:
        if cols[pos][row] == 0:
            continue
        assert residual[row] % cols[pos][row] == 0
        k = residual[row] // cols[pos][row]
        coeffs_reduced[pos] = k
        residual[0] -= k * cols[pos][0]
        residual[1] -= k * cols[pos][1]
    assert residual == [0, 0]
    out = [0] * n
    for i in range(n):
        if coeffs_reduced[i]:
            for j in range(n):
                out[j] += coeffs_reduced[i] * trans[i][j]
    return out


def _coin_reachable(coins: list[int], target: int, budget: int):
    """Non-negative combination of positive coins equal to target >= 0.
    Returns (status, counts)."""
    if target == 0:
        return "feasible", [0] * len(coins)
    if target < 0:
        return "infeasible", None
    g = 0
    for c in coins:
        g = gcd(g, c)
    if g == 0 or target % g != 0:
        return "infeasible", None
    if target > budget:
        return "unknown", None
    reach = [None] * (target + 1)
    reach[0] = (-1, -1)
    for v in range(1, target + 1):
        for idx, c in enumerate(coins):
            if c <= v and reach[v - c] is not None:
                reach[v] = (v - c, idx)
                break
    if reach[target] is None:
        return "infeasible", None
    counts = [0] * len(coins)
    v = target
    while v > 0:
        prev, idx = reach[v]
        counts[idx] += 1
        v = prev
    return "feasible", counts


def _signed_line_solve(mults: list[int], target: int):
    """Integer combination sum(z_i * m_i) = target with z >= 0, where the
    m_i are nonzero of both signs.  Always solvable when gcd | target."""
    g = 0
    for m in mults:
        g = gcd(g, m)
    if target % g != 0:
        return None
    # Extended-gcd chain over the multiples.
    coef = [0] * len(mults)
    cur = 0
    for i, m in enumerate(mults):
        if cur == 0:
            coef = [0] * len(mults)
            coef[i] = 1
            cur = m
            continue
        gg, s, t = _xgcd(cur, m)
        coef = [s * c for c in coef]
        coef[i] += t
        cur = gg
        if abs(cur) == abs(g):
            break
    scale = target // cur
    coef = [c * scale for c in coef]
    # Shift negative coefficients non-negative using opposite-sign pairs.
    pos = next(i for i, m in enumerate(mults) if m > 0)
    neg = next(i for i, m in enumerate(mults) if m < 0)
    for i, m in enumerate(mults):
        if coef[i] >= 0:
            continue
        partner = neg if m > 0 else pos
        mp = mults[partner]
        gg = gcd(abs(m), abs(mp))
        step_self = abs(mp) // gg
        step_partner = abs(m) // gg
        k = (-coef[i] + step_self - 1) // step_self
        coef[i] += k * step_self
        coef[partner] += k * step_partner
    assert all(c >= 0 for c in coef)
    assert sum(c * m for c, m in zip(coef, mults)) == target
    return coef


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = +-gcd(a, b), by the Euclidean
    quotient sequence of a // b."""
    s0, t0, s1, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _cone_2d(active: list[tuple[int, int]]):
    """Classify the cone positively spanned by nonzero 2-D vectors as
    ('line', w, None) when all lie on the line R*w, ('pointed', r1, r2) for
    the cone spanned ccw from r1 to r2 (angle < pi), ('halfplane', w, None)
    for the closed half-plane bounded by R*w, with cross(w, v) <= 0 for
    every generator v, or ('plane', None, None).  The vectors returned are
    primitive; a line spanned both ways is given by its direction with
    y > 0, or y = 0 and x > 0.

    One pass keeps the extreme rays r1 (most clockwise) and r2 (most ccw)
    of the generators seen so far; r1 = r2 while they lie on one ray.  A
    generator strictly inside the opposite cone makes the generators span
    the plane, and one opposite an extreme ray puts that ray's whole line
    in the cone, which _cone_with_line finishes."""
    x1, y1 = x2, y2 = active[0]
    for vx, vy in active:
        c1 = x1 * vy - y1 * vx  # cross(r1, v) > 0: v ccw of r1
        c2 = vx * y2 - vy * x2  # cross(v, r2) > 0: v cw of r2
        if c1 > 0:
            if c2 < 0:
                x2, y2 = vx, vy
        elif c1 < 0:
            if c2 > 0:
                x1, y1 = vx, vy
            elif c2 < 0:
                return "plane", None, None
            else:
                return _cone_with_line((x2, y2), active)
        elif c2 < 0 or (c2 == 0 and x1 * vx + y1 * vy < 0):
            return _cone_with_line((x1, y1), active)
    if x1 * y2 - y1 * x2 == 0:
        return "line", _primitive((x1, y1)), None
    return "pointed", _primitive((x1, y1)), _primitive((x2, y2))


def _cone_with_line(r, active):
    """_cone_2d of generators that include both directions of R*r: the
    sides of that line they reach decide line, half-plane or plane."""
    x, y = r
    left = right = False
    for vx, vy in active:
        c = x * vy - y * vx
        if c > 0:
            left = True
        elif c < 0:
            right = True
    if left and right:
        return "plane", None, None
    if left:
        return "halfplane", _primitive((-x, -y)), None
    if right:
        return "halfplane", _primitive(r), None
    if y < 0 or (y == 0 and x < 0):
        x, y = -x, -y
    return "line", _primitive((x, y)), None


def _line_case(active, target, w, budget):
    """All generators on the line R*w."""
    if _cross(w, target) != 0:
        return "infeasible", None
    mults = [(g[0] // w[0] if w[0] else g[1] // w[1]) for g in active]
    tm = target[0] // w[0] if w[0] else target[1] // w[1]
    if any(m > 0 for m in mults) and any(m < 0 for m in mults):
        coeffs = _signed_line_solve(mults, tm)
        return ("infeasible" if coeffs is None else "feasible"), coeffs
    sign = 1 if all(m > 0 for m in mults) else -1
    return _coin_reachable([m * sign for m in mults], tm * sign, budget)


def _bounded_cone_case(active, target, cone, budget):
    """Line, pointed-cone and half-plane cases: exact searches that report
    'unknown' past the node budget.  Returns (status, coeffs aligned with
    active or None).  A target outside a pointed cone is infeasible
    without a search."""
    kind, r1, r2 = cone
    if kind == "line":
        return _line_case(active, target, r1, budget)
    if kind == "pointed":
        if _cross(r1, target) < 0 or _cross(target, r2) < 0:
            return "infeasible", None
        return _pointed_case(active, target, r1, r2, budget)
    return _halfplane_case(active, target, r1, budget)


def monoid_contains_2d(gens: list[tuple[int, int]],
                       targets: tuple[tuple[int, int], ...],
                       budget: int = 1_000_000):
    """Yield, for each target in order, the status alone of
    solve_monoid_target_2d(gens, target, budget): 'feasible', 'infeasible'
    or 'unknown'.  The statuses come lazily, so a caller can stop at the
    first 'feasible'.

    The cone is classified once for all targets.  When the generators
    positively span the plane the monoid is their lattice: it is Z^2 as
    soon as the gcd of the 2x2 minors reaches 1, and otherwise one Hermite
    basis decides every target.  A target outside a pointed cone is
    infeasible without a search.  No witness is built."""
    active = [g for g in gens if g != (0, 0)]
    if not active:
        for target in targets:
            yield "feasible" if target == (0, 0) else "infeasible"
        return
    cone = _cone_2d(active)
    if cone[0] == "plane":
        index = 0
        for j, (xj, yj) in enumerate(active):
            for xi, yi in active[:j]:
                index = gcd(index, xi * yj - yi * xj)
                if index == 1:  # the lattice is Z^2
                    for _ in targets:
                        yield "feasible"
                    return
        basis = _hermite_2d(active)
        for target in targets:
            yield ("feasible" if _hermite_contains(basis, target)
                   else "infeasible")
        return
    for target in targets:
        yield _bounded_cone_case(active, target, cone, budget)[0]


def solve_monoid_target_2d(gens: list[tuple[int, int]], target: tuple[int, int],
                           budget: int = 1_000_000):
    """Decide whether target is a non-negative integer combination of the
    given 2-D integer vectors; construct one if so.

    Returns (status, coeffs) with status in {'feasible','infeasible','unknown'}
    and coeffs aligned with gens.  The decision is exact except on instances
    exceeding the node budget (possible only in the pointed-cone and
    half-plane search phases), which report 'unknown'.  Every witness is
    shrunk by one pass over the one-signed circuits, so none of them can be
    taken off it; it is not always the least witness.  All generators on
    one line leave no circuit, and the witness as found.
    """
    n = len(gens)
    if target == (0, 0):
        return "feasible", [0] * n
    index = [i for i, g in enumerate(gens) if g != (0, 0)]
    if not index:
        return "infeasible", None
    active = [gens[i] for i in index]
    cone = _cone_2d(active)
    if cone[0] == "plane":
        if not _lattice_contains_2d(active, target):
            return "infeasible", None
        circuits = _one_signed_circuits(active)
        status = "feasible"
        coeffs = _spanning_witness(active, target, circuits)
    else:
        status, coeffs = _bounded_cone_case(active, target, cone, budget)
        if coeffs is None:
            return status, None
        circuits = _one_signed_circuits(active)
    out = [0] * n
    for pos, c in zip(index, _shrink(coeffs, circuits)):
        out[pos] = c
    return status, out


def _pointed_case(active, target, r1, r2, budget):
    """Cone spanned ccw from r1 to r2 (angle < pi), with target inside it.
    BFS over the lattice points s with s and target - s both in the
    cone."""

    def phi(v):  # >= 0 inside cone, 0 on ray r1
        return _cross(r1, v)

    def psi(v):  # >= 0 inside cone, 0 on ray r2
        return _cross(v, r2)

    P, Q = phi(target), psi(target)
    start = (0, 0)
    parent = {start: None}
    queue = deque([start])
    nodes = 0
    while queue:
        s = queue.popleft()
        if s == target:
            coeffs = [0] * len(active)
            cur = s
            while parent[cur] is not None:
                prev, gi = parent[cur]
                coeffs[gi] += 1
                cur = prev
            return "feasible", coeffs
        nodes += 1
        if nodes > budget:
            return "unknown", None
        for gi, g in enumerate(active):
            nxt = (s[0] + g[0], s[1] + g[1])
            if nxt in parent:
                continue
            if 0 <= phi(nxt) <= P and 0 <= psi(nxt) <= Q:
                parent[nxt] = (s, gi)
                queue.append(nxt)
    return "infeasible", None


def _halfplane_case(active, target, w, budget):
    """Generators span the closed half-plane with boundary line R*w."""
    nu = (-w[1], w[0])
    if any(_dot(nu, g) < 0 for g in active):
        nu = (w[1], -w[0])
    assert all(_dot(nu, g) >= 0 for g in active)
    mass_t = _dot(nu, target)
    if mass_t < 0:
        return "infeasible", None
    boundary = [(i, g) for i, g in enumerate(active) if _dot(nu, g) == 0]
    interior = [(i, g) for i, g in enumerate(active) if _dot(nu, g) > 0]
    bmults = [(g[0] // w[0] if w[0] else g[1] // w[1]) for _, g in boundary]
    g0 = 0
    for mlt in bmults:
        g0 = gcd(g0, mlt)

    def line_coord(v):
        # coordinate along w for vectors on the boundary line
        return v[0] // w[0] if w[0] else v[1] // w[1]

    def finish(inter_counts, used_sum):
        rest = (target[0] - used_sum[0], target[1] - used_sum[1])
        assert _dot(nu, rest) == 0
        tm = line_coord(rest)
        if tm == 0:
            bcoef = [0] * len(boundary)
        else:
            # boundary multiples have both signs (else the cone is pointed)
            if g0 == 0 or tm % g0 != 0:
                return None
            bcoef = _signed_line_solve(bmults, tm)
            if bcoef is None:
                return None
        coeffs = [0] * len(active)
        for (i, _), c in zip(interior, inter_counts):
            coeffs[i] = c
        for (i, _), c in zip(boundary, bcoef):
            coeffs[i] += c
        return coeffs

    if mass_t == 0:
        res = finish([0] * len(interior), (0, 0))
        return ("feasible", res) if res is not None else ("infeasible", None)

    # BFS over (mass consumed, line-residue mod g0) states.
    if not interior:
        return "infeasible", None
    mod = g0 if g0 > 0 else 0
    masses = [_dot(nu, g) for _, g in interior]
    # solve g = a*w + m*h for the line coordinate a (h any vector with
    # <nu,h> = 1); work with exact 2-D decomposition instead.
    det = _dot(nu, nu)

    def line_part(v, mass):
        # v - mass*h where h = nu/|nu|^2 is not integral; instead use
        # coordinate along w of det*v - mass*nu, scaled by det.
        scaled = (det * v[0] - mass * nu[0], det * v[1] - mass * nu[1])
        # scaled lies on the boundary line and equals det * (line part)
        num = scaled[0] // w[0] if w[0] else scaled[1] // w[1]
        return num  # det * a

    target_line = line_part(target, mass_t)
    start = (0, 0)  # (mass, det*line-coordinate accumulated)
    parent = {start: None}
    queue = deque([start])
    nodes = 0
    while queue:
        s = queue.popleft()
        mass, lc = s
        if mass == mass_t:
            diff = target_line - lc
            if mod == 0:
                ok = diff == 0
            else:
                ok = diff % (det * mod) == 0
            if ok:
                counts = [0] * len(interior)
                cur = s
                while parent[cur] is not None:
                    prev, gi = parent[cur]
                    counts[gi] += 1
                    cur = prev
                used = (0, 0)
                for (_, g), c in zip(interior, counts):
                    used = (used[0] + c * g[0], used[1] + c * g[1])
                res = finish(counts, used)
                if res is not None:
                    return "feasible", res
            continue
        nodes += 1
        if nodes > budget:
            return "unknown", None
        for gi, (_, g) in enumerate(interior):
            nm = mass + masses[gi]
            if nm > mass_t:
                continue
            nl = lc + line_part(g, masses[gi])
            if mod:
                key = (nm, nl % (det * mod))
            else:
                key = (nm, nl)
            if key in parent:
                continue
            parent[key] = (s, gi)
            queue.append(key)
    return "infeasible", None


def _one_signed_circuits(gens: list[tuple[int, int]]) -> list[list[int]]:
    """The primitive non-negative kernel vectors of gens supported on at
    most three columns: for each triple, the vector of its 2x2 minors
    (a cross product), kept when its nonzero entries share a sign.  Empty
    when all generators lie on one line."""
    n = len(gens)
    out = []
    for triple in combinations(range(n), 3):
        i, j, k = triple
        minors = (_cross(gens[j], gens[k]), _cross(gens[k], gens[i]),
                  _cross(gens[i], gens[j]))
        if min(minors) < 0 < max(minors) or not any(minors):
            continue
        g = gcd(*minors)
        circuit = [0] * n
        for pos, m in zip(triple, minors):
            circuit[pos] = abs(m) // g
        out.append(circuit)
    return out


def _spanning_witness(active, target, circuits):
    """Non-negative coefficients reaching a lattice target when the
    generators positively span the plane: the monoid equals the lattice.
    By Caratheodory every generator lies in a one-signed circuit, so their
    sum mu is a strictly positive relation, and a lattice solution plus
    enough copies of mu is non-negative."""
    mu = [sum(col) for col in zip(*circuits)]
    assert mu and all(m > 0 for m in mu)
    assert sum(m * g[0] for m, g in zip(mu, active)) == 0
    assert sum(m * g[1] for m, g in zip(mu, active)) == 0
    sol = _solve_lattice_2d(active, target)
    need = 0
    for c, m in zip(sol, mu):
        if c < 0:
            need = max(need, (-c + m - 1) // m)
    sol = [c + need * m for c, m in zip(sol, mu)]
    assert all(c >= 0 for c in sol)
    return sol


def _shrink(coeffs, circuits):
    """Take each circuit off coeffs as many times as every coefficient
    stays non-negative.  Coefficients only go down, so a circuit that no
    longer fits never fits again and one pass leaves none that fits."""
    for circuit in circuits:
        k = min(c // e for c, e in zip(coeffs, circuit) if e)
        if k:
            coeffs = [c - k * e for c, e in zip(coeffs, circuit)]
    return coeffs
