import itertools
import random
from collections import deque
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st
from references import generate_solutions

from trisolve import lindioph
from trisolve.lindioph import (
    _cone_2d,
    _lattice_contains_2d,
    _xgcd,
    hilbert_basis,
    minimal_divisibility_set,
    monoid_contains_2d,
    solve_monoid_target_2d,
    solve_system_nonneg,
    solve_two_term,
    solve_xy_eq_zt,
)


# ---------------------------------------------------------------------------
# two-term solver
# ---------------------------------------------------------------------------

def test_two_term_examples():
    s = solve_two_term(3, 5, 1)
    assert (s.x0, s.y0, s.step_x, s.step_y) == (2, 1, 5, 3)
    assert not solve_two_term(2, 4, 1).solvable
    s = solve_two_term(1, 1, 0)
    assert (s.x0, s.y0, s.step_x, s.step_y) == (0, 0, 1, 1)


def test_two_term_vs_exhaustive():
    # All n, m <= 20, |b| <= 60: compare with brute-force minimum.
    for n in range(21):
        for m in range(21):
            if n == 0 and m == 0:
                continue
            for b in range(-60, 61):
                s = solve_two_term(n, m, b)
                best = None
                for x in range(0, 140):
                    num = n * x - b
                    if m == 0:
                        if num == 0:
                            best = (x, 0)
                            break
                        continue
                    if num >= 0 and num % m == 0:
                        best = (x, num // m)
                        break
                if best is None:
                    assert not s.solvable, (n, m, b)
                else:
                    assert s.solvable, (n, m, b)
                    assert (s.x0, s.y0) == best, (n, m, b)
                    # step structure regenerates further solutions
                    x2, y2 = s.x0 + s.step_x, s.y0 + s.step_y
                    assert n * x2 == m * y2 + b


# ---------------------------------------------------------------------------
# xy = zt
# ---------------------------------------------------------------------------

def test_xy_zt_examples():
    assert solve_xy_eq_zt(6, 1, 2, 3) == (2, 3, 1, 1)
    with pytest.raises(ValueError):  # x = 0 is outside the domain
        solve_xy_eq_zt(0, 5, 0, 7)
    u, v, w, r = solve_xy_eq_zt(4, 6, 8, 3)
    assert (u * v, w * r, u * w, v * r) == (4, 6, 8, 3)
    assert u == 4


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30))
@settings(max_examples=300)
def test_xy_zt_random(x, z, t):
    # construct a valid instance: y determined when x != 0; x = 0 is
    # outside the domain, whether or not xy = zt holds
    if x == 0:
        with pytest.raises(ValueError):
            solve_xy_eq_zt(x, 7, z, t)
        return
    if (z * t) % x != 0:
        return
    y = z * t // x
    u, v, w, r = solve_xy_eq_zt(x, y, z, t)
    assert (x, y, z, t) == (u * v, w * r, u * w, v * r)


# ---------------------------------------------------------------------------
# Hilbert bases / minimal solutions
# ---------------------------------------------------------------------------

def test_hilbert_examples():
    assert hilbert_basis([[2, -3]]).homogeneous == [(3, 2)]
    assert hilbert_basis([[2, -3, 0], [0, 3, -5]]).homogeneous == [(15, 10, 6)]
    assert hilbert_basis([[1, 1, -1]]).homogeneous == [(0, 1, 1), (1, 0, 1)]


def test_system_nonneg_paper_instances():
    mb = solve_system_nonneg([[2, -3, 0], [0, 3, -5]], [0, -1])
    assert (12, 8, 5) in mb.particular
    mb = solve_system_nonneg([[2, -3, 0], [0, 3, -5]], [0, 1])
    assert (3, 2, 1) in mb.particular
    mb = solve_system_nonneg([[0, 2, 0], [-3, 0, 1]], [0, -1])
    assert (1, 0, 2) in mb.particular


def test_minimal_basis_invariants_random():
    rng = random.Random(99)
    for _ in range(60):
        nvars = rng.randint(2, 4)
        rows = [[rng.randint(-6, 6) for _ in range(nvars)]
                for _ in range(rng.randint(1, 2))]
        rhs = [rng.randint(-4, 4) for _ in rows]
        mb = solve_system_nonneg(rows, rhs)
        assert mb.status == "complete"
        for sol in mb.particular:
            assert all(sum(r[i] * sol[i] for i in range(nvars)) == b
                       for r, b in zip(rows, rhs))
        for sol in mb.homogeneous:
            assert all(sum(r[i] * sol[i] for i in range(nvars)) == 0
                       for r in rows)
        # pairwise non-domination
        for group in (mb.particular, mb.homogeneous):
            for a in group:
                for b in group:
                    if a != b:
                        assert not all(x >= y for x, y in zip(a, b))


def test_completeness_small_boxes():
    # generated set == exhaustive enumeration within a box
    rng = random.Random(7)
    for _ in range(40):
        nvars = rng.randint(2, 4)
        rows = [[rng.randint(-6, 6) for _ in range(nvars)]]
        rhs = [rng.randint(-3, 3)]
        mb = solve_system_nonneg(rows, rhs)
        bound = 20
        generated = {s for s in generate_solutions(mb, nvars, rhs == [0],
                                                   bound)
                     if max(s) <= bound}
        exhaustive = set()
        for point in itertools.product(range(bound + 1), repeat=nvars):
            if sum(rows[0][i] * point[i] for i in range(nvars)) == rhs[0]:
                exhaustive.add(point)
        assert generated == exhaustive, (rows, rhs)


def test_budget_unknown_status():
    mb = solve_system_nonneg([[1000, -999]], [1], budget=10)
    assert mb.status == "budget"


# ---------------------------------------------------------------------------
# minimal divisibility sets
# ---------------------------------------------------------------------------

def test_divisibility_examples():
    assert minimal_divisibility_set([2], 8).tuples == ((4,),)
    assert minimal_divisibility_set([1, 1], 4).tuples == ((1, 4), (2, 2), (4, 1))
    assert minimal_divisibility_set([1, 0], 6).tuples == ((6, 1),)
    # all-zero exponents: no tuple unless |q| = 1
    assert minimal_divisibility_set([0, 0], 6).tuples == ()
    assert minimal_divisibility_set([0, 0], 1).tuples == ((1, 1),)


def test_divisibility_lemma_properties():
    rng = random.Random(4)
    for _ in range(150):
        nvars = rng.randint(1, 3)
        e = [rng.randint(0, 3) for _ in range(nvars)]
        if all(x == 0 for x in e):
            continue
        q = rng.randint(2, 40) * rng.choice([1, -1])
        ms = minimal_divisibility_set(e, q)
        e_max = max(e)
        for d in ms.tuples:
            prod = 1
            for dk, ek in zip(d, e):
                prod *= dk**ek
            assert prod % q == 0  # property (i)
            assert prod <= abs(q) ** (1 + e_max)  # proof bound
            assert all(dk == 1 for dk, ek in zip(d, e) if ek == 0)
        # property (ii) on random U with entries <= 50
        for _ in range(40):
            U = [rng.randint(1, 50) * rng.choice([1, -1])
                 for _ in range(nvars)]
            prod = 1
            for uk, ek in zip(U, e):
                prod *= uk**ek
            divisible = prod % q == 0
            covered = any(all(uk % dk == 0 for uk, dk in zip(U, d))
                          for d in ms.tuples)
            assert divisible == covered, (e, q, U)


# ---------------------------------------------------------------------------
# 2-D monoid membership
# ---------------------------------------------------------------------------

def brute_monoid(gens, target, cap=60, depth=14):
    seen = {(0, 0)}
    q = deque([((0, 0), 0)])
    while q:
        s, d = q.popleft()
        if s == target:
            return True
        if d == depth:
            continue
        for g in gens:
            t = (s[0] + g[0], s[1] + g[1])
            if abs(t[0]) <= cap and abs(t[1]) <= cap and t not in seen:
                seen.add(t)
                q.append((t, d + 1))
    return target in seen


def test_monoid_2d_against_bruteforce():
    rng = random.Random(42)
    for _ in range(2500):
        n = rng.randint(1, 5)
        gens = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(n)]
        target = (rng.randint(-6, 6), rng.randint(-6, 6))
        status, coeffs = solve_monoid_target_2d(gens, target, budget=10**5)
        assert status in ("feasible", "infeasible")
        if status == "feasible":
            s = (sum(c * g[0] for c, g in zip(coeffs, gens)),
                 sum(c * g[1] for c, g in zip(coeffs, gens)))
            assert s == target
            assert all(c >= 0 for c in coeffs)
        else:
            assert not brute_monoid(gens, target), (gens, target)


def test_monoid_2d_paper_systems():
    # z- and t-systems of x^2 + y^3 = z^5
    gens = [(2, -2), (-3, 0), (0, 5)]
    st1, z = solve_monoid_target_2d(gens, (0, 1))
    assert st1 == "feasible"
    st2, t = solve_monoid_target_2d(gens, (0, -1))
    assert st2 == "feasible"
    # x + x^2 y - y z^2: every orientation infeasible
    for alpha, beta, gamma in [
        ([1, 0, 0], [2, 1, 0], [0, 1, 2]),
        ([1, 0, 0], [0, 1, 2], [2, 1, 0]),
        ([2, 1, 0], [0, 1, 2], [1, 0, 0]),
    ]:
        gens = [(a - b, c - a) for a, b, c in zip(alpha, beta, gamma)]
        assert solve_monoid_target_2d(gens, (0, 1))[0] == "infeasible"


def test_monoid_2d_axes_configuration():
    # opposite pairs spanning the plane: monoid equals the lattice
    gens = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    status, coeffs = solve_monoid_target_2d(gens, (-7, 3))
    assert status == "feasible"
    gens = [(2, 0), (0, 2), (-2, 0), (0, -2)]
    assert solve_monoid_target_2d(gens, (1, 1))[0] == "infeasible"
    assert solve_monoid_target_2d(gens, (4, -6))[0] == "feasible"


def circuits_by_minors(gens):
    """Reference one-signed circuits: for each triple of columns the vector
    of its 2x2 minors, kept when no two entries have opposite signs, made
    non-negative and primitive."""
    out = []
    for i, j, k in itertools.combinations(range(len(gens)), 3):
        (x1, y1), (x2, y2), (x3, y3) = gens[i], gens[j], gens[k]
        minors = (x2 * y3 - y2 * x3, x3 * y1 - y3 * x1, x1 * y2 - y1 * x2)
        vec = [0] * len(gens)
        for pos, m in zip((i, j, k), minors):
            vec[pos] = m
        if not any(vec) or (max(vec) > 0 and min(vec) < 0):
            continue
        g = gcd(*vec)
        out.append([abs(v) // g for v in vec])
    return out


def fits_a_circuit(gens, coeffs):
    """Whether some one-signed circuit of gens lies under coeffs."""
    return any(all(c >= e for c, e in zip(coeffs, circuit))
               for circuit in circuits_by_minors(gens))


def test_plane_witness_reaches_the_target_with_no_circuit_under_it():
    # generators that positively span the plane, with antiparallel pairs,
    # repeated and zero generators mixed in: the witness comes from a
    # lattice solution and the circuits alone, and no circuit is left
    # under it
    rng = random.Random(13)
    planes = 0
    seen = set()
    for _ in range(600):
        gens = [(rng.randint(-9, 9), rng.randint(-9, 9))
                for _ in range(rng.randint(2, 5))]
        extras = set()
        if rng.random() < 0.4:
            k = rng.randint(1, 3)
            gens.append(tuple(-k * c for c in rng.choice(gens)))
            extras.add("antiparallel")
        if rng.random() < 0.4:
            gens.append(rng.choice(gens))
            extras.add("repeated")
        if rng.random() < 0.3:
            gens.append((0, 0))
            extras.add("zero")
        rng.shuffle(gens)
        active = [g for g in gens if g != (0, 0)]
        if not active or _cone_2d(active)[0] != "plane":
            continue
        planes += 1
        seen |= extras
        ks = [rng.randint(-3, 3) for _ in gens]
        member = (sum(k * g[0] for k, g in zip(ks, gens)),
                  sum(k * g[1] for k, g in zip(ks, gens)))
        targets = [(0, 1), (0, -1), (1, 0), member,
                   (rng.randint(-50, 50), rng.randint(-50, 50))]
        decided = list(monoid_contains_2d(gens, tuple(targets)))
        for target, expected in zip(targets, decided):
            status, coeffs = solve_monoid_target_2d(gens, target)
            assert status == expected, (gens, target)
            if status != "feasible":
                continue
            assert all(c >= 0 for c in coeffs)
            assert (sum(c * g[0] for c, g in zip(coeffs, gens)),
                    sum(c * g[1] for c, g in zip(coeffs, gens))) == target
            assert not fits_a_circuit(gens, coeffs), (gens, target, coeffs)
    assert planes > 200
    assert seen == {"antiparallel", "repeated", "zero"}


def _random_cone_instance(rng, shape):
    """Generators whose cone is (mostly) of the given shape, n <= 10 and
    entries up to 10^5, one in five with a sublattice of index > 1, and a
    tuple of targets: the four the sufficient condition asks about, zero, a
    random one and a lattice member, in random order."""
    n = rng.randint(1, 10)
    e = rng.choice([4, 100, 10**5])
    gens = [(rng.randint(-e, e), rng.randint(-e, e)) for _ in range(n)]
    if shape == "line":
        w = (rng.randint(-5, 5), rng.randint(-5, 5))
        gens = [(k * w[0], k * w[1])
                for k in (rng.randint(-9, 9) for _ in range(n))]
    elif shape == "pointed":
        gens = [(x, abs(y) + 1) for x, y in gens]
    elif shape == "halfplane":
        gens = [(abs(x), y) for x, y in gens]
        gens += [(0, rng.randint(1, e)), (0, -rng.randint(1, e))]
    if rng.random() < 0.2:
        k = rng.randint(2, 3)
        gens = [(k * x, y) for x, y in gens]
    if rng.random() < 0.1:
        gens.append((0, 0))
    ks = [rng.randint(-3, 3) for _ in gens]
    member = (sum(k * g[0] for k, g in zip(ks, gens)),
              sum(k * g[1] for k, g in zip(ks, gens)))
    targets = [(0, 1), (0, -1), (1, 0), (-1, 1), (0, 0),
               (rng.randint(-e, e), rng.randint(-e, e)), member]
    rng.shuffle(targets)
    return gens, tuple(targets)


def _lattice_index(active):
    d = 0
    for a, b in itertools.combinations(active, 2):
        d = gcd(d, a[0] * b[1] - a[1] * b[0])
    return d


def test_monoid_contains_2d_equals_solver_status(monkeypatch):
    # every status of the multi-target decision is the solver's own; a
    # pointed-cone search is entered only for targets inside the cone
    pointed_case = lindioph._pointed_case

    def inside_only(active, target, r1, r2, budget):
        assert _cross(r1, target) >= 0 and _cross(target, r2) >= 0
        return pointed_case(active, target, r1, r2, budget)

    monkeypatch.setattr(lindioph, "_pointed_case", inside_only)
    rng = random.Random(7)
    seen = set()
    for _ in range(800):
        shape = rng.choice(["line", "pointed", "halfplane", "plane"])
        gens, targets = _random_cone_instance(rng, shape)
        statuses = list(monoid_contains_2d(gens, targets, budget=1000))
        assert statuses == [solve_monoid_target_2d(gens, t, budget=1000)[0]
                            for t in targets], (gens, targets)
        active = [g for g in gens if g != (0, 0)]
        if active:
            kind = _cone_2d(active)[0]
            if kind == "plane" and _lattice_index(active) > 1:
                kind = "plane, index > 1"
            seen.update((kind, status) for status in statuses)
    assert {kind for kind, _ in seen} == {
        "line", "pointed", "halfplane", "plane", "plane, index > 1"}
    for kind in ("pointed", "plane, index > 1"):
        assert (kind, "infeasible") in seen and (kind, "feasible") in seen


class _SlopeKey:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __lt__(self, other):
        return _cross(self.v, other.v) > 0

    def __eq__(self, other):
        return _cross(self.v, other.v) == 0


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _angle_key(v):
    """Sort key by angle in [0, 2pi): the half-turn, then the slope."""
    x, y = v
    return (0 if y > 0 or (y == 0 and x > 0) else 1), _SlopeKey(v)


def _sorted_cone_2d(active):
    """The angular-sort classifier that _cone_2d replaced, kept as its
    reference: the largest cyclic gap between sorted primitive directions
    decides (> pi pointed, = pi half-plane, all < pi the plane)."""
    def primitive(v):
        g = gcd(v[0], v[1])
        return (v[0] // g, v[1] // g)

    dirs = sorted({primitive(g) for g in active}, key=_angle_key)
    if len(dirs) <= 2 and all(_cross(dirs[0], d) == 0 for d in dirs):
        return "line", dirs[0], None
    m = len(dirs)
    gap_pi = None
    for i in range(m):
        a, b = dirs[i], dirs[(i + 1) % m]
        cr = _cross(a, b)
        if cr < 0:
            return "pointed", b, a
        if cr == 0 and a[0] * b[0] + a[1] * b[1] < 0:
            gap_pi = a
    if gap_pi is not None:
        return "halfplane", gap_pi, None
    return "plane", None, None


def _cone_instance(rng):
    """Nonzero generators of every cone kind, entries up to 10^5: single
    rays, scaled duplicates, opposite pairs, half-planes with interior
    generators, pointed cones and random sets, turned by a random
    unimodular map so that no orientation is favoured."""
    n = rng.randint(1, 8)
    e = rng.choice([1, 3, 100, 10**5])
    gens = [(rng.randint(-e, e), rng.randint(-e, e)) for _ in range(n)]
    shape = rng.choice(["ray", "line", "duplicates", "opposite", "pointed",
                        "halfplane", "random"])
    w = gens[0] if gens[0] != (0, 0) else (1, rng.randint(-e, e))
    if shape == "ray":
        gens = [(k * w[0], k * w[1]) for k in range(1, n + 1)]
    elif shape == "line":
        gens = [(k * w[0], k * w[1])
                for k in (rng.choice([-7, -2, -1, 1, 3]) for _ in range(n))]
    elif shape == "duplicates":
        gens += [(k * x, k * y)
                 for k, (x, y) in zip(rng.choices(range(1, 5), k=n), gens)]
    elif shape == "opposite":
        gens.append((-rng.randint(1, 3) * w[0], -rng.randint(1, 3) * w[1]))
    elif shape == "pointed":
        gens = [(x, abs(y) + 1) for x, y in gens]
    elif shape == "halfplane":
        gens = [(abs(x) + 1, y) for x, y in gens]
        gens += [(0, rng.randint(1, e)), (0, -rng.randint(1, e))]
    a, b, c, d = rng.choice([(1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1),
                             (0, 1, -1, 0), (1, 0, 0, -1), (1, 1, 0, 1),
                             (2, 1, 1, 1)])
    gens = [(a * x + b * y, c * x + d * y) for x, y in gens]
    rng.shuffle(gens)
    return [g for g in gens if g != (0, 0)] or [(0, 1)]


def test_cone_2d_equals_sorted_classifier():
    rng = random.Random(2024)
    kinds = {}
    for _ in range(20_000):
        active = _cone_instance(rng)
        got = _cone_2d(active)
        assert got == _sorted_cone_2d(active), active
        kinds[got[0]] = kinds.get(got[0], 0) + 1
    assert set(kinds) == {"line", "pointed", "halfplane", "plane"}
    assert min(kinds.values()) > 1000, kinds


def test_cone_2d_edge_cases():
    assert _cone_2d([(2, -4)]) == ("line", (1, -2), None)
    assert _cone_2d([(-3, 0), (6, 0)]) == ("line", (1, 0), None)
    assert _cone_2d([(0, -2), (0, 5), (0, -1)]) == ("line", (0, 1), None)
    assert _cone_2d([(1, 0), (2, 2), (0, 3)]) == ("pointed", (1, 0), (0, 1))
    # the half-plane x >= 0: cross(w, v) <= 0 for every generator v
    assert _cone_2d([(0, 1), (5, 7), (0, -1)]) == ("halfplane", (0, 1), None)
    assert _cone_2d([(0, 1), (-5, 7), (0, -1)]) == \
        ("halfplane", (0, -1), None)
    assert _cone_2d([(1, 0), (-1, 1), (-1, -1)]) == ("plane", None, None)
    assert _cone_2d([(1, 0), (0, 1), (-1, 0), (0, -1)]) == \
        ("plane", None, None)


def _lattice_member_by_minors(gens, target):
    """Integer solvability of G z = t: G and [G | t] have the same rank and
    the same gcd of their rank-sized minors."""
    def rank_and_minors(cols):
        d2 = 0
        for a, b in itertools.combinations(cols, 2):
            d2 = gcd(d2, a[0] * b[1] - a[1] * b[0])
        if d2:
            return 2, d2
        d1 = 0
        for a in cols:
            d1 = gcd(d1, gcd(a[0], a[1]))
        return (1, d1) if d1 else (0, 0)

    return rank_and_minors(gens) == rank_and_minors(gens + [target])


def test_lattice_contains_2d_vs_minors():
    rng = random.Random(3)
    for _ in range(5000):
        e = rng.choice([3, 12, 10**5])
        gens = [(rng.randint(-e, e), rng.randint(-e, e))
                for _ in range(rng.randint(0, 5))]
        if gens and rng.random() < 0.3:  # rank one or zero
            w = gens[0]
            gens = [(k * w[0], k * w[1])
                    for k in (rng.randint(-6, 6) for _ in gens)]
        target = rng.choice([(0, 0), (0, 1), (1, 0),
                             (rng.randint(-2 * e, 2 * e),
                              rng.randint(-2 * e, 2 * e))])
        if gens and rng.random() < 0.3:  # a member by construction
            ks = [rng.randint(-5, 5) for _ in gens]
            target = (sum(k * g[0] for k, g in zip(ks, gens)),
                      sum(k * g[1] for k, g in zip(ks, gens)))
        assert _lattice_contains_2d(gens, target) == \
            _lattice_member_by_minors(gens, target), (gens, target)


def _recursive_xgcd(a, b):
    if b == 0:
        return a, 1, 0
    g, s, t = _recursive_xgcd(b, a % b)
    return g, t, s - (a // b) * t


def test_xgcd_matches_recursive_form():
    # the same Bezout pair as the recursive form, signs included, so the
    # line-case witnesses stay as they were
    rng = random.Random(11)
    cases = [(0, 0), (0, 5), (5, 0), (-4, 6), (6, -4), (-7, -21)]
    cases += [(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
              for _ in range(3000)]
    for a, b in cases:
        g, s, t = _xgcd(a, b)
        assert (g, s, t) == _recursive_xgcd(a, b)
        assert s * a + t * b == g and abs(g) == gcd(a, b)
