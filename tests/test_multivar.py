import collections
import dataclasses
import glob
import itertools
import json
import os
import random
from fractions import Fraction
from operator import le

import pytest
from references import lift_reduced_solution, plain_inner_bound
from test_golden import CASES
from test_lindioph import fits_a_circuit

from trisolve import expr as ex, multivar, twomon
from trisolve.cli import main
from trisolve.eqparse import (
    Monomial,
    NotATrinomial,
    Polynomial,
    canonicalize,
    parse_equation,
    parse_trinomial,
)
from trisolve.fixtures import (
    TABLE3,
    TABLE4,
    TABLE5,
    TABLE6,
    TABLE6_DEGREES,
    family_rows,
    family_rows_as_written,
)
from trisolve.intcore import ResourceLimit, factorize, valuation
from trisolve.lindioph import (
    MinimalBasis,
    _bounded_cone_case,
    _cone_2d,
    _lattice_contains_2d,
    solve_system_nonneg,
)
from trisolve.multivar import (
    check_prop4,
    check_sums,
    classify_cyclic,
    classify_family,
    direct_formula,
    enumerate_families,
    monte_carlo_prop4,
    reduce_to_independent,
    solve,
    solve_prop4,
    solve_separated_linear,
    solve_x1k_x2,
    trivial_solutions,
)
from trisolve.oracle import brute_force
from trisolve.solset import MappedFamily, SolutionSet, verify_against_oracle


def oracle_match(text, B, **kw):
    rep = solve(text, **kw)
    poly = parse_equation(text)
    pts, exact = rep.solutions.enumerate_box(B)
    truth = brute_force(poly, B).solutions
    assert set(pts) == set(truth), (
        text, sorted(set(truth) - set(pts))[:5],
        sorted(set(pts) - set(truth))[:5])
    return rep, exact


# ---------------------------------------------------------------------------
# trivial solutions
# ---------------------------------------------------------------------------

def test_trivials_icosahedral():
    eq = parse_trinomial("x^2+y^3-z^5")
    s = trivial_solutions(eq.full_polynomial())
    pts, _ = s.enumerate_box(4)
    truth = [t for t in brute_force(eq.polynomial(), 4).solutions
             if 0 in t]
    assert set(pts) == set(truth)
    assert (0, 1, 1) in set(pts)  # y^3 = z^5 branch


def test_trivials_of_uncancelled_equation():
    eq = parse_trinomial("x^2*y + x*y^2 + x*y*z")
    s = trivial_solutions(eq.full_polynomial())
    pts, _ = s.enumerate_box(3)
    truth = [t for t in brute_force(eq.full_polynomial(), 3).solutions
             if 0 in t]
    assert set(pts) == set(truth)


def _zero_set(fam):
    return {v for v in fam.variables if str(fam.exprs[v]) == "0"}


def test_trivials_seeded_minimal_zero_sets():
    # 1-3 distinct monomials in 2-4 variables, each variable in one of them:
    # the box listing is the oracle's points with a zero coordinate, and a
    # zero family belongs to a minimal zero set only and leaves some
    # variable free
    rng = random.Random(35)
    draws = 0
    while draws < 600:
        n = rng.randint(2, 4)
        variables = list("xyzt"[:n])
        monos = [Monomial.make(
            rng.choice([-1, 1]) * rng.randint(1, 4),
            {v: rng.randint(0, 3) for v in variables})
            for _ in range(rng.randint(1, 3))]
        poly = Polynomial(monos, variables)
        if (len({m.exps for m in monos}) < len(monos)
                or any(not poly.degree_in(v) for v in variables)):
            continue
        draws += 1
        sols = trivial_solutions(poly)
        box = 3 if n == 4 else 4
        truth = [t for t in brute_force(poly, box).solutions if 0 in t]
        assert sols.enumerate_box(box)[0] == truth, poly
        zero_sets = [_zero_set(f) for f in sols.families
                     if not isinstance(f, MappedFamily)]
        for z in zero_sets:
            assert z != set(variables), poly
            assert not any(w < z for w in zero_sets), poly


# ---------------------------------------------------------------------------
# the sufficient condition and its certificate
# ---------------------------------------------------------------------------

def test_check_prop4_paper_examples():
    # y^2 z + z = x^3 admits both systems
    eq = parse_trinomial("x^3-y^2*z-z")
    cert = check_prop4(eq)
    assert cert is not None and cert.t is not None
    # x^3 - y^2 z - y: z-system only
    eq = parse_trinomial("x^3-y^2*z-y")
    cert = check_prop4(eq)
    assert cert is not None and cert.t is None
    # x + x^2 y - y z^2: no orientation feasible
    eq = parse_trinomial("x+x^2*y-y*z^2")
    assert check_prop4(eq) is None


def test_certificate_identities():
    rng = random.Random(2)
    hits = 0
    while hits < 30:
        rows = tuple(tuple(rng.randint(0, 4) for _ in range(3))
                     for _ in range(3))
        if len(set(rows)) < 3:
            continue
        text = "+".join(
            "*".join([f"{v}^{e}" for v, e in zip("xyz", row) if e]) or "1"
            for row in rows)
        try:
            eq = parse_trinomial(text)
        except Exception:
            continue
        cert = check_prop4(eq)
        if cert is None or cert.unknown:
            continue
        hits += 1  # identity asserted inside check_prop4


def _reference_system_solve(alpha, beta, gamma, s, budget):
    """The witness search as it was before the 2-D solver took every
    system: the lexicographically least minimal solution from a
    Contejean-Devie completion, or None when the search is cut."""
    coef = [[a - b for a, b in zip(alpha, beta)],
            [b - g for b, g in zip(beta, gamma)]]
    mb = solve_system_nonneg(coef, [0, -s], budget=budget)
    if mb.status != "complete":
        return None
    if mb.particular:
        return "feasible", min(mb.particular)
    return "infeasible", None


def test_witness_solves_its_system_and_no_circuit_fits_under_it():
    # the witness need not be the least one, but it solves the system, no
    # one-signed circuit of the system can be taken off it, and its status
    # is the reference's whenever the reference search completes
    rng = random.Random(31)
    compared = feasible = 0
    for _ in range(150):
        n = rng.randint(3, 6)
        alpha, beta, gamma = ([rng.randint(0, 9) for _ in range(n)]
                              for _ in range(3))
        s = rng.choice((1, -1))
        status, z = multivar._system_solve(alpha, beta, gamma, s, 10**6)
        reference = _reference_system_solve(alpha, beta, gamma, s, 1000)
        if reference is not None:
            compared += 1
            assert status == reference[0], (alpha, beta, gamma, s)
        if status != "feasible":
            continue
        feasible += 1
        assert all(c >= 0 for c in z)
        assert check_sums(alpha, beta, gamma, z, s)
        gens = [(a - b, g - a) for a, b, g in zip(alpha, beta, gamma)]
        assert not fits_a_circuit(gens, z), (alpha, beta, gamma, s, z)
    assert compared > 60 and feasible > 50


@pytest.mark.parametrize("text", [
    "x*y + y*z + z*x = 0", "x^2 + y^3 = z^5", "x*y^2 = z^3 + z^2*x"])
def test_witness_is_the_least_on_the_direct_golden_entries(text):
    # the golden direct-formula families print these witnesses
    rows = parse_trinomial(text).rows
    feasible = 0
    for ia, ib, ig in multivar._ORIENTATIONS:
        for s in (1, -1):
            got = multivar._system_solve(rows[ia], rows[ib], rows[ig], s,
                                         10**6)
            reference = _reference_system_solve(rows[ia], rows[ib],
                                                rows[ig], s, 20000)
            assert got == reference, (rows, ia, ib, ig, s)
            feasible += got[0] == "feasible"
    assert feasible >= 2


def test_check_prop4_runs_no_contejean_devie_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a witness search ran a Contejean-Devie "
                             "completion")

    monkeypatch.setattr(multivar, "solve_system_nonneg", refuse)
    for text in ["x^2+y^3-z^5", "x*y+y*z+z*x",
                 "b^2*c^3*d*e^4*g^5*h^2+2*a^5*b*c*d^4*f^3*g^4"
                 "-3*a^3*b^4*c^2*d*e*f^5*g^3*h=0"]:
        cert = check_prop4(parse_trinomial(text))
        assert cert is not None and cert.t is not None, text


# ---------------------------------------------------------------------------
# direct formula
# ---------------------------------------------------------------------------

def test_direct_formula_y2zpz():
    eq = parse_trinomial("y^2*z+z-x^3")
    cert = check_prop4(eq)
    assert cert.t is not None
    fam = direct_formula(eq, cert)
    poly = eq.polynomial()
    rng = random.Random(8)
    from trisolve.intcore import divisors_k

    drawn = 0
    while drawn < 300:
        env = {f"u_{v}": rng.randint(-9, 9) for v in eq.variables}
        lhs_name, dom = fam.params[-1]
        g = dom.of.eval(env)
        if g == 0:
            continue
        env["w"] = rng.choice(divisors_k(g, 1))
        tup = fam.evaluate(env)
        assert poly.evaluate(dict(zip(eq.variables, tup))) == 0
        drawn += 1


def test_direct_formula_domain_violation():
    from trisolve.solset import DomainError

    eq = parse_trinomial("x^2+y^3-z^5")
    cert = check_prop4(eq)
    fam = direct_formula(eq, cert)
    env = {f"u_{v}": 1 for v in eq.variables}
    env["w"] = 7  # 7 divides neither bracket at u = (1,1,1)
    with pytest.raises(DomainError):
        fam.evaluate(env)


# ---------------------------------------------------------------------------
# separated-linear and block solvers
# ---------------------------------------------------------------------------

def test_separated_linear_unit():
    for text in ("x - y*z + 1", "-x - y*z + 1"):
        s = solve_separated_linear(parse_equation(text))
        pts, exact = s.enumerate_box(10)
        truth = brute_force(parse_equation(text), 10).solutions
        assert exact and set(pts) == set(truth), text


def test_separated_linear_modulus():
    s = solve_separated_linear(parse_equation("2*x - y^2 - 1"))
    pts, _ = s.enumerate_box(15)
    truth = brute_force(parse_equation("2*x - y^2 - 1"), 15).solutions
    assert set(pts) == set(truth)
    assert len(s.families) == 1  # only the odd residue class survives
    s = solve_separated_linear(parse_equation("3*x - y^2 - 2"))
    pts, _ = s.enumerate_box(15)
    truth = brute_force(parse_equation("3*x - y^2 - 2"), 15).solutions
    assert set(pts) == set(truth)
    assert len(s.families) == 2  # residues 1 and 2 mod 3


def test_separated_linear_takes_one_variable_classes_from_roots_mod():
    # 1000003 x = y^2 - 4 modulo a prime past the class limit: the roots
    # of y^2 - 4 give the two classes, where a scan of residues would not
    # end; two other variables still scan |a|^2 tuples, so past the limit
    # that is refused up front
    poly = parse_equation("1000003*x - y^2 + 4")
    s = solve_separated_linear(poly)
    assert str(s.status) == "Complete"
    assert [f.note for f in s.families] == ["y = 1000003w + 2",
                                            "y = 1000003w + 1000001"]
    pts, exact = s.enumerate_box(10)
    assert exact and set(pts) == set(brute_force(poly, 10).solutions)
    with pytest.raises(ResourceLimit, match="1001\\^2 residue classes"):
        solve_separated_linear(parse_equation("1001*x - y*z - 1"))


def test_separated_linear_empty_residues():
    # 3x = y^2 + 1 is impossible: y^2 = 2 mod 3 never happens
    s = solve_separated_linear(parse_equation("3*x - y^2 - 1"))
    assert s.is_empty_claim()


def test_x1k_x2_block():
    poly = parse_equation("x^2*y - z^2 - 1")
    s = solve_x1k_x2(poly, 0)
    pts, exact = s.enumerate_box(20)
    truth = [t for t in brute_force(poly, 20).solutions if t[0] != 0]
    assert exact and set(pts) == set(truth)
    # witness roundtrip
    fam = s.families[0]
    for sol in pts[:20]:
        env = fam.witness(sol)
        assert env is not None and fam.evaluate(env) == sol


def _draw_block_equation(rng):
    """A seeded a*x^k*y*... + b*(other variables) + c = 0 in three or four
    variables with |a| in 2..16: the block x^k*y*... holds a variable of
    exponent 1, and in one draw in three c makes the other monomial vanish
    somewhere, so that y_block = 0 occurs."""
    names = "xyzt"[:rng.choice((3, 4))]
    size = rng.randint(2, len(names) - 1)
    block = {v: rng.randint(1, 3) for v in names[:size]}
    block[rng.choice(names[:size])] = 1
    rest = {v: rng.randint(1, 3) for v in names[size:]}
    b = rng.choice((-3, -2, -1, 1, 2, 3))
    c = (-b * rng.randint(1, 3) ** sum(rest.values()) if rng.random() < 1 / 3
         else rng.choice((-5, -3, -2, -1, 1, 2, 4, 6)))
    a = rng.choice((-1, 1)) * rng.randint(2, 16)
    return Polynomial([Monomial.make(a, block), Monomial.make(b, rest),
                       Monomial.make(c, {})], list(names))


def test_block_families_sweep_only_the_box():
    # a block-via-divisors family bounds its residue parameters by the box
    # and each d_v by its own variable's bound; its listing must equal a
    # sweep of every parameter to the largest bound of the box
    rng = random.Random(18)
    listed = 0
    for _ in range(40):
        poly = _draw_block_equation(rng)
        boxes = [rng.randint(2, 5),
                 tuple(rng.randint(1, 6) for _ in poly.variables)]
        for fam in solve_x1k_x2(poly, 0).families:
            assert fam.note.endswith("via divisors") and fam.param_bound
            unbounded = dataclasses.replace(fam, param_bound=None)
            for box in boxes:
                points = fam.enumerate_box(box)
                assert points == unbounded.enumerate_box(box), (poly, box)
                listed += len(points)
    assert listed > 500


# ---------------------------------------------------------------------------
# reduction to independent monomials
# ---------------------------------------------------------------------------

def test_reduce_xpx2ymyz2_shape():
    eq = parse_trinomial("x+x^2*y-y*z^2")
    reds = reduce_to_independent(eq)
    shapes = {r.describe() for r in reds}
    assert "w1^2*w2^2+1-u1^2=0" in shapes or "w1^2*w2^2-1+u1^2=0" in shapes


def test_reduce_cubes_shape():
    eq = parse_trinomial("3*x^3+4*y^3+5*z^3")
    reds = reduce_to_independent(eq)
    assert any("w1^3" in r.describe() and "u1^3" in r.describe()
               for r in reds)


def test_small_reduced_trinomials_keep_two_variables():
    # solve_reduced hands a three-monomial reduced polynomial in at most two
    # variables straight to the two-variable solver
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")
    eqs = []
    for name in sorted(glob.glob(os.path.join(golden, "*.json"))):
        with open(name, encoding="utf-8") as fh:
            entry = json.load(fh)
        if "n-variable" in entry["path"]:
            eqs.append(parse_trinomial(entry["input"]))
    rng = random.Random(8)
    while len(eqs) < 200:
        names = "xyzt"[:rng.randint(3, 4)]
        monos = [Monomial.make(rng.choice((-3, -2, -1, 1, 2, 4, 6)),
                               {v: rng.randint(0, 3) for v in names})
                 for _ in range(3)]
        try:
            eq = canonicalize(Polynomial(monos, list(names)))
        except NotATrinomial:
            continue
        if len(eq.variables) >= 3:
            eqs.append(eq)
    small = 0
    for eq in eqs:
        for red in reduce_to_independent(eq):
            poly = red.polynomial()
            if len(poly.monomials) == 3 and len(poly.variables) <= 2:
                assert len(canonicalize(poly).variables) == 2, red.describe()
                small += 1
    assert small > 0


def test_reduction_backmap_soundness():
    # for solutions of each reduced equation found by search, the lift lands
    # on solutions of the source equation (verified inside the lift), both
    # through the branch plan and through the reference walk
    for text in ("x+x^2*y-y*z^2", "x^2*y+y*z-z^2"):
        eq = parse_trinomial(text)
        poly = eq.polynomial()
        for red in reduce_to_independent(eq):
            rpoly = red.polynomial()
            if len(rpoly.variables) > 3 or not rpoly.variables:
                continue
            sols = [t for t in brute_force(rpoly, 6).solutions
                    if all(x != 0 for x in t)]
            lift = multivar._reduced_lift([red], rpoly.variables)
            for tup in sols[:15]:
                values = dict(zip(rpoly.variables, tup))
                for lifted in (*lift([tup], 30),
                               *lift_reduced_solution(red, values, 30)):
                    assert poly.evaluate(
                        dict(zip(eq.variables, lifted))) == 0


def test_solve_reduction_path_completes():
    rep, exact = oracle_match("x + x^2*y - y*z^2 = 0", 15)
    assert str(rep.status) == "Complete"
    assert exact


def test_reduced_only_cubes():
    rep = solve("3*x^3+4*y^3+5*z^3=0")
    assert str(rep.status) == "ReducedOnly"
    assert any("3*w1^3" in r for r in rep.reduced)


@pytest.mark.parametrize("text,box", [
    ("x^2*y - z^2 - 1 = 0", 5),
    ("x*y - z*t - 1 = 0", 3),
    ("x*y*z - x - y = 0", 5),
])
def test_verify_sees_an_emptied_reduced_lift(text, box):
    # a lift family lists its points from its own reduced solution set, so
    # emptying that set must show up as missing points
    poly = parse_equation(text)
    rep = solve(text)
    lifts = [f for f in rep.solutions.families
             if f.note.startswith("lift of ")]
    assert lifts
    for fam in lifts:
        fam.inner = SolutionSet(fam.inner.variables, status=fam.inner.status)
    ver = verify_against_oracle(rep.solutions, poly,
                                brute_force(poly, box).solutions, box)
    assert ver.sound and not ver.complete_in_box and ver.missing


def _gf2_sign_solutions(rows, rhs_bits, n):
    """Reference: all epsilon in {0,1}^n with sum(row[i]*eps_i) = rhs
    (mod 2) per row, by Gaussian elimination over GF(2)."""
    mat = [list(r) + [b] for r, b in zip(rows, rhs_bits)]
    pivots = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, len(mat)) if mat[i][col] & 1), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][col] & 1:
                mat[i] = [(x + y) % 2 for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    for i in range(r, len(mat)):
        if mat[i][n] & 1 and not any(mat[i][j] & 1 for j in range(n)):
            return []
    free = [c for c in range(n) if c not in pivots]
    sols = []
    for combo in itertools.product((0, 1), repeat=len(free)):
        eps = [0] * n
        for c, v in zip(free, combo):
            eps[c] = v
        for row_idx, col in reversed(list(enumerate(pivots))):
            val = mat[row_idx][n]
            for j in range(col + 1, n):
                val ^= mat[row_idx][j] & eps[j]
            eps[col] = val
        sols.append(tuple(eps))
    return sols


def test_sign_table_matches_the_gf2_solve():
    # for every sign pattern of the reduced terms, the two table buckets of
    # the pattern and its negation hold exactly the sign vectors a GF(2)
    # solve finds under the two global flips
    rng = random.Random(13)
    for _ in range(500):
        nv = rng.randint(2, 5)
        rows = [tuple(rng.randint(0, 4) for _ in range(nv))
                for _ in range(3)]
        coeffs = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(3)]
        table = multivar._sign_table(coeffs, rows)
        assert sorted(v for bucket in table.values() for v in bucket) == list(
            itertools.product((0, 1), repeat=nv))
        parity = [[e % 2 for e in row] for row in rows]
        for signs in itertools.product((1, -1), repeat=3):
            pattern = tuple(x > 0 for x in signs)
            flipped = tuple(not p for p in pattern)
            got = table.get(pattern, []) + table.get(flipped, [])
            want = set()
            for flip in (1, -1):
                bits = [0 if (flip * x > 0) == (co > 0) else 1
                        for x, co in zip(signs, coeffs)]
                want.update(_gf2_sign_solutions(parity, bits, nv))
            assert len(got) == len(set(got)) and set(got) == want


def test_verify_sees_a_dropped_sign_vector(monkeypatch):
    # a lift takes its variable signs from the source's sign table, which
    # every branch shares, so a vector dropped from it must show up as
    # missing points
    text, box = "-x*z*t - x*z - 4*y*t = 0", 3
    poly = parse_equation(text)
    truth = brute_force(poly, box).solutions
    assert verify_against_oracle(solve(text).solutions, poly, truth,
                                 box).complete_in_box
    real = multivar.reduce_to_independent

    def dropping(eq):
        reduced = real(eq)
        table = reduced[0].sign_table
        assert all(red.sign_table is table for red in reduced)
        for bucket in table.values():
            if (1, 0, 0, 0) in bucket:
                bucket.remove((1, 0, 0, 0))
        return reduced

    monkeypatch.setattr(multivar, "reduce_to_independent", dropping)
    rep = solve(text)
    assert rep.solutions.variables == ["x", "z", "t", "y"]
    ver = verify_against_oracle(rep.solutions, poly, truth, box)
    assert ver.sound and not ver.complete_in_box
    assert ver.missing and all(p[0] < 0 for p in ver.missing)


def _block_groupings(solset):
    for fam in solset.families:
        if isinstance(fam, MappedFamily):
            if fam.note == "block grouping":
                yield fam
            yield from _block_groupings(fam.inner)


def test_verify_sees_an_emptied_block_grouping():
    # a block-grouping family lists its points from its grouped solution
    # set, not from the oracle, so emptying that set must show up as
    # missing points
    text, box = "-2*y - 3*x^2*z^2 - 2*x*y^2 = 0", 5
    poly = parse_equation(text)
    rep = solve(text)
    groupings = list(_block_groupings(rep.solutions))
    assert groupings
    for fam in groupings:
        fam.inner = SolutionSet(fam.inner.variables, status=fam.inner.status)
    ver = verify_against_oracle(rep.solutions, poly,
                                brute_force(poly, box).solutions, box)
    assert ver.sound and not ver.complete_in_box and ver.missing


def test_block_grouping_refuses_a_capped_inner_listing(capsys):
    # a box point's block value reaches box^(its block's degree): blk0
    # stands for w1^2*w2^3 and blk2 for u1; past the inner limit the
    # listing would be cut, so `verify` must stop with exit code 3 instead
    # of answering from a truncated listing
    text = "-2*y - 3*x^2*z^2 - 2*x*y^2 = 0"
    groupings = list(_block_groupings(solve(text).solutions))
    assert groupings
    for fam in groupings:
        assert fam.inner.variables == ["blk0", "blk2"]
        assert fam.inner_bound(5) == (3125, 5)
        with pytest.raises(ResourceLimit, match="block grouping"):
            fam.inner_bound(16)
    assert main(["verify", text, "--box", "16"]) == 3
    assert "resource limit" in capsys.readouterr().err


def _lifts(solset):
    return [f for f in solset.families if f.note.startswith("lift of ")]


def test_lift_family_refuses_a_capped_inner_listing():
    # the case-2 variable u1 stands for x*z/t, so a box point reaches
    # u1 = box^2, while the block variable w3 stays within the box; past the
    # inner limit the listing would be cut, so it must raise instead
    lifts = _lifts(solve("3*y*t + 3*x*z + 3*t = 0").solutions)
    assert lifts
    for fam in lifts:
        assert fam.inner.variables == ["w3", "u1"]
        assert fam.inner_bound(3) == (3, 9)
        assert fam.inner_bound(1000) == (1000, 10**6)
        with pytest.raises(ResourceLimit, match="reduced lift"):
            fam.enumerate_box(1001)


def test_lift_listing_matches_the_reference_walk():
    # each lift family lists what the reference lists: the inner set at the
    # plain bound, every inner point lifted through every branch by the
    # point-by-point walk, kept in the box; and every reduced point that the
    # walk lifts into the box lies inside the family's own inner bound
    polys = [parse_equation(text) for text in _golden_reduction_inputs()]
    rng = random.Random(44)
    polys += [_draw_trinomial(rng) for _ in range(60)]
    checked = reaching = 0
    for poly in polys:
        box = 3 if len(poly.variables) == 4 else 4
        groups = {}
        for red in reduce_to_independent(canonicalize(poly)):
            groups.setdefault(f"lift of {red.describe()}", []).append(red)
        for fam in _lifts(solve(poly, bound=1000).solutions):
            branches, names = groups[fam.note], fam.inner.variables
            bounds = fam.inner_bound(box)
            inner, _ = fam.inner.enumerate_box(
                plain_inner_bound(branches, names, box))
            want = set()
            for point in inner:
                if 0 in point:
                    continue
                values = dict(zip(names, point))
                lifted = {p for red in branches
                          for p in lift_reduced_solution(red, values, box)}
                if lifted:
                    reaching += 1
                    assert all(map(le, map(abs, point), bounds)), (
                        fam.note, point, bounds)
                want |= lifted
            assert fam.enumerate_box(box) == want, (str(poly), fam.note)
            checked += 1
    assert checked >= 150 and reaching >= 400, (checked, reaching)


def _draw_trinomial(rng):
    """A seeded trinomial in three or four variables in which every variable
    occurs and none divides all three monomials."""
    while True:
        names = "xyzt"[:rng.choice((3, 4))]
        exps = (0, 0, 1, 1, 2) if len(names) == 3 else (0, 0, 1, 1)
        rows = [tuple(rng.choice(exps) for _ in names) for _ in range(3)]
        cols = list(zip(*rows))
        if (len(set(rows)) == 3 and all(any(c) for c in cols)
                and not any(all(c) for c in cols)):
            return Polynomial([Monomial.make(rng.choice((-4, -3, -2, -1, 1,
                                                          2, 3, 4)),
                                             dict(zip(names, row)))
                               for row in rows], list(names))


def _sign_orbit(red, key=multivar.ReducedEquation.describe):
    """The keys (by default the texts) of the branches red becomes when the
    coefficient of any term with a variable of odd exponent is negated, and
    when all three coefficients are."""
    options = [(1, -1) if any(e % 2 for e in t.exps) else (1,)
               for t in red.terms]
    return frozenset(
        key(dataclasses.replace(red, terms=tuple(
            dataclasses.replace(t, coeff=g * s * t.coeff)
            for t, s in zip(red.terms, signs))))
        for signs in itertools.product(*options) for g in (1, -1))


def _branch(red):
    """What tells two branches apart: their terms and particular solution
    (the source, bases and sign table are those of the source equation)."""
    return red.terms, red.particular


def _class_representative(red):
    """Reference: the branch of red's sign class whose sign-free
    coefficients are positive, flipped globally so that its first other
    coefficient is positive."""
    free = [any(e % 2 for e in t.exps) for t in red.terms]
    flip = next((t.coeff < 0 for t, f in zip(red.terms, free) if not f),
                False)
    coeffs = [abs(t.coeff) if f else -t.coeff if flip else t.coeff
              for t, f in zip(red.terms, free)]
    return dataclasses.replace(red, terms=tuple(
        dataclasses.replace(t, coeff=c) for t, c in zip(red.terms, coeffs)))


def _four_pattern_reduction(eq):
    """Reference: the reduction that builds every branch under the four sign
    patterns (1, s2, s3) of the coefficients A, B, C, calling the term
    options anew for each pattern and keeping repeats."""
    nv = len(eq.variables)
    r1, r2, r3 = eq.rows
    a, b, c = eq.coeffs
    diff_ab = [x - y for x, y in zip(r1, r2)]
    diff_ag = [x - y for x, y in zip(r1, r3)]
    diff_bg = [x - y for x, y in zip(r2, r3)]
    (e_basis, e_exp), (f_basis, f_exp), (g_basis, g_exp) = (
        multivar._block_systems(eq.rows))
    primes = factorize(a * b * c).primes()
    sign_table = multivar._sign_table(eq.coeffs, eq.rows)
    per_prime = {}
    for p in primes:
        ap, bp, cp = valuation(a, p), valuation(b, p), valuation(c, p)
        for cls, (row, rhs) in enumerate(((diff_ab, bp - ap),
                                          (diff_ag, cp - ap),
                                          (diff_bg, cp - bp))):
            per_prime[(p, cls)] = (
                [(0,) * nv] if rhs == 0 else
                list(solve_system_nonneg([row], [rhs],
                                         budget=200000).particular))
    out = []
    for split in itertools.product(range(3), repeat=len(primes)):
        choices = [[(p, cls, z0) for z0 in per_prime[(p, cls)]]
                   for p, cls in zip(primes, split)]
        for combo in itertools.product(*choices):
            A = B = C = Fraction(1)
            particular = [1] * nv
            for p, cls, z0 in combo:
                ap, bp, cp = valuation(a, p), valuation(b, p), valuation(c, p)
                particular = [x * p ** z for x, z in zip(particular, z0)]
                if cls == 2:
                    A *= Fraction(p) ** (
                        ap - bp + sum(d * z for d, z in zip(diff_ab, z0)))
                elif cls == 1:
                    B *= Fraction(p) ** (
                        bp - cp + sum(d * z for d, z in zip(diff_bg, z0)))
                else:
                    C *= Fraction(p) ** (
                        cp - ap - sum(d * z for d, z in zip(diff_ag, z0)))
            for s1, s2, s3 in ((1, 1, 1), (1, 1, -1), (1, -1, 1),
                               (1, -1, -1)):
                for terms in itertools.product(
                        multivar._block_term_options(s1 * A, g_exp, "w"),
                        multivar._block_term_options(s2 * B, f_exp, "v"),
                        multivar._block_term_options(s3 * C, e_exp, "u")):
                    out.append(multivar.ReducedEquation(
                        source=eq, terms=terms, particular=tuple(particular),
                        bases=(tuple(g_basis), tuple(f_basis),
                               tuple(e_basis)),
                        sign_table=sign_table))
    return out


def _golden_reduction_inputs():
    """The inputs of the golden `sufficient-*` and `reduction-*` entries."""
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")
    texts = []
    for name in sorted(glob.glob(os.path.join(golden, "*.json"))):
        if os.path.basename(name).startswith(("sufficient-", "reduction-")):
            with open(name, encoding="utf-8") as fh:
                texts.append(json.load(fh)["input"])
    assert len(texts) == 10
    return texts


def test_reduction_emits_one_branch_per_sign_class():
    # reduce_to_independent emits each sign class of the four-pattern
    # reduction once, as its representative, in the order the four-pattern
    # reduction first reaches the class
    eqs = [parse_trinomial(text) for text in _golden_reduction_inputs()]
    rng = random.Random(31)
    eqs += [canonicalize(_draw_trinomial(rng)) for _ in range(60)]
    for eq in eqs:
        reference = _four_pattern_reduction(eq)
        emitted = reduce_to_independent(eq)
        orbits = [_sign_orbit(red, _branch) for red in emitted]
        assert len(set(orbits)) == len(orbits)
        assert all(_class_representative(red) == red for red in emitted)
        covered = set().union(*orbits)
        assert {_branch(red) for red in reference} <= covered
        assert covered == set().union(*(_sign_orbit(red, _branch)
                                        for red in reference))
        assert [_branch(red) for red in emitted] == list(dict.fromkeys(
            _branch(_class_representative(red)) for red in reference))


def _reduction_report(poly):
    """The report of `solve` when it takes the sufficient-condition or the
    reduction path, else None."""
    rep = solve(poly, bound=1000)
    return rep if rep.path[-1] in ("sufficient-condition",
                                   "reduction") else None


def _has_one_lift_per_sign_class(poly):
    """False when `solve` takes neither the sufficient-condition nor the
    reduction path; otherwise asserts that the lift families have distinct
    notes, one per sign class of reduced equations, and list the box
    exactly."""
    rep = _reduction_report(poly)
    if rep is None:
        return False
    notes = [f.note for f in _lifts(rep.solutions)]
    assert len(set(notes)) == len(notes), notes
    orbits = {r.describe(): _sign_orbit(r)
              for r in reduce_to_independent(canonicalize(poly))}
    classes = {orbits[note[len("lift of "):]] for note in notes}
    assert len(classes) == len(notes) == len(set(orbits.values())), notes
    box = 3 if len(poly.variables) == 4 else 4
    ver = verify_against_oracle(rep.solutions, poly,
                                brute_force(poly, box).solutions, box)
    assert ver.sound and ver.complete_in_box, (rep.input_text,
                                               ver.missing[:4])
    return True


def test_one_lift_family_per_sign_class():
    # each sign class of reduced equations is solved once and lifted through
    # one branch per back map, so its lift family lists every box point
    # those branches and their sign images reach
    texts = _golden_reduction_inputs() + ["3*y*t + 3*x*z + 3*t = 0",
                                          "2*y + 2*x*z + 3*y*t = 0"]
    for text in texts:
        assert _has_one_lift_per_sign_class(parse_equation(text))
    rng = random.Random(11)
    seeded = 0
    while seeded < 60:
        seeded += _has_one_lift_per_sign_class(_draw_trinomial(rng))


def test_a_sign_class_lifts_like_all_its_branches():
    # the branches of a sign class reach the same box points, so the one
    # branch emitted must reach exactly what solving and lifting every
    # branch of the class in the four-pattern reduction on its own reaches
    rng = random.Random(12)
    checked = 0
    while checked < 60:
        poly = _draw_trinomial(rng)
        if _reduction_report(poly) is None:
            continue
        eq = canonicalize(poly)
        emitted = reduce_to_independent(eq)
        kept, _ = multivar._lift_reduced(emitted, 1000)
        orbits = {r.describe(): _sign_orbit(r) for r in emitted}
        box = 3 if len(poly.variables) == 4 else 4
        images = {}
        for red in _four_pattern_reduction(eq):
            (fam,), _ = multivar._lift_reduced([red], 1000)
            images.setdefault(_sign_orbit(red), set()).update(
                fam.enumerate_box(box))
        assert len(kept) == len(images)
        for fam in kept:
            assert (fam.enumerate_box(box)
                    == images[orbits[fam.note[len("lift of "):]]])
        checked += 1


def test_sign_images_are_listed_once():
    # each of these lift families lists a point no other one lists, where
    # one family per sign image listed every point four times or more
    for text, box, points in (("x*y - z*t - 1 = 0", 3, 64),
                              ("2*x*y + 3*z*t = 5", 3, 24),
                              ("-3*x^2 - 4*y*z - 3*x = 0", 5, 12)):
        listed = [p for fam in _lifts(solve(text).solutions)
                  for p in fam.enumerate_box(box)]
        assert len(listed) == len(set(listed)) == points, text
    # its reduction emits six branches, one per sign class, over three
    # reduced equations (the four-pattern reduction built 72 branches over
    # twelve); two of them, w2*w4+1+u1=0 and w2*w4+1+2*u1=0, still list the
    # same points
    assert len(reduce_to_independent(parse_trinomial(
        "-x*z*t - x*z - 4*y*t = 0"))) == 6
    assert len(_lifts(solve("-x*z*t - x*z - 4*y*t = 0").solutions)) == 3


@pytest.mark.parametrize("box", [2, 4])
@pytest.mark.parametrize("text", ["2 + 6*y*z - 2*x^2*y^2 = 0",
                                  "3*z^2 - 8*x^2 - 2*x^3*y^2*z = 0"])
def test_terms_of_even_exponents_keep_their_signs(text, box):
    # negating a constant term or one whose exponents are all even changes
    # the solutions, so branches differing there are lifted apart: merging
    # them drops points such as y = z = -1, x = -2 of the first equation
    poly = parse_equation(text)
    ver = verify_against_oracle(solve(text).solutions, poly,
                                brute_force(poly, box).solutions, box)
    assert ver.sound and ver.complete_in_box, ver.missing[:4]


def test_verify_sees_a_point_dropped_from_the_direct_formula(monkeypatch):
    # golden entry direct-icosahedral; the trivial families list only points
    # with a zero coordinate, so a point without one comes from the formula
    text, box = "x^2 + y^3 = z^5", 10
    poly = parse_equation(text)
    truth = brute_force(poly, box).solutions
    assert verify_against_oracle(solve(text).solutions, poly, truth,
                                 box).complete_in_box
    real = multivar.direct_formula
    dropped = set()

    def dropping(eq, cert):
        fam = real(eq, cert)
        kept = dataclasses.replace(fam)
        dropped.add(min(p for p in kept.enumerate_box(box) if 0 not in p))
        fam.box_enumerator = lambda b: kept.enumerate_box(b) - dropped
        return fam

    monkeypatch.setattr(multivar, "direct_formula", dropping)
    rep = solve(text)
    assert rep.path == ["n-variable", "direct-formula"] and len(dropped) == 1
    ver = verify_against_oracle(rep.solutions, poly, truth, box)
    assert ver.sound and ver.missing == sorted(dropped)


def _witness_listing(fam, points):
    """Reference: the values of the expressions, by `Expr.eval`, at the
    witness of each candidate that has one, leaving out the candidates where
    an exact division fails."""
    out = set()
    for point in points:
        env = fam.witness(point)
        if env is None:
            continue
        try:
            out.add(tuple(fam.exprs[v].eval(env) for v in fam.variables))
        except ex.ExactDivisionError:
            continue
    return out


def test_divisor_family_listings_equal_witness_and_eval(monkeypatch):
    # every direct-formula and power-product listing, nested ones included,
    # lists what the witness and eval give on the candidates it sweeps:
    # the golden direct-formula and two-monomial entries in three and four
    # variables, and 60 seeded trinomials, at the corpus boxes; it builds a
    # kernel only for a sweep with a candidate, and that kernel sees every
    # candidate
    swept, offered = [], []
    real_kernel, real_family = ex.listing_kernel, twomon.divisor_family

    def recording_kernel(*args):
        kernel = real_kernel(*args)

        def run(points):
            swept.append(list(points))
            return kernel(swept[-1])
        return run

    checked = collections.Counter()

    def checked_family(*args):
        def candidates(bound):
            offered.append(list(args[-1](bound)))
            return offered[-1]

        fam = real_family(*args[:-1], candidates)
        listing = fam.box_enumerator

        def box_enumerator(bound):
            swept.clear()
            offered.clear()
            out = listing(bound)
            (points,) = offered
            assert swept == ([points] if points else []), fam.note
            assert out == _witness_listing(fam, points), fam.note
            checked[fam.note.split(",")[0]] += 1
            return out
        fam.box_enumerator = box_enumerator
        return fam

    monkeypatch.setattr(ex, "listing_kernel", recording_kernel)
    monkeypatch.setattr(twomon, "divisor_family", checked_family)
    monkeypatch.setattr(multivar, "divisor_family", checked_family)
    polys = [parse_equation(argv[0]) for name, argv in CASES
             if name.startswith(("direct-", "two-monomial-"))]
    polys = [p for p in polys if len(p.variables) in (3, 4)]
    rng = random.Random(39)
    polys += [_draw_trinomial(rng) for _ in range(60)]
    for poly in polys:
        box = 5 if len(poly.variables) == 3 else 3
        solve(poly, bound=1000).solutions.enumerate_box(box)
    assert checked["direct formula"] >= 30, checked
    assert checked["power-product family"] >= 50, checked


# ---------------------------------------------------------------------------
# master dispatcher box-equivalence
# ---------------------------------------------------------------------------

def test_master_prop4_cases():
    for text, B in (
        ("x^3 - y^2*z - y = 0", 15),
        ("x^2*y = z^2 + 1", 15),
        ("x*y + y*z + z*x = 0", 12),
    ):
        rep, exact = oracle_match(text, B)
        assert str(rep.status) == "Complete"
        assert exact


def _cut_at_budget(real):
    """A basis routine whose search stopped early: one minimal solution of
    each kind dropped and the status set to 'budget'."""
    def run(*args, **kwargs):
        mb = real(*args, **kwargs)
        return MinimalBasis(mb.homogeneous[:-1], mb.particular[:-1],
                            "budget")
    return run


@pytest.mark.parametrize("name,text", [
    ("hilbert_basis", "x + x^2*y - y*z^2 = 0"),
    ("hilbert_basis", "x^2*y = z^2 + 1"),
    ("solve_system_nonneg", "2*x + 3*x^2*y - 5*y*z^2 = 0"),
    ("solve_system_nonneg", "2*x^2*y = 3*z^2 + 1"),
])
def test_truncated_basis_is_never_complete(monkeypatch, name, text):
    # each of these is Complete when the bases are whole
    assert str(solve(text).status) == "Complete"
    monkeypatch.setattr(multivar, name, _cut_at_budget(getattr(multivar,
                                                               name)))
    with pytest.raises(ResourceLimit, match="node budget"):
        solve(text)


def test_classify_family_rejects_a_truncated_basis(monkeypatch):
    rows, _ = family_rows("x + x^2*y - y*z^2")
    assert classify_family(rows)[0] == "reduced"
    monkeypatch.setattr(multivar, "hilbert_basis",
                        _cut_at_budget(multivar.hilbert_basis))
    with pytest.raises(ResourceLimit, match="node budget"):
        classify_family(rows)


def test_master_small_shapes():
    oracle_match("x*y = 6", 10)
    oracle_match("x^2 = 0", 5)
    oracle_match("x^3 - 4*x = 0", 10)
    rep = solve("x^2+1=0")
    assert rep.solutions.is_empty_claim()


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_table3_vectors_validate():
    for text, zvec in TABLE3:
        alpha, beta, gamma, _ = family_rows_as_written(text)
        sa = sum(a * z for a, z in zip(alpha, zvec))
        sb = sum(b * z for b, z in zip(beta, zvec))
        sg = sum(g * z for g, z in zip(gamma, zvec))
        assert sa == sb == sg - 1, text


def test_tables45_fail_condition_and_shapes():
    for text, shape in TABLE4 + TABLE5:
        rows, _ = family_rows(text)
        kind, *rest = classify_family(rows)
        assert kind == "reduced", text
        assert rest[0].replace("=0", "") == shape, (text, rest[0], shape)


def _partition_families(degree):
    """The partition-and-overlap enumeration that enumerate_families
    replaced, followed by the filter `classify` applied to it, kept as its
    reference: each monomial is a partition of its degree, variable slots
    are identified across monomials in every way, and the 3 x n matrix is
    canonicalized over row and column permutations."""
    def partitions(d, mx):
        if d == 0:
            return [()]
        return [(k,) + rest for k in range(min(d, mx), 0, -1)
                for rest in partitions(d - k, k)]

    def overlaps(slots, idx=0, assignment=()):
        if idx == len(slots):
            nvars = max(assignment, default=-1) + 1
            cols = []
            for var in range(nvars):
                col = [0, 0, 0]
                for (mono, e), a in zip(slots, assignment):
                    if a == var:
                        col[mono] += e
                cols.append(tuple(col))
            yield cols
            return
        mono = slots[idx][0]
        used = {a for (m, _), a in zip(slots, assignment) if m == mono}
        for var in range(max(assignment, default=-1) + 2):
            if var not in used:
                yield from overlaps(slots, idx + 1, assignment + (var,))

    def canonical(cols):
        rows = [tuple(col[j] for col in cols) for j in range(3)]
        return min(tuple(zip(*sorted(zip(*(rows[p] for p in perm)),
                                     reverse=True)))
                   for perm in itertools.permutations(range(3)))

    patterns = [p for d in range(degree + 1) for p in partitions(d, d)]
    out = set()
    for pats in itertools.product(patterns, repeat=3):
        if max(map(sum, pats)) != degree:
            continue
        slots = [(mono, e) for mono, pat in enumerate(pats) for e in pat]
        for cols in overlaps(slots):
            rows = [tuple(col[j] for col in cols) for j in range(3)]
            if (len(cols) < 3 or any(all(col) for col in cols)
                    or len(set(rows)) < 3
                    or any(not any(row) for row in rows)
                    or len(set(cols)) < len(cols)):
                continue
            out.add(canonical(cols))
    return sorted(out)


@pytest.mark.parametrize("degree,total", [(2, 13), (3, 166)])
def test_enumerate_families_equals_partition_reference(degree, total):
    fams = enumerate_families(degree)
    assert fams == _partition_families(degree)
    assert len(fams) == total
    for rows in fams:
        cols = list(zip(*rows))
        assert len(cols) >= 3 and len(set(cols)) == len(cols)
        assert all(0 in col and any(col) for col in cols)
        assert max(map(sum, rows)) == degree
        assert all(any(row) for row in rows) and len(set(rows)) == 3


def test_cyclic_cases():
    r = classify_cyclic(2, 4)
    pts, _ = r.solutions.enumerate_box(5)
    assert pts == brute_force(parse_equation("x^2*y^4+y^2*z^4+z^2*x^4"),
                              5).solutions
    r = classify_cyclic(2, 1)
    pts, _ = r.solutions.enumerate_box(6)
    truth = brute_force(parse_equation("x^2*y+y^2*z+z^2*x"), 6).solutions
    assert set(pts) == {t for t in truth if 0 in t} == set(truth)
    r = classify_cyclic(1, 1, bound=200)
    pts, _ = r.solutions.enumerate_box(8)
    truth = brute_force(parse_equation("x*y+y*z+z*x"), 8).solutions
    assert set(pts) == set(truth)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def test_monte_carlo_reproducible():
    a = monte_carlo_prop4(4, 1000, 300, seed=11)
    b = monte_carlo_prop4(4, 1000, 300, seed=11)
    assert a.feasible == b.feasible
    c = monte_carlo_prop4(4, 1000, 300, seed=12)
    assert (a.feasible, a.unknown) != (c.feasible, None)


@pytest.mark.parametrize("n,d,samples,seed,feasible", [
    (3, 10, 400, 5, 108),
    (4, 1000, 300, 11, 153),
    (6, 100, 300, 7, 244),
    (9, 10_000, 200, 3, 198),
    (2, 100_000, 300, 1, 0),
])
def test_monte_carlo_recorded_counts(n, d, samples, seed, feasible):
    # (feasible, unknown) as recorded when every draw still built a witness
    res = monte_carlo_prop4(n, d, samples, seed=seed)
    assert (res.feasible, res.unknown) == (feasible, 0)


# (feasible, unknown) of all 40 Table-6 cells at 200 samples with the seeds
# of `repro 6` and the acceptance tests (seed 7 + 1000 n + d), as recorded
# when every exponent was drawn by rng.randint
TABLE6_COUNTS_AT_200 = {
    3: [(71, 0), (45, 0), (50, 0), (35, 0), (42, 0)],
    4: [(104, 0), (92, 0), (99, 0), (89, 0), (104, 0)],
    5: [(151, 0), (135, 0), (139, 0), (135, 0), (137, 0)],
    6: [(167, 0), (164, 0), (159, 0), (165, 0), (152, 0)],
    7: [(180, 0), (187, 0), (177, 0), (184, 0), (183, 0)],
    8: [(189, 0), (188, 0), (185, 0), (181, 0), (189, 0)],
    9: [(196, 0), (187, 0), (195, 0), (189, 0), (192, 0)],
    10: [(199, 0), (200, 0), (199, 0), (195, 0), (198, 0)],
}


def test_table6_counts_at_200_samples():
    assert TABLE6_COUNTS_AT_200.keys() == TABLE6.keys()
    for n, row in TABLE6_COUNTS_AT_200.items():
        got = []
        for d in TABLE6_DEGREES:
            res = monte_carlo_prop4(n, d, 200, seed=7 + n * 1000 + d)
            got.append((res.feasible, res.unknown))
        assert got == row, n


@pytest.mark.parametrize("d", [0, 1, 10, 2**16 - 1, 2**16, 10**5, 2**32])
def test_uniform_draws_follow_randint(d):
    # the Monte-Carlo draws must stay the stream of randint(0, d) on the
    # running interpreter, or every Table-6 count moves
    for seed in (0, 7, 12345, 2**40 + 3):
        for count in (1, 5, 3000):
            rng = random.Random(seed)
            expected = [rng.randint(0, d) for _ in range(count)]
            assert multivar._uniform_draws(random.Random(seed), d,
                                           count) == expected, (seed, count)


def _one_orientation_status(gens, target, budget):
    """Status of one target, with its own cone and lattice."""
    active = [g for g in gens if g != (0, 0)]
    if not active:
        return "infeasible"
    cone = _cone_2d(active)
    if cone[0] == "plane":
        return ("feasible" if _lattice_contains_2d(active, target)
                else "infeasible")
    return _bounded_cone_case(active, target, cone, budget)[0]


def _prop4_condition_by_orientation(alpha, beta, gamma, budget):
    """The decision that _prop4_condition replaced, kept as its reference:
    each orientation builds its own generators and tests (0, 1) alone."""
    unknown = False
    rows = (alpha, beta, gamma)
    for ia, ib, ig in reversed(multivar._ORIENTATIONS):
        gens = [(x - y, z - x)
                for x, y, z in zip(rows[ia], rows[ib], rows[ig])]
        status = _one_orientation_status(gens, (0, 1), budget)
        if status == "feasible":
            return True, unknown
        if status == "unknown":
            unknown = True
    return False, unknown


def test_prop4_condition_equals_the_decision_by_orientation():
    # small budgets force 'unknown', so the order of the targets shows
    rng = random.Random(15)
    seen = set()
    for _ in range(20000):
        n = rng.randint(1, 7)
        d = rng.choice([0, 1, 2, 3, 5, 10, 100, 10**5])
        budget = rng.choice([1, 2, 3, 5, 10, 40, 500000])
        rows = [[rng.randint(0, d) for _ in range(n)] for _ in range(3)]
        got = multivar._prop4_condition(*rows, budget)
        assert got == _prop4_condition_by_orientation(*rows, budget), \
            (rows, budget)
        seen.add(got)
    assert seen == {(True, False), (True, True), (False, False),
                    (False, True)}


def test_prop4_condition_agrees_with_check_prop4():
    # the Monte-Carlo decision and the certificate search of the solver
    # decide the same sufficient condition
    rng = random.Random(4)
    feasible = 0
    for _ in range(400):
        n = rng.randint(2, 4)
        while True:
            raw = [[rng.randint(0, 4) for _ in range(n)] for _ in range(3)]
            lows = [min(col) for col in zip(*raw)]
            rows = {tuple(e - low for e, low in zip(row, lows))
                    for row in raw}
            if len(rows) == 3:
                break
        names = [f"x{i}" for i in range(n)]
        eq = canonicalize(Polynomial(
            [Monomial.make(1, dict(zip(names, row))) for row in rows],
            names))
        cert = check_prop4(eq)
        assert cert is None or not cert.unknown
        ok, unknown = multivar._prop4_condition(*eq.rows)
        assert not unknown and ok == (cert is not None), eq.rows
        feasible += ok
    assert 0 < feasible < 400


def test_monte_carlo_rejects_a_negative_degree():
    with pytest.raises(ValueError):
        monte_carlo_prop4(3, -1, 10, seed=1)


def test_monte_carlo_threads_agree():
    one = monte_carlo_prop4(5, 100, 500, seed=3, threads=1, chunk=125)
    two = monte_carlo_prop4(5, 100, 500, seed=3, threads=2, chunk=125)
    assert (one.feasible, one.unknown) == (two.feasible, two.unknown)


def test_monte_carlo_degenerate_degree_zero():
    res = monte_carlo_prop4(3, 0, 50, seed=1)
    assert res.feasible == 0
