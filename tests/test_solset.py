import itertools
import random

import pytest
from references import sweep_by_assignments
from test_golden import CASES

from trisolve import expr as ex, multivar
from trisolve.eqparse import parse_equation
from trisolve.oracle import brute_force
from trisolve.solset import (
    COMPLETE,
    REDUCED_ONLY,
    UNKNOWN,
    AllIntegers,
    ConstructionError,
    DivisorSet,
    DomainError,
    MappedFamily,
    NonzeroIntegers,
    RecurrenceFamily,
    SolutionFamily,
    SolutionSet,
    pinned_family,
    searched,
    verify_against_oracle,
)


def yzt_family():
    # (x, y, z, t) = (u1, u2, u3, (u1^2+1)/(u2*u3)) for y z t = x^2 + 1
    u1, u2, u3 = ex.param("u1"), ex.param("u2"), ex.param("u3")
    top = ex.Add(ex.Pow(u1, 2), ex.const(1))
    return SolutionFamily(
        variables=["x", "y", "z", "t"],
        params=[("u1", AllIntegers()),
                ("u2", DivisorSet(1, top)),
                ("u3", DivisorSet(1, ex.ExactDiv(top, u2)))],
        exprs={"x": u1, "y": u2, "z": u3,
               "t": ex.ExactDiv(top, ex.Mul(u2, u3))},
        witness=lambda s: ({"u1": s[0], "u2": s[1], "u3": s[2]}
                           if s[1] and s[2] and (s[0]**2 + 1) % (s[1]*s[2]) == 0
                           and (s[0]**2 + 1)//(s[1]*s[2]) == s[3] else None),
        exact_box=True)


def test_evaluate_family():
    fam = yzt_family()
    assert fam.evaluate({"u1": 2, "u2": 5, "u3": 1}) == (2, 5, 1, 1)


def test_evaluate_domain_violation():
    fam = yzt_family()
    with pytest.raises(DomainError):
        fam.evaluate({"u1": 2, "u2": 3, "u3": 1})  # 3 does not divide 5


def test_table2_row_family():
    # (x, y) = (-w^2(1+w), -w^3(1+w)) solves x^4 + x y^2 + y^3 = 0
    w = ex.param("w")
    fam = SolutionFamily(
        variables=["x", "y"],
        params=[("w", AllIntegers())],
        exprs={"x": ex.Mul(ex.const(-1), ex.Pow(w, 2),
                           ex.Add(ex.const(1), w)),
               "y": ex.Mul(ex.const(-1), ex.Pow(w, 3),
                           ex.Add(ex.const(1), w))},
        exact_box=False)
    assert fam.evaluate({"w": 1}) == (-2, -2)
    poly = parse_equation("x^4+x*y^2+y^3")
    for w0 in range(-6, 7):
        x, y = fam.evaluate({"w": w0})
        assert poly.evaluate({"x": x, "y": y}) == 0


def test_construction_checking():
    poly = parse_equation("x^2+y^2-5")
    s = SolutionSet(["x", "y"], equation=poly)
    s.add_finite((1, 2))
    with pytest.raises(ConstructionError):
        s.add_finite((1, 1))
    with pytest.raises(ConstructionError):
        SolutionSet(["x", "y"], finite={(3, 3)}, equation=poly)


def test_status_combine_weakest():
    assert COMPLETE.combine(searched(50)) == searched(50)
    assert searched(50).combine(searched(80)).bound == 50
    assert searched(50).combine(REDUCED_ONLY) == REDUCED_ONLY
    assert REDUCED_ONLY.combine(UNKNOWN) == UNKNOWN
    assert COMPLETE.combine(COMPLETE) == COMPLETE


def test_enumerate_box_and_exactness_flag():
    fam = yzt_family()
    s = SolutionSet(["x", "y", "z", "t"], families=[fam])
    pts, exact = s.enumerate_box(5)
    assert exact
    poly = parse_equation("y*z*t-x^2-1")
    for t in pts:
        assert poly.evaluate(dict(zip("xyzt", t))) == 0
    assert (2, 5, 1, 1) in pts


def test_heuristic_flag_without_witness():
    w = ex.param("w")
    fam = SolutionFamily(
        variables=["x"], params=[("w", AllIntegers())],
        exprs={"x": w}, exact_box=False)
    s = SolutionSet(["x"], families=[fam])
    _, exact = s.enumerate_box(5)
    assert not exact


def assert_witness_round_trip(fam, box):
    """Each box point of fam comes back from its witness, and no other box
    point has one."""
    listed = fam.enumerate_box(box)
    assert listed
    for point in itertools.product(range(-box, box + 1),
                                   repeat=len(fam.variables)):
        env = fam.witness(point)
        if point in listed:
            assert env is not None and fam.evaluate(env) == point, point
        else:
            assert env is None, point


def test_pinned_family_witness_round_trip():
    # no coordinate fixed, a zero one as the trivial solutions pin, a
    # nonzero one, and every coordinate fixed
    for fixed in ({}, {"y": 0}, {"x": 2, "z": -1}, {"x": 1, "y": -3, "z": 0}):
        assert_witness_round_trip(pinned_family(
            ["x", "y", "z"], fixed, "pinned", lambda v: f"u_{v}"), 3)


def test_witness_roundtrip_random():
    import random

    fam = yzt_family()
    rng = random.Random(0)
    count = 0
    while count < 1000:
        u1 = rng.randint(-20, 20)
        top = u1 * u1 + 1
        divs = [d for d in range(1, top + 1) if top % d == 0]
        u2 = rng.choice(divs) * rng.choice([1, -1])
        rest = [d for d in range(1, abs(top // u2) + 1)
                if (top // u2) % d == 0]
        u3 = rng.choice(rest) * rng.choice([1, -1])
        env = {"u1": u1, "u2": u2, "u3": u3}
        tup = fam.evaluate(env)
        again = fam.witness(tup)
        assert again is not None
        assert fam.evaluate(again) == tup
        count += 1


def test_recurrence_family_box():
    fam = RecurrenceFamily(
        variables=["u", "v"], seeds=[(3, 2), (-3, 2), (3, -2), (-3, -2),
                                     (1, 0), (-1, 0)],
        matrix=((3, 4), (2, 3)))
    pts = fam.enumerate_box(1000)
    for (u, v) in pts:
        assert u * u - 2 * v * v == 1
    assert (577, 408) in pts
    assert fam.witness((577, 408)) is not None


def test_recurrence_family_lists_a_point_far_from_its_seed():
    # the walk back from the seed passes nine points outside the box before
    # it reaches (1, 0)
    matrix = ((3, 4), (2, 3))
    seed = RecurrenceFamily(variables=["u", "v"], seeds=[(1, 0)],
                            matrix=matrix).step((1, 0), 10)
    fam = RecurrenceFamily(variables=["u", "v"], seeds=[seed], matrix=matrix)
    assert fam.enumerate_box(1) == {(1, 0)}


def test_recurrence_family_stopping_rule_edges():
    # trace 2: a fixed seed ends its walk by returning to itself, a moving
    # one by a coordinate that grows past the box
    shear = ((1, 1), (0, 1))
    fixed = RecurrenceFamily(variables=["u", "v"], seeds=[(1, 0)],
                             matrix=shear)
    assert fixed.enumerate_box(3) == {(1, 0)}
    moving = RecurrenceFamily(variables=["u", "v"], seeds=[(0, 1)],
                              matrix=shear)
    assert moving.enumerate_box(3) == {(k, 1) for k in range(-3, 4)}
    # the stopping rule needs |trace| >= 2 and determinant +-1
    for matrix in (((0, -1), (1, 1)), ((2, 0), (0, 2))):
        with pytest.raises(ValueError):
            RecurrenceFamily(variables=["u", "v"], seeds=[(1, 0)],
                             matrix=matrix)


def test_verify_against_oracle_negative_control():
    poly = parse_equation("x^2-y^2")
    good = SolutionSet(["x", "y"], finite={(1, 1), (2, -2)}, equation=poly)
    report = verify_against_oracle(good, poly, [(0, 0), (1, 1), (2, -2)], 2)
    assert report.sound and not report.complete_in_box
    assert (0, 0) in report.missing
    # corrupted set: bypass construction checking deliberately
    bad = SolutionSet(["x", "y"], finite={(1, 1)})
    bad.finite.add((1, 2))
    report = verify_against_oracle(bad, poly, [(1, 1)], 2)
    assert not report.sound and (1, 2) in report.spurious


def test_an_empty_listing_is_verified_without_evaluating_the_equation():
    # a set that lists no point is never evaluated, even when its variables
    # miss some of the equation's: it is sound, and incomplete by the
    # oracle's points
    poly = parse_equation("x*z+y*z+3*z")
    truth = brute_force(poly, 2).solutions
    report = verify_against_oracle(SolutionSet(["x", "y"]), poly, truth, 2)
    assert report.sound and not report.spurious
    assert not report.complete_in_box and report.missing == truth


def test_nonzero_domain():
    dom = NonzeroIntegers()
    assert dom.contains(3, {}) and not dom.contains(0, {})
    assert 0 not in list(dom.enumerate({}, 4))


def test_parameter_sweep_drops_the_points_where_a_division_fails():
    # (x, y) = (u/2, u): the odd u of the sweep raise and list no point
    u = ex.param("u")
    fam = SolutionFamily(variables=["x", "y"], params=[("u", AllIntegers())],
                         exprs={"x": ex.ExactDiv(u, ex.const(2)), "y": u})
    with pytest.raises(ex.ExactDivisionError):
        fam.evaluate({"u": 1})
    assert fam.enumerate_box(3) == {(0, 0), (1, 2), (-1, -2)}


def _swept_families(solset):
    """The expression families of solset that list their box by a parameter
    sweep, inner sets of mapped families included."""
    for fam in solset.families:
        if isinstance(fam, MappedFamily):
            yield from _swept_families(fam.inner)
        elif isinstance(fam, SolutionFamily) and fam.box_enumerator is None:
            yield fam


def _draw_expr(rng, names, depth, divide):
    """A small expression over names: a constant, a parameter, or a sum,
    product, power, gcd or (when divide) exact quotient of smaller ones."""
    if depth == 0 or not names or rng.random() < 0.3:
        if names and rng.random() < 0.7:
            return ex.param(rng.choice(names))
        return ex.const(rng.randint(-3, 3))
    kind = rng.choice(["add", "mul", "pow", "gcd", "div", "div"])
    if kind == "div" and not divide:
        kind = "add"

    def sub():
        return _draw_expr(rng, names, depth - 1, divide)

    if kind == "add":
        return ex.Add(sub(), sub())
    if kind == "mul":
        return ex.Mul(sub(), sub())
    if kind == "pow":
        return ex.Pow(sub(), rng.randint(0, 3))
    if kind == "gcd":
        return ex.Gcd(sub(), sub())
    return ex.ExactDiv(sub(), sub())


def _draw_family(rng):
    """A family of 1-3 variables over 0-3 parameters, each over Z, Z without
    0, or a divisor domain of a division-free expression in the earlier
    ones; its coordinates may divide."""
    params = []
    for i in range(rng.randint(0, 3)):
        name, earlier = f"p{i}", [n for n, _ in params]
        kind = rng.choice(["all", "nonzero", "divisor", "divisor"])
        if kind == "divisor" and earlier:
            domain = DivisorSet(rng.randint(1, 2),
                                _draw_expr(rng, earlier, 2, False))
        else:
            domain = NonzeroIntegers() if kind == "nonzero" else AllIntegers()
        params.append((name, domain))
    variables = ["x", "y", "z"][:rng.randint(1, 3)]
    return SolutionFamily(
        variables=variables, params=params,
        exprs={v: _draw_expr(rng, [n for n, _ in params], 3, True)
               for v in variables})


def test_depth_first_sweep_lists_what_full_assignments_list(monkeypatch):
    # each coordinate is evaluated once its last parameter is bound and ends
    # the partial assignment when it leaves the box or its division fails:
    # that must list what evaluating every full assignment lists
    families = [yzt_family()]
    for _, argv in CASES:
        opts = dict(zip(argv[1::2], argv[2::2]))
        families += _swept_families(multivar.solve(
            argv[0], bound=int(opts.get("-B", 1000)),
            budget=int(opts.get("--budget", 10**6))).solutions)
    assert len(families) >= 20
    rng = random.Random(4507)
    u = ex.param("u")
    families += [_draw_family(rng) for _ in range(300)] + [SolutionFamily(
        variables=["x", "y"], params=[("u", AllIntegers())],
        exprs={"x": ex.ExactDiv(u, ex.const(2)), "y": u})]
    failures = []
    plain = ex.ExactDiv.eval

    def counted(self, env):
        try:
            return plain(self, env)
        except ex.ExactDivisionError:
            failures.append(self)
            raise

    monkeypatch.setattr(ex.ExactDiv, "eval", counted)
    failing, listing = 0, 0
    for fam in families:
        before = len(failures)
        for box in (3, tuple(range(1, len(fam.variables) + 1))):
            listed = fam.enumerate_box(box)
            assert listed == sweep_by_assignments(fam, box), (
                fam.describe(), box)
            listing += bool(listed)
        failing += len(failures) > before
    # the families reach every domain kind, divisions that fail and
    # nonempty listings
    assert {type(d) for fam in families for _, d in fam.params} == {
        AllIntegers, NonzeroIntegers, DivisorSet}
    assert failing >= 100 and listing >= 400


def _within(point, box):
    return all(abs(x) <= b for x, b in zip(point, box))


# equations whose lift or block-grouping families list their inner sets at
# unequal per-variable bounds
UNEQUAL_INNER = [("lift", ["3*y*t + 3*x*z + 3*t = 0"]),
                 ("lift-case2", ["-x^2*z - 3*x*z - 4*y^2 = 0"]),
                 ("block-grouping", ["-2*y - 3*x^2*z^2 - 2*x*y^2 = 0"])]


def test_rectangular_box_is_the_cube_filtered():
    # one bound per variable lists exactly the points of the cube at the
    # largest bound that fit the box, with the same exactness flag
    rng = random.Random(31)
    for name, argv in CASES + UNEQUAL_INNER:
        opts = dict(zip(argv[1::2], argv[2::2]))
        sols = multivar.solve(argv[0], bound=int(opts.get("-B", 1000)),
                              budget=int(opts.get("--budget", 10**6))
                              ).solutions
        for _ in range(3):
            box = tuple(rng.randint(0, 5) for _ in sols.variables)
            pts, exact = sols.enumerate_box(box)
            cube, cube_exact = sols.enumerate_box(max(box, default=0))
            assert pts == [p for p in cube if _within(p, box)], (name, box)
            assert exact == cube_exact, (name, box)


def test_recurrence_family_stops_per_coordinate():
    # u^2 - 2 v^2 = 1: u grows faster than v, so in a box with a large v
    # bound the orbit leaves on u first, and with a small one on v first;
    # the walk from a seed far outside the box shrinks back into it
    matrix = ((3, 4), (2, 3))
    start = RecurrenceFamily(variables=["u", "v"], seeds=[(1, 0)],
                             matrix=matrix)
    orbit = {start.step((1, 0), k) for k in range(-12, 13)}
    far = start.step((1, 0), 9)
    for seeds in ([(1, 0)], [far]):
        fam = RecurrenceFamily(variables=["u", "v"], seeds=seeds,
                               matrix=matrix)
        for box in ((100, 1000), (1000, 10), (577, 408), (0, 0), (1, 5000)):
            expected = {p for p in orbit if _within(p, box)}
            assert fam.enumerate_box(box) == expected, (seeds, box)
