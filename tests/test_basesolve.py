import random
import stat
import textwrap
import time
from fractions import Fraction
from math import gcd

import pytest

from trisolve import basesolve
from trisolve.basesolve import (
    _power_difference_roots,
    _SIEVE_PRIMES,
    _TwoPower,
    _twopower_axis_solutions,
    _twopower_descend,
    _twopower_factorable,
    _twopower_search,
    _twopower_sign_class,
    _twopower_terminal,
    pell_fundamental,
    RungeConditionError,
    solve_quadratic,
    solve_runge_finite,
    solve_superelliptic,
)
from trisolve.eqparse import Monomial, Polynomial, parse_equation
from trisolve.intcore import (
    divisors_k,
    exact_iroot,
    integer_roots,
    iroot,
    rational_root_d,
    shifted_power,
)
from trisolve.multivar import solve
from trisolve.oracle import brute_force
from trisolve.solset import ConstructionError, verify_against_oracle


def test_pell_fundamental():
    assert pell_fundamental(2) == (3, 2)
    assert pell_fundamental(3) == (2, 1)
    assert pell_fundamental(61) == (1766319049, 226153980)
    with pytest.raises(ValueError):
        pell_fundamental(9)


def test_quadratic_circle():
    s = solve_quadratic(1, 1, -1)
    assert s.finite == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_quadratic_pell_orbit():
    s = solve_quadratic(1, -2, -1)
    pts, exact = s.enumerate_box(10**6)
    assert exact
    for (u, v) in pts:
        assert u * u - 2 * v * v == 1
    assert (3, 2) in set(pts) and (577, 408) in set(pts)
    # recurrence preserves the form along ten steps
    fam = s.families[0]
    vec = (3, 2)
    for _ in range(10):
        vec = fam.step(vec)
        assert vec[0] ** 2 - 2 * vec[1] ** 2 == 1


def test_quadratic_empty():
    assert solve_quadratic(1, 1, 1).is_empty_claim()


def test_quadratic_degenerate_square_disc():
    # u^2 - 4 v^2 = 9: (u-2v)(u+2v) = 9
    s = solve_quadratic(1, -4, -9)
    pts, _ = s.enumerate_box(100)
    truth = brute_force(parse_equation("u^2-4*v^2-9"), 100).solutions
    assert set(pts) == set(truth)


def test_quadratic_linear_factor_families():
    # u^2 = 9 v^2 has C = 0: solve_quadratic refuses it, and solve takes it
    # as the two-monomial equation it is
    with pytest.raises(ValueError):
        solve_quadratic(1, -9, 0)
    pts, exact = solve("u^2-9*v^2=0", bound=30).solutions.enumerate_box(30)
    truth = brute_force(parse_equation("u^2-9*v^2"), 30).solutions
    assert exact and set(pts) == set(truth)


def test_ray_and_pinned_family_witnesses_round_trip():
    # 4u^2 = 9v^2, u^2 = 9v^2 and 4v^2 = 9u^2 (the rays (+-3t, 2t),
    # (+-3t, t) and (+-2t, 3t)) and v^2 = 4 have a zero coefficient, so
    # solve_quadratic refuses them; solve lists each box exactly, and each
    # listed point comes back from its family's witness.  A divisor
    # family's witness is defined on its solutions only, so points off the
    # family are not checked here (test_solset does so for pinned families)
    for (A, B, C), text in (((4, -9, 0), "4*u^2-9*v^2"),
                            ((1, -9, 0), "u^2-9*v^2"),
                            ((-9, 4, 0), "4*v^2-9*u^2"),
                            ((0, 1, -4), "v^2-4")):
        with pytest.raises(ValueError):
            solve_quadratic(A, B, C)
        s = solve(f"{text}=0", bound=12).solutions
        pts, exact = s.enumerate_box(12)
        truth = brute_force(parse_equation(text), 12).solutions
        assert exact and set(pts) == set(truth), text
        assert len(s.families) == (2 if C == 0 else 0), text
        for fam in s.families:
            listed = fam.enumerate_box(12)
            assert listed
            for point in listed:
                assert fam.evaluate(fam.witness(point)) == point, point


def test_quadratic_vs_oracle_random():
    # a zero coefficient is outside solve_quadratic's domain
    rng = random.Random(5)
    for _ in range(60):
        A = rng.randint(-6, 6)
        B = rng.randint(-6, 6)
        C = rng.randint(-20, 20)
        if A * B * C == 0:
            with pytest.raises(ValueError):
                solve_quadratic(A, B, C)
            continue
        s = solve_quadratic(A, B, C)
        pts, exact = s.enumerate_box(40)
        truth = set(brute_force(s.equation, 40).solutions)
        assert exact and set(pts) == truth, (A, B, C)


def test_superelliptic_worked_examples():
    s = solve_superelliptic(1, -2, -1, 5, 5, bound=50, variables=["U", "v"])
    assert s.finite == {(-1, 1), (0, -1)}
    assert str(s.status) == "Complete"
    s = solve_superelliptic(1, -8, -1, 5, 5, bound=50, variables=["V", "u"])
    assert s.finite == {(0, -1)}
    assert str(s.status) == "SearchedToBound(50)"


def test_superelliptic_mordell():
    s = solve_superelliptic(1, 1, 1, 3, 2, bound=100)
    assert s.finite == {(-1, 0), (0, 1), (0, -1), (2, 3), (2, -3)}


def test_superelliptic_linear_family_complete():
    # 3y = x^2 + 2
    s = solve_superelliptic(3, 1, 2, 2, 1, bound=100)
    pts, exact = s.enumerate_box(25)
    assert exact and str(s.status) == "Complete"
    truth = brute_force(s.equation, 25).solutions
    assert set(pts) == set(truth)


def test_superelliptic_linear_divides_out_the_gcd():
    # 995328 y = 12288 x + 24576 is 81 y = x + 2: one residue class mod 81
    s = solve_superelliptic(995328, 12288, 24576, 1, 1, bound=100)
    assert len(s.families) == 1 and not s.finite
    pts, exact = s.enumerate_box(200)
    assert exact and set(pts) == set(brute_force(s.equation, 200).solutions)
    assert (79, 1) in pts


def test_superelliptic_linear_solves_n1_by_one_inverse():
    # for n = 1 the one residue class comes from a modular inverse, even
    # modulo a prime past the prime-scan limit; for every n the families
    # are those of a scan over every residue
    s = solve_superelliptic(1_000_000_007, 3, 1, 1, 1, bound=100)
    assert str(s.status) == "Complete"
    assert [f.note for f in s.families] == ["x = 1000000007w + 666666671"]
    rng = random.Random(1)
    for n in range(1, 5):
        for _ in range(200):
            a = rng.choice([-1, 1]) * rng.randint(1, 90)
            b = rng.choice([-1, 1]) * rng.randint(1, 90)
            c = rng.randint(-200, 200)
            if c == 0:
                continue  # a two-monomial equation, solved elsewhere
            g = abs(gcd(a, b))
            aa = abs(a) // g
            scan = [f"x = {aa}w + {r}" for r in range(aa)
                    if c % g == 0 and (b // g * r**n + c // g) % aa == 0]
            s = solve_superelliptic(a, b, c, n, 1, bound=100)
            assert [f.note for f in s.families] == scan, (a, b, c, n)


def test_superelliptic_linear_with_a_huge_modulus_returns():
    # the strict case reaches 152587890625 y = -25 x - 175, whose residue
    # scan would take 6103515625 steps
    report = solve("25*x^6+7*x^5*y+25*y^7=0", bound=10)
    assert str(report.solutions.status) == "Complete"
    poly = parse_equation("25*x^6+7*x^5*y+25*y^7=0")
    ver = verify_against_oracle(report.solutions, poly,
                                brute_force(poly, 30).solutions, 30)
    assert ver.sound and ver.complete_in_box


def test_superelliptic_linear_scans_a_prime_above_the_class_limit():
    # 1000003 y = x^2 - 4: a prime modulus past _LINEAR_CLASS_LIMIT is
    # still scanned, and only its two roots +-2 become families
    s = solve_superelliptic(1_000_003, 1, -4, 2, 1, bound=100)
    assert str(s.status) == "Complete"
    assert [f.note for f in s.families] == ["x = 1000003w + 2",
                                            "x = 1000003w + 1000001"]


@pytest.mark.parametrize("text", ["-40*x^5+39*x*y^4-23*x^6=0",
                                  "32*x^5*y^3-39*x^2*y^6+29*x^2*y^7=0"])
def test_linear_base_equation_with_a_huge_modulus_and_n_above_1(text):
    # the strict cases reach a*y = b*x^n + c with n = 4 and |a| about
    # 2.4e9, and n = 3 and |a| about 6.7e7: too many residues to scan
    start = time.perf_counter()
    report = solve(text, bound=10)
    assert time.perf_counter() - start < 10
    assert str(report.solutions.status) == "Complete"
    poly = parse_equation(text)
    ver = verify_against_oracle(report.solutions, poly,
                                brute_force(poly, 20).solutions, 20)
    assert ver.sound and ver.complete_in_box


def test_pell_limit_with_a_huge_unit_is_a_resource_limit(monkeypatch):
    # a scan length past the int-to-str digit limit still gives a message
    monkeypatch.setattr(basesolve, "pell_fundamental",
                        lambda d, limit=None: (10**10000, 10**9999))
    with pytest.raises(basesolve.ResourceLimit, match="2\\^"):
        solve_quadratic(1, -2, -1)


def test_pell_limit_stops_the_expansion_early():
    # the strict case reaches a Pell equation whose fundamental unit has
    # thousands of digits; the seed scan is known to be too long long before
    start = time.perf_counter()
    with pytest.raises(basesolve.ResourceLimit, match="at least 2\\^"):
        solve("-34*x^6*y^2-7*x*y^5+17*y^6=0", bound=10)
    assert time.perf_counter() - start < 10


def test_pell_early_limit_changes_no_outcome(monkeypatch):
    # with the seed limit lowered to 50, the same (A, B, C) answer or raise
    # with and without the limit passed to pell_fundamental
    monkeypatch.setattr(basesolve, "_PELL_SEED_LIMIT", 50)
    rng = random.Random(24)
    draws = []
    while len(draws) < 300:
        A, B = rng.randint(1, 30), -rng.randint(1, 30)
        if exact_iroot(-A * B, 2) is None:
            draws.append((A, B, rng.choice((1, -1)) * rng.randint(1, 500)))

    def outcomes():
        out = []
        for A, B, C in draws:
            try:
                s = solve_quadratic(A, B, C)
                out.append([f.describe() for f in s.families])
            except basesolve.ResourceLimit:
                out.append("limit")
        return out

    early = outcomes()
    real = basesolve.pell_fundamental
    monkeypatch.setattr(basesolve, "pell_fundamental",
                        lambda d, limit=None: real(d))
    assert outcomes() == early
    assert 50 < early.count("limit") < 250


def test_superelliptic_residue_empty():
    # 3y = x^2 + 1 has no solutions (x^2 = 2 mod 3 impossible), nor has
    # 4y = 6x^2 + 3 (gcd(4, 6) = 2 does not divide 3)
    for a, b, c in ((3, 1, 1), (4, 6, 3)):
        s = solve_superelliptic(a, b, c, 2, 1, bound=100)
        assert s.is_empty_claim()


def test_superelliptic_padic_emptiness():
    s = solve_superelliptic(1, -2, -44, 5, 5, bound=100)
    assert s.is_empty_claim() and str(s.status) == "Complete"


def test_superelliptic_swap_branch():
    # m > n: a y^5 = b x^2 + c handled by swapping
    s = solve_superelliptic(1, 1, 1, 2, 5, bound=100, variables=["x", "y"])
    truth = brute_force(s.equation, 50).solutions
    pts, _ = s.enumerate_box(50)
    assert set(pts) == set(truth)
    assert s.equation.variables == ["x", "y"]


def test_superelliptic_swapped_linear_family_witness():
    # 2y^3 = 3x + 1 is solved as the linear case in swapped variables
    s = solve_superelliptic(2, 3, 1, 1, 3, bound=100)
    assert len(s.families) == 1 and not s.finite
    fam = s.families[0]
    assert fam.variables == ["x", "y"]
    pts = fam.enumerate_box(200)
    assert pts == set(brute_force(s.equation, 200).solutions)
    for pt in pts:
        assert fam.evaluate(fam.witness(pt)) == pt


def test_superelliptic_needs_both_variables():
    for n, m in ((0, 2), (2, 0)):
        with pytest.raises(ValueError):
            solve_superelliptic(1, 1, 1, n, m)


def test_superelliptic_monotone_in_bound():
    small = solve_superelliptic(1, 1, -7, 3, 3, bound=20).finite
    large = solve_superelliptic(1, 1, -7, 3, 3, bound=200).finite
    assert small <= large


def test_a_shared_memo_keeps_each_bound_apart(monkeypatch):
    # y^2 = x^3 + 35000 has the point (50, 400), beyond a search to 20; the
    # process cache holds one entry per bound, and the reference solves
    # without it
    for bound in (200, 20, 200):
        got = solve_superelliptic(1, 1, 35000, 3, 2, bound=bound)
        with monkeypatch.context() as m:
            m.setattr(basesolve, "_terminal_class",
                      basesolve._terminal_class.__wrapped__)
            ref = solve_superelliptic(1, 1, 35000, 3, 2, bound=bound)
        assert got.finite == ref.finite
        assert str(got.status) == str(ref.status) == f"SearchedToBound({bound})"
        assert ((50, 400) in got.finite) == (bound == 200)
    info = basesolve._terminal_class.cache_info()
    assert (info.currsize, info.hits) == (2, 1)


def test_edited_answers_and_backend_calls_leave_the_caches_alone(tmp_path):
    # a caller that edits its answer changes no later answer
    for _ in range(2):
        got = solve_superelliptic(1, 1, 35000, 3, 2, bound=20)
        assert (50, 400) not in got.finite and got.provenance == []
        got.add_finite((50, 400))
        got.provenance.append("edited")
    for _ in range(2):
        got = solve_superelliptic(1, 2, -1, 3, 3, bound=20)  # 2x^3 - y^3 = 1
        assert got.provenance == [basesolve.BENNETT_CITATION]
        got.provenance.append("edited")
    # a backend answer neither reads nor fills the terminal cache, even for
    # an equation the cache holds
    script = tmp_path / "fake_backend.py"
    script.write_text("print('END COMPLETE')\n")  # no point at all
    plain = solve_superelliptic(1, 8, -1, 5, 5, bound=50)  # y^5 = 8x^5 - 1
    assert plain.finite == {(0, -1)}
    assert str(plain.status) == "SearchedToBound(50)"
    for c in (-1, -3):  # the cache holds the first of these only
        info = basesolve._terminal_class.cache_info()
        s = solve_superelliptic(1, 8, c, 5, 5, bound=50,
                                backend=f"python3 {script}")
        assert basesolve._terminal_class.cache_info() == info
        assert str(s.status) == "Complete" and s.finite == set()


def test_a_terminal_point_off_the_equation_is_refused(monkeypatch):
    # the terminal branch checks each point it returns against
    # a*y^m = b*x^n + c: (1, 1) under any signs misses y^5 = 8x^5 - 1
    monkeypatch.setattr(basesolve, "_terminal_class",
                        lambda rep, bound: (((1, 1),), "searched(50)", ()))
    with pytest.raises(ConstructionError):
        solve_superelliptic(1, 8, -1, 5, 5, bound=50)


def test_a_backend_point_off_the_equation_is_refused(tmp_path):
    # as does the backend branch, for whatever the backend prints
    script = tmp_path / "fake_backend.py"
    script.write_text("print('SOL 1 1')\nprint('END COMPLETE')\n")
    with pytest.raises(ConstructionError):
        solve_superelliptic(1, 8, -1, 5, 5, bound=50,
                            backend=f"python3 {script}")


def test_sign_class_is_the_least_member():
    # the representative, found without listing the class, is the least
    # of the (up to 8) members as a tuple, with that member's signs
    rng = random.Random(38)
    for _ in range(3000):
        N, M = rng.randint(2, 7), rng.randint(2, 7)
        A, B, C = (rng.choice((1, -1)) * rng.randint(1, 9) for _ in range(3))
        members = [((g * ex * A, g * ey * B, g * C, N, M), ex, ey)
                   for ex in ((1, -1) if N % 2 else (1,))
                   for ey in ((1, -1) if M % 2 else (1,))
                   for g in (1, -1)]
        assert _twopower_sign_class(_TwoPower(A, B, C, N, M)) == min(members)


def test_runge_condition_checks():
    # x^4 + x*y + y^3: n*l + m*k = 7 <= 12 = m*n, the strict case
    with pytest.raises(RungeConditionError):
        solve_runge_finite(1, 1, 1, 4, 1, 1, 3, ["x", "y"])
    # x^3 + 3*y^5 + 2*y^4 passes the inequality, but its middle monomial
    # lacks x, so v_p(x) is not tied to v_p(y) and (4, -2) has no candidate
    with pytest.raises(RungeConditionError):
        solve_runge_finite(1, 3, 2, 3, 0, 5, 4, ["x", "y"])


def test_runge_bounded_search():
    out = solve_runge_finite(1, 1, 1, 2, 2, 4, 2, ["x", "y"])
    truth = brute_force(parse_equation("x^2+x^2*y^4+y^2"), 10).solutions
    assert out.finite == {t for t in truth if 0 not in t}
    assert str(out.status) == "Complete"


def test_runge_trinomials_vs_oracle():
    rng = random.Random(23)
    box, checked = 30, 0
    while checked < 1000:
        n, m = rng.randint(0, 6), rng.randint(0, 6)
        k, l = rng.randint(1, 6), rng.randint(1, 6)
        if n * l + m * k <= m * n:
            continue
        a, b, c = (rng.choice((-1, 1)) * rng.randint(1, 12) for _ in range(3))
        out = solve_runge_finite(a, b, c, n, k, l, m, ["x", "y"])
        poly = Polynomial([Monomial.make(a, {"x": n}),
                           Monomial.make(b, {"x": k, "y": l}),
                           Monomial.make(c, {"y": m})], ["x", "y"])
        truth = {t for t in brute_force(poly, box).solutions if 0 not in t}
        assert str(out.status) == "Complete"
        assert {t for t in out.finite if max(map(abs, t)) <= box} == truth, (
            a, b, c, n, k, l, m)
        checked += 1


def test_verify_sees_a_dropped_runge_candidate(monkeypatch):
    # x*y + x + y = 0 has the one candidate (1, 1), which gives (-2, -2)
    text, box = "x*y + x + y = 0", 5
    poly = parse_equation(text)
    truth = brute_force(poly, box).solutions
    assert verify_against_oracle(solve(text).solutions, poly, truth,
                                 box).complete_in_box
    real = basesolve.valuation_candidates
    monkeypatch.setattr(basesolve, "valuation_candidates",
                        lambda *form: real(*form)[1:])
    ver = verify_against_oracle(solve(text).solutions, poly, truth, box)
    assert ver.sound and ver.missing == [(-2, -2)]


def test_backend_hook(tmp_path):
    script = tmp_path / "fake_backend.py"
    script.write_text(textwrap.dedent("""\
        #!/usr/bin/env python3
        import sys
        line = sys.stdin.readline().split()
        assert line[0] == "SOLVE"
        print("SOL 0 -1")
        print("END COMPLETE")
        """))
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    s = solve_superelliptic(1, -8, -1, 5, 5, bound=50,
                            backend=f"python3 {script}")
    assert str(s.status) == "Complete"
    assert (0, -1) in s.finite


def test_superelliptic_linear_random_complete():
    # a y = b x^n + c families are oracle-complete on boxes; c = 0 is
    # outside solve_superelliptic's domain
    rng = random.Random(314)
    for _ in range(100):
        a = rng.choice([1, 2, 3, 4, 5, -2, -3])
        b = rng.choice([1, 2, 3, -1, -2])
        c = rng.randint(-6, 6)
        n = rng.randint(1, 4)
        if c == 0:
            with pytest.raises(ValueError):
                solve_superelliptic(a, b, c, n, 1, bound=100)
            continue
        s = solve_superelliptic(a, b, c, n, 1, bound=100)
        assert str(s.status) == "Complete"
        pts, exact = s.enumerate_box(30)
        assert exact
        truth = brute_force(s.equation, 30).solutions
        assert set(pts) == set(truth), (a, b, c, n)


def _plain_scan(tp, bound):
    """Reference for _twopower_search: every x in [-bound, bound], with y
    found by root extraction wherever B divides C - A x^N."""
    out = set(_twopower_axis_solutions(tp))
    A, B, C, N, M = tp.A, tp.B, tp.C, tp.N, tp.M
    for x in range(-bound, bound + 1):
        rem = C - A * x**N
        if x == 0 or rem % B:
            continue
        val = rem // B
        if val == 0 or (M % 2 == 0 and val < 0):
            continue
        root = exact_iroot(val, M)
        if root is not None:
            out.add((x, root))
            if M % 2 == 0:
                out.add((x, -root))
    return sorted(out)


def test_sieved_search_equals_plain_scan():
    rng = random.Random(2024)
    sieve_product = _SIEVE_PRIMES[0] * _SIEVE_PRIMES[1] * _SIEVE_PRIMES[2]
    cases = 0
    while cases < 2000:
        N = rng.randint(3, 7)
        M = rng.randint(2, N)
        bound = rng.choice((1, 7, 100, 500))
        A = rng.choice((1, -1)) * rng.randint(1, 40)
        shape = rng.randrange(3)
        if shape == 0:  # |B| below 2*bound + 1
            B = rng.randint(1, 2 * bound + 1)
        elif shape == 1:  # |B| above 2*bound + 1
            B = rng.randint(2 * bound + 2, 10**6)
        else:  # B divisible by the first sieve primes
            B = sieve_product * rng.randint(1, 30)
        B *= rng.choice((1, -1))
        x0 = rng.randint(-min(bound, 60), min(bound, 60))
        y0 = rng.randint(-40, 40)
        C = A * x0**N + B * y0**M
        if C == 0:
            continue
        tp = _TwoPower(A, B, C, N, M)
        got = _twopower_search(tp, bound)
        assert got == _plain_scan(tp, bound), (A, B, C, N, M, bound)
        assert (x0, y0) in got
        cases += 1


def test_verify_sees_a_point_dropped_from_the_base_search(monkeypatch):
    # golden entry base-mordell: every point it lists comes from the
    # bounded search
    text, box = "y^2 - x^3 - 2 = 0", 10
    poly = parse_equation(text)
    truth = brute_force(poly, box).solutions
    full = solve(text).solutions
    assert verify_against_oracle(full, poly, truth, box).complete_in_box
    real = basesolve._twopower_search
    monkeypatch.setattr(basesolve, "_twopower_search",
                        lambda tp, bound: sorted(real(tp, bound))[1:])
    basesolve._terminal_class.cache_clear()  # it holds the unpatched search
    basesolve._descended_class.cache_clear()
    rep = solve(text)
    dropped = full.finite - rep.solutions.finite
    assert len(dropped) == 1 and rep.solutions.finite < full.finite
    ver = verify_against_oracle(rep.solutions, poly, truth, box)
    assert ver.sound and ver.missing == sorted(dropped)


def test_search_with_large_B_is_fast():
    # 100000007 y^3 = x^5 + 7: |B| is far above the x range, so only the
    # prime sieve applies and the residues modulo |B| are never listed
    start = time.perf_counter()
    s = solve_superelliptic(100000007, 1, 7, 5, 3)
    assert time.perf_counter() - start < 5
    assert not s.finite and str(s.status) == "SearchedToBound(10000)"


def test_factorable_quartic_is_complete():
    rep = solve("3*x^4 - 48*y^4 - 31635 = 0")
    assert str(rep.status) == "Complete"
    assert rep.solutions.finite == {(sx * 11, sy * 4) for sx in (1, -1)
                                    for sy in (1, -1)}
    assert [r.status for r in rep.base_records] == ["complete-factored"]


@pytest.mark.parametrize("D", [3, 4, 5])
def test_factorable_planted_points(D):
    # A x^D + B y^D = C with -B/A = (p/q)^D is solved completely by the
    # divisors of the difference U^D - V^D; the planted point comes back
    for p in (1, 2, 3):
        for q in (1, 2, 3):
            if (p, q) != (1, 1) and p == q:
                continue
            A, B = q**D, -p**D
            for x0, y0 in ((2, 1), (5, -3)):
                C = A * x0**D + B * y0**D
                if C == 0:
                    continue
                s = solve_superelliptic(-B, A, -C, D, D, bound=50)
                assert str(s.status) == "Complete", (A, B, C, D)
                assert (x0, y0) in s.finite


def test_power_difference_roots_equal_a_window():
    # every root v of (v + d)^D - v^D = T has |v + d/2| <= R with
    # D*|d|*R^(D-1) <= |T|, so the window below holds them all
    rng = random.Random(24)
    planted = 0
    for _ in range(2000):
        D = rng.randint(2, 9)
        d = rng.choice((1, -1)) * rng.randint(1, 50)
        if rng.random() < 0.5:
            v0 = rng.randint(-150, 150)
            T = (v0 + d) ** D - v0**D
            planted += T != 0
        else:
            T = rng.choice((1, -1)) * rng.randint(
                0, D * abs(d) * rng.randint(1, 150) ** (D - 1))
        reach = iroot(abs(T) // (D * abs(d)), D - 1) + 2
        window = range(-d // 2 - reach, -d // 2 + reach + 1)
        want = [v for v in window if (v + d) ** D - v**D == T]
        assert _power_difference_roots(d, D, T) == want, (d, D, T)
    assert planted > 900


def _factorable_reference(tp):
    """_twopower_factorable with each (V + d)^D - V^D - T expanded and its
    integer roots found from the divisors of its constant term."""
    D = tp.N
    root = rational_root_d(Fraction(-tp.B, tp.A), D)
    p, q = root.numerator, root.denominator
    if (tp.C * q**D) % tp.A:
        return []
    T = tp.C * q**D // tp.A
    out = set()
    for d in divisors_k(T, 1):
        coeffs = shifted_power(1, d, D)
        coeffs[D] -= 1
        coeffs[0] -= T
        for v in integer_roots(coeffs):
            u = v + d
            if u % q or v % p:
                continue
            x, y = u // q, v // p
            if tp.A * x**D + tp.B * y**D == tp.C:
                out.add((x, y))
    return sorted(out)


def test_factorable_equals_the_divisor_root_reference():
    rng = random.Random(24)
    cases = found = 0
    while cases < 200:
        D = rng.randint(2, 5)
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        if gcd(p, q) > 1:
            continue
        k = rng.choice((1, -1)) * rng.randint(1, 3)
        A, B = k * q**D, -k * p**D * (rng.choice((1, -1)) if D % 2 else 1)
        if rng.random() < 0.5:
            x0, y0 = rng.randint(-5, 5), rng.randint(-5, 5)
            C = A * x0**D + B * y0**D
        else:
            C = rng.choice((1, -1)) * rng.randint(1, 1000)
        if C == 0:
            continue
        tp = _TwoPower(A, B, C, D, D)
        got = _twopower_factorable(tp)
        assert got == _factorable_reference(tp), (A, B, C, D)
        cases += 1
        found += bool(got)
    assert found > 50


def test_terminal_solve_is_sign_covariant():
    # The sign-class memo of solve_superelliptic solves one member of each
    # class and maps its points to the others.  That is sound only if each
    # member, solved on its own, gives the mapped points with the same
    # status string and provenance.
    rng = random.Random(19)
    statuses = set()
    draws = comparisons = 0
    while draws < 500:
        N = rng.randint(3, 7)
        M = rng.randint(2, N)
        A, B = (rng.choice((1, -1)) * rng.randint(1, 60) for _ in range(2))
        shape = rng.randrange(4)
        if shape == 0:  # arbitrary right-hand side
            C = rng.choice((1, -1)) * rng.randint(1, 300)
        elif shape == 1:  # a planted point
            x0, y0 = rng.randint(-3, 3), rng.randint(-3, 3)
            C = A * x0**N + B * y0**M
        elif shape == 2:  # |A| = |B|, N = M: definite or factorable
            M, B = N, rng.choice((1, -1)) * abs(A)
            C = rng.choice((1, -1)) * rng.randint(1, 300)
        else:  # |C| = 1 with the point (1, 1): Bennett's theorem
            M, C = N, rng.choice((1, -1))
            A = C - B
        if C == 0 or abs(C) > 300 or A == 0 or abs(A) > 60:
            continue
        tp, empty = _twopower_descend(_TwoPower(A, B, C, N, M))
        if empty:
            continue
        draws += 1
        bound = rng.choice((1, 10, 100, 300))
        rep, _, _ = _twopower_sign_class(tp)
        rep_sols, rep_status, rep_prov = _twopower_terminal(
            _TwoPower(*rep), bound)
        statuses.add(rep_status.split("(")[0])
        for ex in ((1, -1) if N % 2 else (1,)):
            for ey in ((1, -1) if M % 2 else (1,)):
                for g in (1, -1):
                    member = _TwoPower(g * ex * tp.A, g * ey * tp.B,
                                       g * tp.C, N, M)
                    key, sx, sy = _twopower_sign_class(member)
                    assert key == rep, member
                    sols, status, prov = _twopower_terminal(member, bound)
                    assert sols == sorted((sx * x, sy * y)
                                          for x, y in rep_sols), member
                    assert (status, prov) == (rep_status, rep_prov), member
                    comparisons += 1
    assert statuses == {"complete-definite", "complete-factored",
                        "complete-bennett", "searched"}
    assert comparisons > 2000


def test_descent_is_sign_covariant():
    # The descent cache of solve_superelliptic descends one member of each
    # sign class and maps the result to the others.  That is sound only if
    # each member, descended on its own, gives the representative's descent
    # under the same signs, with the same multipliers and empty flag.
    rng = random.Random(26)
    outcomes = set()
    draws = comparisons = 0

    def smooth():
        # prime-rich coefficients, so that gcds, forced primes and p-adic
        # obstructions all occur
        return (rng.choice((1, -1)) * 2**rng.randint(0, 7)
                * 3**rng.randint(0, 5) * rng.choice((1, 5, 7, 25, 35)))

    while draws < 400:
        N = rng.randint(3, 7)
        M = rng.randint(2, N)
        tp = _TwoPower(smooth(), smooth(), smooth(), N, M)
        draws += 1
        rep, _, _ = _twopower_sign_class(tp)
        desc, empty = _twopower_descend(_TwoPower(*rep))
        outcomes.add("empty" if empty else
                     "moved" if desc.mul_x * desc.mul_y > 1 else
                     "divided" if desc.C != rep[2] else "kept")
        for ex in ((1, -1) if N % 2 else (1,)):
            for ey in ((1, -1) if M % 2 else (1,)):
                for g in (1, -1):
                    member = _TwoPower(g * ex * rep[0], g * ey * rep[1],
                                       g * rep[2], N, M)
                    assert _twopower_sign_class(member)[0] == rep, member
                    got, got_empty = _twopower_descend(member)
                    assert got == _TwoPower(
                        g * ex * desc.A, g * ey * desc.B, g * desc.C, N, M,
                        desc.mul_x, desc.mul_y), member
                    assert got_empty == empty, member
                    comparisons += 1
    assert outcomes == {"empty", "moved", "divided", "kept"}
    assert comparisons > 1500
