import random
from math import gcd

from trisolve import basesolve
from trisolve.eqparse import (
    Monomial,
    NotATrinomial,
    Polynomial,
    canonicalize,
    parse_trinomial,
)
from trisolve.intcore import factorize, valuation
from trisolve.lindioph import solve_two_term, valuation_candidates
from trisolve.oracle import brute_force
from trisolve.twovar import (
    TwoVarForm,
    normalize_two_var,
    solve_equality_case,
    solve_masser,
    solve_two_var,
)


def box_match(text, B=30, bound=2000):
    eq = parse_trinomial(text)
    rep = solve_two_var(eq, bound=bound)
    pts, exact = rep.solutions.enumerate_box(B)
    truth = brute_force(eq.full_polynomial(), B).solutions
    assert set(pts) == set(truth), (
        text, sorted(set(truth) - set(pts))[:5], sorted(set(pts) - set(truth))[:5])
    return rep


def test_normalize_to_form():
    eq = parse_trinomial("x^4+2*x*y+y^3")
    form = normalize_two_var(eq)
    assert isinstance(form, TwoVarForm)
    assert (form.n, form.k, form.l, form.m) == (4, 1, 1, 3)


def test_normalize_divisor_case():
    # x^4 y + x y^2 + y cancels y, leaving a constant monomial and two mixed
    eq = parse_trinomial("x^4*y + x*y^2 + y")
    norm = normalize_two_var(eq)
    assert isinstance(norm, TwoVarForm) or isinstance(norm, tuple)
    box_match("x^4*y + x*y^2 + y", B=20)


def test_divisor_branch_shapes_vs_oracle():
    # a constant monomial with both variables, x only or y only in both
    # other monomials: every shape takes the one divisor branch
    rng = random.Random(23)
    left = {("x", "y"): 50, ("x",): 50, ("y",): 50}
    while any(left.values()):
        shared = rng.choice([s for s, n in left.items() if n])
        monos = [Monomial.make(rng.choice((-12, -6, -4, -1, 1, 2, 6, 24)), {})]
        for _ in range(2):
            monos.append(Monomial.make(
                rng.choice((-3, -2, -1, 1, 2, 3)),
                {v: rng.randint(v in shared, 3) for v in ("x", "y")}))
        try:
            eq = canonicalize(Polynomial(monos, ["x", "y"]))
        except NotATrinomial:
            continue
        rows = [row for row in eq.rows if any(row)]
        if (len(eq.variables) != 2 or len(rows) != 2 or shared != tuple(
                v for v, a, b in zip(eq.variables, *rows) if a and b)):
            continue
        left[shared] -= 1
        rep = solve_two_var(eq)
        assert rep.path == ["divisor-branch"], eq
        pts, exact = rep.solutions.enumerate_box(15)
        truth = brute_force(eq.full_polynomial(), 15).solutions
        assert exact and set(pts) == set(truth), eq


def test_monomial_gcd_cancellation():
    rep = box_match("x^2*y^2 + x^3*y + x*y", B=20)
    assert rep.equation.cancelled == {"x": 1, "y": 1}


def test_normalized_form_invariants():
    # the dispatcher relies on these for every canonical two-variable form
    rng = random.Random(8)
    forms = 0
    shapes = set()
    while forms < 20_000:
        monos = [Monomial.make(rng.choice((-3, -2, -1, 1, 2, 5)),
                               {"x": rng.randint(0, 4), "y": rng.randint(0, 4)})
                 for _ in range(3)]
        try:
            eq = canonicalize(Polynomial(monos, ["x", "y"]))
        except NotATrinomial:
            continue
        if len(eq.variables) != 2:
            continue
        form = normalize_two_var(eq)
        if isinstance(form, tuple):
            continue
        n, k, l, m = form.n, form.k, form.l, form.m
        assert n > 0 or m > 0, eq
        if k == 0 and l == 0:
            assert n > 0 and m > 0, eq
        elif l == 0:
            assert 0 < k < n, eq
        elif k == 0:
            assert 0 < l < m, eq
        shapes.add((k == 0, l == 0))
        forms += 1
    assert shapes == {(True, True), (True, False), (False, True),
                      (False, False)}


def test_worked_example():
    eq = parse_trinomial("x^4+x*y+2*y^3")
    rep = solve_two_var(eq, bound=300)
    pts, _ = rep.solutions.enumerate_box(100)
    assert set(pts) == {(0, 0), (-1, -1)}
    # the two intermediate equations appear in the trace with their solutions
    descriptions = {r.description: set(map(tuple, r.solutions))
                    for r in rep.base_records}
    thue1 = [d for d in descriptions
             if "2*y^5" in d and descriptions[d]]  # v^5 + 2U^5 = -1 variants
    thue2 = [d for d in descriptions if "8" in d.split("*")[0] or
             d.startswith("-8")]
    assert any({(-1, 0), (1, -1)} <= {(v, u) for (v, u) in descriptions[d]}
               or {(-1, 0), (1, -1)} == {(v, u) for (v, u) in descriptions[d]}
               for d in thue1)
    assert any(descriptions[d] == {(0, -1)} or descriptions[d] == {(0, 1)}
               for d in thue2)


def test_equality_case_rows():
    # x^4 + x^2 y + y^2 = 0 reduces to t^2 + t + 1 with no rational roots
    rep = box_match("x^4+x^2*y+y^2", B=40)
    assert "equality" in rep.path
    assert {t for t in rep.solutions.enumerate_box(40)[0]} == {(0, 0)}


def test_equality_case_factorable():
    # x^2 - 3xy + 2y^2 = 0: t^2 - 3t + 2, roots 1 and 2
    rep = box_match("x^2-3*x*y+2*y^2", B=25)
    assert "equality" in rep.path
    pts = rep.solutions.enumerate_box(6)[0]
    assert (2, 1) in set(pts) and (3, 3) in set(pts) and (6, 3) in set(pts)


def test_equality_case_negative_discriminant():
    rep = box_match("x^2+x*y+y^2", B=25)
    assert rep.solutions.enumerate_box(25)[0] == [(0, 0)]


def test_strict_case_identity_assertion():
    # the derived-exponent identities hold on every oriented strict instance
    rng = random.Random(31)
    checked = 0
    while checked < 200:
        n = rng.randint(1, 7)
        k = rng.randint(0, n - 1) if n > 1 else 0
        m = rng.randint(1, 7)
        l = rng.randint(0, m - 1) if m > 1 else 0
        if n * l + m * k >= m * n or (k == 0 and l == 0):
            continue
        form = TwoVarForm(1, 1, 1, n, k, l, m, ["x", "y"])
        lp, np_, mp, kp, ev, eu = form.strict_data()
        assert n * lp - k * lp - l * np_ == 0
        assert m * kp - k * mp - l * kp == 0
        assert ev > 0 and eu > 0
        checked += 1


def _reference_candidate_pairs(form):
    """The strict-case candidates as listed before one enumerator served
    both cases: the three valuation cases written out one by one."""
    n, k, l, m = form.n, form.k, form.l, form.m
    primes = factorize(form.a * form.b * form.c).primes()
    D = n * m - k * m - l * n
    g = gcd(n, m)
    per_prime_options = []
    for p in primes:
        ap, bp, cp = (valuation(form.a, p), valuation(form.b, p),
                      valuation(form.c, p))
        opts_by_case = []
        # case 3: b-monomial valuation strictly largest
        s = solve_two_term(n, m, cp - ap)
        case3 = []
        if s.solvable:
            hp = bp + k * s.x0 + l * s.y0 - ap - n * s.x0
            if hp * g >= 1:
                u_max = (hp * g - 1) // D
                for uu in range(u_max + 1):
                    case3.append((s.x0 + s.step_x * uu, s.y0 + s.step_y * uu))
        opts_by_case.append(case3)
        # case 4: equality with the first monomial
        s = solve_two_term(n - k, l, bp - ap)
        opts_by_case.append([(s.x0, s.y0)] if s.solvable else [])
        # case 5: equality with the third monomial
        s = solve_two_term(k, m - l, cp - bp)
        opts_by_case.append([(s.x0, s.y0)] if s.solvable else [])
        per_prime_options.append(opts_by_case)

    candidates = {(1, 1)}
    for p, opts_by_case in zip(primes, per_prime_options):
        new = set()
        merged = [pair for case in opts_by_case for pair in case]
        for xe, ye in merged:
            for cx, cy in candidates:
                new.add((cx * p**xe, cy * p**ye))
        candidates = new
        if not candidates:
            break
    return sorted(candidates)


def test_strict_candidates_match_the_reference():
    rng = random.Random(31)
    checked = 0
    while checked < 1000:
        n, k, l, m = (rng.randint(0, 7) for _ in range(4))
        if n < 1 or m < 1 or k + l == 0 or n * l + m * k >= m * n:
            continue
        a, b, c = (rng.choice((-1, 1)) * rng.randint(1, 200) for _ in range(3))
        form = TwoVarForm(a, b, c, n, k, l, m, ["x", "y"])
        assert valuation_candidates(a, b, c, n, k, l, m) == (
            _reference_candidate_pairs(form)), (a, b, c, n, k, l, m)
        checked += 1


def test_table2_family_rows_box100():
    for text in ("x^4+x*y^2+y^3", "x^4+x^2*y+y^3", "x^5+x^2*y^2+y^4"):
        rep = box_match(text, B=100, bound=10_000)
        assert str(rep.solutions.status) == "Complete"


def test_runge_path():
    rep = box_match("x^2+x^3*y^3+y^2", B=25)
    assert "runge" in rep.path
    assert str(rep.solutions.status) == "Complete"


def test_masser_rows():
    s = solve_masser(6, bound=3000)
    assert {t for t in s.finite if t != (0, 0)} == {
        (-6, -12), (-2, -4), (-2, 2), (3, -3)}
    s = solve_masser(88, bound=5000)
    assert {t for t in s.finite if t != (0, 0)} == {(396, -2904)}
    s = solve_masser(1, bound=2000)
    assert {t for t in s.finite if t != (0, 0)} == set()


def test_masser_zero_coefficient():
    s = solve_masser(0, bound=100)
    pts, _ = s.enumerate_box(20)
    for (x, y) in pts:
        assert x**4 + y**3 == 0
    assert {(0, 0), (-1, -1), (1, -1), (8, -16)} <= set(pts)


def test_random_small_trinomials_vs_oracle():
    rng = random.Random(17)
    checked = 0
    while checked < 25:
        rows = set()
        while len(rows) < 3:
            rows.add((rng.randint(0, 4), rng.randint(0, 4)))
        rows = list(rows)
        coeffs = [rng.choice([1, 2, 3, -1, -2]) for _ in range(3)]
        text = ""
        for c, (i, j) in zip(coeffs, rows):
            body = str(c)
            if i:
                body += f"*x^{i}"
            if j:
                body += f"*y^{j}"
            text += ("+" if not body.startswith("-") and text else "") + body
        eq = parse_trinomial(text)
        if len(eq.variables) != 2:
            continue
        checked += 1
        box_match(text, B=12, bound=400)


def _strict_report(text, bound):
    """Everything a strict-case solve reports."""
    rep = solve_two_var(parse_trinomial(text), bound=bound)
    sols = rep.solutions
    pts, exact = sols.enumerate_box(20)
    return (rep.path, str(sols.status), sorted(sols.finite), sols.provenance,
            [fam.describe() for fam in sols.families], sorted(pts), exact,
            [(r.description, r.solutions, r.status)
             for r in rep.base_records])


def _strict_inputs():
    """The 100 rows of x^4 + a*x*y + y^3 = 0 and 40 seeded strict-case
    trinomials a*x^n + b*x^k*y^l + c*y^m = 0."""
    texts = [f"x^4+{a}*x*y+y^3=0" for a in range(1, 101)]
    rng = random.Random(19)
    while len(texts) < 140:
        n, m = rng.randint(2, 6), rng.randint(2, 6)
        k, l = rng.randint(1, n - 1), rng.randint(1, m - 1)
        if n * l + m * k >= m * n:
            continue
        a, b, c = (rng.choice((1, -1)) * rng.randint(1, 12) for _ in range(3))
        texts.append(f"{a}*x^{n}+{b}*x^{k}*y^{l}+{c}*y^{m}=0".replace("+-", "-"))
    return texts


def _solve_each_member_alone(monkeypatch):
    """Make solve_superelliptic descend and solve every base equation on its
    own: each equation is its own sign class, and nothing is cached."""
    monkeypatch.setattr(basesolve, "_twopower_sign_class",
                        lambda tp: ((tp.A, tp.B, tp.C, tp.N, tp.M), 1, 1))
    monkeypatch.setattr(basesolve, "_descended_class",
                        basesolve._descended_class.__wrapped__)
    monkeypatch.setattr(basesolve, "_terminal_class",
                        basesolve._terminal_class.__wrapped__)


def test_sign_class_memo_changes_no_output(monkeypatch):
    # the sign-class caches, filled across all 140 calls, against solving
    # every base equation on its own
    texts = _strict_inputs()
    with_memo = [_strict_report(t, 300) for t in texts]
    assert all(r[0] == ["strict"] for r in with_memo)
    _solve_each_member_alone(monkeypatch)
    for text, got in zip(texts, with_memo):
        assert got == _strict_report(text, 300), text


def test_strict_case_solves_each_sign_class_once(monkeypatch):
    # the 36 base equations of x^4 + 88*x*y + y^3 = 0 (9 candidates, four
    # sign variants each) fall into 9 sign classes
    calls = []
    real = basesolve._twopower_terminal

    def counted(tp, bound):
        calls.append(tp)
        return real(tp, bound)

    monkeypatch.setattr(basesolve, "_twopower_terminal", counted)
    reports = []
    for solves in (9, 0):  # the second call answers from the process cache
        calls.clear()
        reports.append(_strict_report("x^4+88*x*y+y^3=0", 10_000))
        assert len(calls) == solves
        assert len(reports[-1][-1]) == 36
    assert reports[0] == reports[1]
    assert set(reports[0][2]) == {(0, 0), (396, -2904)}


def _masser_report(a):
    """Everything solve_masser reports for row a."""
    trace = []
    sols = solve_masser(a, trace=trace)
    return (sorted(sols.finite), str(sols.status), sols.provenance,
            [(r.description, r.solutions, r.status)
             for r in trace])


def test_masser_sign_class_memo_changes_no_output(monkeypatch):
    # the sign-class caches, filled across all 100 rows, against solving
    # every base equation on its own
    rows = range(1, 101)
    with_memo = [_masser_report(a) for a in rows]
    _solve_each_member_alone(monkeypatch)
    for a, got in zip(rows, with_memo):
        assert got == _masser_report(a), a


def test_masser_solves_each_sign_class_once(monkeypatch):
    # the 36 base equations of row 36 reach 16 terminal solves, which fall
    # into 9 sign classes
    calls = []
    real = basesolve._twopower_terminal

    def counted(tp, bound):
        calls.append(tp)
        return real(tp, bound)

    monkeypatch.setattr(basesolve, "_twopower_terminal", counted)
    reports = []
    for solves in (9, 0):  # the second call answers from the process cache
        calls.clear()
        reports.append(_masser_report(36))
        assert len(calls) == solves
        assert len(reports[-1][-1]) == 36
    assert reports[0] == reports[1]
    assert reports[0][0] == [(0, 0)]


def test_warm_masser_row_takes_one_sign_class_per_base_equation(monkeypatch):
    # once the caches hold row 36, its 36 base equations each take their
    # sign class once (the descent cache holds the descended class), and no
    # Polynomial is built for any of them
    cold = _masser_report(36)
    calls = {"_twopower_sign_class": 0, "_superelliptic_poly": 0}
    for name in calls:
        def counted(*args, _real=getattr(basesolve, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(basesolve, name, counted)
    assert _masser_report(36) == cold
    assert calls["_twopower_sign_class"] <= len(cold[-1]) == 36
    assert calls["_superelliptic_poly"] == 0


def test_table1_answers_do_not_depend_on_what_the_caches_hold():
    # each row through both pipelines, first on cleared caches, then in one
    # process with the caches filled by the rows before it, in ascending and
    # then descending order
    def report(a):
        return _masser_report(a), _strict_report(f"x^4+{a}*x*y+y^3=0", 10_000)

    def clear():
        basesolve._descended_class.cache_clear()
        basesolve._terminal_class.cache_clear()

    rows = range(1, 101)
    cold = {}
    for a in rows:
        clear()
        cold[a] = report(a)
    clear()
    for a in [*rows, *reversed(rows)]:
        assert report(a) == cold[a], a
    # a caller that edits its answer changes no later answer
    for _ in range(2):
        sols = solve_masser(88)
        strict = solve_two_var(parse_trinomial("x^4+88*x*y+y^3=0")).solutions
        for got in (sols, strict):
            got.finite.clear()
            got.provenance.append("edited")
    assert report(88) == cold[88]


def test_table1_pipelines_agree_beyond_the_published_rows():
    # both pipelines on rows the paper does not list, a in [-300, -1] and
    # [101, 300]: the same finite sets and statuses, no family from the
    # dedicated solver, and each box listing equal to the oracle's
    for a in [*range(-300, 0), *range(101, 301)]:
        masser = solve_masser(a)
        eq = parse_trinomial(f"x^4 + {a}*x*y + y^3".replace("+ -", "- "))
        general = solve_two_var(eq).solutions
        assert masser.finite == general.finite, a
        assert masser.status == general.status, a
        assert not masser.families, a
        truth = brute_force(eq.full_polynomial(), 60).solutions
        for sols in (masser, general):
            assert sols.enumerate_box(60)[0] == truth, a
