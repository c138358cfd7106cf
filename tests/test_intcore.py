import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trisolve.intcore import (
    OO,
    divisors_k,
    exact_iroot,
    exact_roots,
    factorize,
    in_divisor_set,
    integer_roots,
    integer_roots_bounded,
    is_probable_prime,
    rational_root_d,
    ResourceLimit,
    roots_mod,
    shifted_power,
    solve_univariate,
    valuation,
    valuation_or_infinity,
    valuation_split,
)


def test_factorize_basic():
    f = factorize(12)
    assert f.sign == 1 and f.factors == ((2, 2), (3, 1))
    assert factorize(-1) == factorize(-1)
    assert factorize(-1).sign == -1 and factorize(-1).factors == ()
    assert factorize(-8).value() == -8


def test_factorize_fermat_number():
    f = factorize(2**64 + 1)
    assert f.factors == ((274177, 1), (67280421310721, 1))
    assert all(is_probable_prime(p) for p, _ in f.factors)
    assert f.value() == 2**64 + 1


def test_factorize_zero_rejected():
    with pytest.raises(ValueError):
        factorize(0)


@given(st.integers(min_value=-10**6, max_value=10**6).filter(lambda n: n != 0))
def test_factorize_reconstructs(n):
    assert factorize(n).value() == n


def test_valuation():
    assert valuation(12, 2) == 2
    assert valuation(12, 5) == 0
    assert valuation(-8, 2) == 3
    assert valuation_or_infinity(0, 7) is OO
    with pytest.raises(ValueError):
        valuation(0, 2)


def test_infinity_ordering():
    assert OO > 10**100
    assert not (OO < 5)
    assert min(3, OO) == 3
    assert OO == OO and OO != 0


def test_divisors_k_examples():
    assert divisors_k(6, 1) == [-6, -3, -2, -1, 1, 2, 3, 6]
    assert divisors_k(12, 2) == [-2, -1, 1, 2]
    assert divisors_k(7, 3) == [-1, 1]


def test_divisors_k_exhaustive_small():
    rng = random.Random(0)
    for _ in range(200):
        m = rng.randint(1, 10**4) * rng.choice([1, -1])
        k = rng.randint(1, 5)
        expected = [z for z in range(-abs(m), abs(m) + 1)
                    if z != 0 and m % z**k == 0]
        assert divisors_k(m, k) == expected


def test_in_divisor_set_conventions():
    assert in_divisor_set(3, 6, 1)
    assert not in_divisor_set(4, 6, 1)
    assert not in_divisor_set(0, 6, 1)
    assert in_divisor_set(17, 0, 2)  # D_k(0) is all nonzero z
    assert not in_divisor_set(0, 0, 1)


def test_rational_root_d():
    assert rational_root_d(Fraction(9, 4), 2) == Fraction(3, 2)
    assert rational_root_d(Fraction(8, 27), 3) == Fraction(2, 3)
    assert rational_root_d(Fraction(2), 2) is None
    assert rational_root_d(Fraction(-8), 3) == Fraction(-2)
    assert rational_root_d(Fraction(-4), 2) is None


@given(st.fractions(min_value=Fraction(-50), max_value=Fraction(50),
                    max_denominator=20).filter(lambda r: r != 0),
       st.integers(min_value=1, max_value=5))
def test_rational_root_roundtrip(s, d):
    r = s**d
    root = rational_root_d(r, d)
    assert root is not None
    assert root**d == r


def test_exact_iroot():
    assert exact_iroot(32, 5) == 2
    assert exact_iroot(-32, 5) == -2
    assert exact_iroot(-4, 2) is None
    assert exact_iroot(10**30, 3) == 10**10
    assert exact_iroot(10**30 + 1, 3) is None


def test_valuation_split_examples():
    assert valuation_split(4, -6, 2, 2) == ("bc", 1)
    assert valuation_split(1, 1, -2, 2) == ("ab", 0)
    assert valuation_split(9, -3, -6, 3) == ("bc", 1)
    assert valuation_split(2, 2, -4, 2) == ("ab", 1)
    assert valuation_split(0, 5, -5, 5) == ("bc", 1)
    assert valuation_split(3, 3, -6, 5) == ("abc", 0)


def test_valuation_split_property_bulk():
    # the two smallest valuations of a zero-sum triple are equal
    rng = random.Random(123)
    primes = [2, 3, 5, 7, 11]
    for _ in range(100_000):
        a = rng.randint(-3000, 3000)
        b = rng.randint(-3000, 3000)
        c = -a - b
        if a == 0 and b == 0:
            continue
        p = rng.choice(primes)
        tag, lo = valuation_split(a, b, c, p)
        vals = sorted(v for v in (valuation_or_infinity(a, p),
                                  valuation_or_infinity(b, p),
                                  valuation_or_infinity(c, p))
                      if v is not OO) or [OO]
        assert lo == vals[0]


def test_solve_univariate():
    ints, rats = solve_univariate([2, -3, 1])  # x^2-3x+2
    assert ints == [1, 2]
    ints, rats = solve_univariate([-3, 2])  # 2x-3
    assert ints == [] and rats == [Fraction(3, 2)]
    ints, rats = solve_univariate([1, 1, 1])  # t^2+t+1
    assert ints == [] and rats == []
    ints, rats = solve_univariate([0, 0, 5])  # 5x^2
    assert ints == [0]
    with pytest.raises(ValueError):
        solve_univariate([0, 0])


@given(st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=5))
@settings(max_examples=200)
def test_solve_univariate_vs_sweep(coeffs):
    if all(c == 0 for c in coeffs):
        return
    ints, _ = solve_univariate(coeffs)
    sweep = [x for x in range(-100, 101)
             if sum(c * x**i for i, c in enumerate(coeffs)) == 0]
    assert ints == sweep


def test_integer_roots():
    assert integer_roots([2, -3, 1]) == [1, 2]  # x^2-3x+2
    assert integer_roots([-3, 2]) == []  # 2x-3
    assert integer_roots([0, 0, 5]) == [0]  # 5x^2
    assert integer_roots([7]) == []
    # trailing zero coefficients are dropped: still x^2-3x+2, then x^3-x
    assert integer_roots([2, -3, 1, 0, 0]) == [1, 2]
    assert integer_roots([0, -1, 0, 1, 0]) == [-1, 0, 1]
    with pytest.raises(ValueError):
        integer_roots([0, 0])
    with pytest.raises(ValueError):
        integer_roots([])


@given(st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=5))
@settings(max_examples=200)
def test_integer_roots_vs_solve_univariate(coeffs):
    if all(c == 0 for c in coeffs):
        return
    assert integer_roots(coeffs) == solve_univariate(coeffs)[0]


def _linear_scan_roots(coeffs, bound):
    """Reference: test +-d for every divisor d of the trailing coefficient
    up to min(bound, |c0|)."""
    coeffs = list(coeffs)
    while coeffs[-1] == 0:
        coeffs.pop()
    m = 0
    while coeffs[m] == 0:
        m += 1
    roots = [0] if m > 0 else []
    body = coeffs[m:]
    if len(body) == 1:
        return roots
    for d in range(1, min(bound, abs(body[0])) + 1):
        if abs(body[0]) % d:
            continue
        for x in (d, -d):
            if sum(c * x**i for i, c in enumerate(body)) == 0:
                roots.append(x)
    return sorted(roots)


def test_integer_roots_bounded_vs_linear_scan():
    rng = random.Random(5)
    for _ in range(3000):
        # planted roots, some of them perfect-square pairs (r, r) and roots
        # just beyond the bound
        bound = rng.choice([1, 3, 10, 50, 300, 2000])
        roots = [rng.choice([rng.randint(-60, 60), bound, -bound - 1,
                             rng.randint(-3000, 3000)])
                 for _ in range(rng.randint(0, 3))]
        if roots and rng.random() < 0.3:
            roots.append(roots[0])
        poly = [rng.choice([1, -1, 2, 3, -6])]
        for r in roots:  # poly *= (x - r)
            poly = [(poly[i - 1] if i else 0) - r * (poly[i] if i < len(poly)
                                                     else 0)
                    for i in range(len(poly) + 1)]
        if rng.random() < 0.2:
            poly = [0] * rng.randint(1, 2) + poly
        if rng.random() < 0.3:
            poly = [c + rng.randint(-2, 2) for c in poly]
        if all(c == 0 for c in poly):
            continue
        assert integer_roots_bounded(poly, bound) == \
            _linear_scan_roots(poly, bound), (poly, bound)


def test_exact_roots_vs_plain_scan():
    # |r| <= |n| whenever r**k == n != 0, so scanning r over [-10^4, 10^4]
    # finds every root of every n with |n| <= 10^4
    limit = 10**4
    for k in range(1, 8):
        scan: dict[int, list[int]] = {}
        for r in range(-limit, limit + 1):
            if abs(r**k) <= limit:
                scan.setdefault(r**k, []).append(r)
        for n in range(-limit, limit + 1):
            assert exact_roots(n, k) == scan.get(n, []), (n, k)


def test_shifted_power_vs_direct_evaluation():
    rng = random.Random(2024)
    for _ in range(2000):
        s, r, w = (rng.randint(-12, 12) for _ in range(3))
        e = rng.randint(0, 8)
        coeffs = shifted_power(s, r, e)
        assert len(coeffs) == e + 1
        assert sum(c * w**k for k, c in enumerate(coeffs)) == (s * w + r)**e


def test_roots_mod_equal_a_scan():
    # every prime power p^e with e >= 2 reaches the Hensel lift, and the
    # planted p^n * (x^n - r0^n) has singular roots modulo powers of p
    rng = random.Random(24)
    lifted = 0
    for _ in range(600):
        m = rng.choice((1, 2, 3)) ** rng.randint(0, 13) * rng.choice(
            (1, 1, 2, 3, 4, 5, 7, 9, 11, 25, 27, 49, 1031, 2053))
        if m > 20_000:
            continue
        n = rng.randint(1, 7)
        coeffs = [rng.randint(-40, 40) for _ in range(n + 1)]
        if rng.random() < 0.4:  # a planted root with a repeated factor
            p = rng.choice((2, 3))
            r0 = rng.randrange(m)
            coeffs = [0] * (n + 1)
            coeffs[0], coeffs[n] = -(p**n) * r0**n, p**n
        scan = [r for r in range(m) if not sum(
            c * pow(r, i, m) for i, c in enumerate(coeffs)) % m]
        assert roots_mod(coeffs, m, 10**6) == scan, (coeffs, m)
        lifted += any(e > 1 for _, e in factorize(m).factors)
    assert lifted > 300


def test_roots_mod_lifts_every_class_of_a_singular_root():
    # x^2 = 0 mod 2^12 has the 64 roots 64*t; x^2 - 1 has 4 roots mod 2^12
    assert roots_mod([0, 0, 1], 2**12, 1000) == list(range(0, 2**12, 64))
    assert roots_mod([-1, 0, 1], 2**12, 1000) == [1, 2047, 2049, 4095]


def test_roots_mod_raises_past_its_limit():
    with pytest.raises(ResourceLimit):
        roots_mod([0, 0, 1], 2**20, 1000)  # 1024 classes
    with pytest.raises(ResourceLimit):
        roots_mod([0, 0, 0, 3], 3**30, 1000)  # 3^20 classes
    with pytest.raises(ResourceLimit, match="prime"):
        roots_mod([-2, 0, 1], 10_000_019, 10**9)  # a prime past the scan
    with pytest.raises(ResourceLimit):
        roots_mod([0, 1009, 1009], 1009, 1000)  # every residue is a root
    # a prime above the class limit is scanned; x^2 - 4 has the roots +-2
    assert roots_mod([-4, 0, 1], 1_000_003, 1000) == [2, 1_000_001]
