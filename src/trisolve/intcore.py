"""Exact integer and rational primitives: factorization, p-adic valuations,
divisor sets D_k, signed and rational d-th roots, shifted powers,
univariate solving over Z and Q, and roots modulo m.

Everything here is pure and exact (arbitrary precision); no floats are used
for anything that affects a result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt


class ResourceLimit(RuntimeError):
    """A computation would pass one of the program's size limits."""


# ---------------------------------------------------------------------------
# Primality and factorization
# ---------------------------------------------------------------------------

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]

# Deterministic Miller-Rabin witness sets (Sinclair / Feitsma tables).
_MR_DETERMINISTIC = [
    (341531, [9345883071009581737]),
    (1050535501, [336781006125, 9639812373923155]),
    (350269456337, [4230279247111683200, 14694767155120705706, 16641139526367750375]),
    (55245642489451, [2, 141889084524735, 1199124725622454117, 11096072698276303650]),
    (7999252175582851, [2, 4130806001517, 149795463772692060, 186635894390467037,
                        3967304179347715805]),
    (3317044064679887385961981, [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]),
]


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin; deterministic below ~3.3e24, 40 random rounds above."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    def witness(a: int) -> bool:
        # True when a proves n composite.
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            return False
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                return False
        return True

    for bound, bases in _MR_DETERMINISTIC:
        if n < bound:
            return not any(witness(a % n) for a in bases if a % n)
    rng = random.Random(0xD10F ^ (n & 0xFFFFFFFF))
    return not any(witness(rng.randrange(2, n - 1)) for _ in range(40))


def _pollard_brent(n: int) -> int:
    """Brent-cycle Pollard rho; returns a nontrivial factor of composite n."""
    if n % 2 == 0:
        return 2
    rng = random.Random(n)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


_TRIAL_LIMIT = 10_000


@lru_cache(maxsize=4096)
def _factor_positive(n: int) -> tuple[tuple[int, int], ...]:
    """Factor n >= 1 into sorted (prime, exponent) pairs."""
    if n == 1:
        return ()
    factors: dict[int, int] = {}

    def add(p: int, e: int = 1) -> None:
        factors[p] = factors.get(p, 0) + e

    for p in (2, 3, 5):
        while n % p == 0:
            add(p)
            n //= p
    d = 7
    # 2/4-alternating wheel over numbers coprime to 2,3.
    step = 4
    while d <= _TRIAL_LIMIT and d * d <= n:
        while n % d == 0:
            add(d)
            n //= d
        d += step
        step = 6 - step
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            add(m)
            continue
        f = _pollard_brent(m)
        stack.append(f)
        stack.append(m // f)
    return tuple(sorted(factors.items()))


@dataclass(frozen=True)
class Factorization:
    """Signed prime factorization: sign * prod(p**e) reconstructs the input."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def value(self) -> int:
        v = self.sign
        for p, e in self.factors:
            v *= p**e
        return v

    def primes(self) -> list[int]:
        return [p for p, _ in self.factors]


def factorize(n: int) -> Factorization:
    """Exact factorization of a nonzero integer."""
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = 1 if n > 0 else -1
    return Factorization(sign, _factor_positive(abs(n)))


def valuation(n: int, p: int) -> int:
    """Largest e with p**e | n, for n != 0."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    if p < 2:
        raise ValueError("p must be a prime >= 2")
    n = abs(n)
    v = 0
    while n % p == 0:
        v += 1
        n //= p
    return v


# ---------------------------------------------------------------------------
# Divisors
# ---------------------------------------------------------------------------

def divisors(n: int) -> list[int]:
    """All positive divisors of n != 0, sorted."""
    fac = factorize(n)
    divs = [1]
    for p, e in fac.factors:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def divisors_k(m: int, k: int) -> list[int]:
    """All integers z (both signs) with z**k | m, sorted; m != 0, k >= 1."""
    if m == 0:
        raise ValueError("D_k(0) is all of Z; refusing to enumerate")
    if k < 1:
        raise ValueError("k must be >= 1")
    fac = factorize(m)
    roots = [1]
    for p, e in fac.factors:
        roots = [d * p**j for d in roots for j in range(e // k + 1)]
    out = sorted(roots)
    return [-d for d in reversed(out)] + out


def in_divisor_set(z: int, m: int, k: int) -> bool:
    """Membership test for D_k(m); by convention z=0 is excluded, and every
    nonzero z belongs to D_k(0)."""
    if z == 0:
        return False
    if m == 0:
        return True
    return m % z**k == 0


# ---------------------------------------------------------------------------
# Integer and rational roots
# ---------------------------------------------------------------------------

def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0."""
    if n < 0:
        raise ValueError("iroot needs n >= 0")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k == 2:
        return isqrt(n)
    x = 1 << (-(-n.bit_length() // k))
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x**k > n:
        x -= 1
    return x


def exact_iroot(n: int, k: int) -> int | None:
    """The integer r with r**k == n, or None.  For even k the positive root."""
    if k <= 0:
        raise ValueError("k must be positive")
    if n < 0:
        if k % 2 == 0:
            return None
        r = exact_iroot(-n, k)
        return None if r is None else -r
    r = iroot(n, k)
    return r if r**k == n else None


def exact_roots(n: int, k: int) -> list[int]:
    """Every integer r with r**k == n, ascending: both signs for even k."""
    r = exact_iroot(n, k)
    if r is None:
        return []
    return [-r, r] if k % 2 == 0 and r else [r]


def shifted_power(s: int, r: int, e: int) -> list[int]:
    """Coefficients of (s*w + r)**e as a polynomial in w, lowest first."""
    return [comb(e, k) * s**k * r ** (e - k) for k in range(e + 1)]


def rational_root_d(r: Fraction, d: int) -> Fraction | None:
    """The rational s with s**d == r, if one exists (positive s for even d)."""
    if r == 0:
        raise ValueError("r must be nonzero")
    if d < 1:
        raise ValueError("d must be positive")
    num = exact_iroot(r.numerator, d)
    den = exact_iroot(r.denominator, d)
    if num is None or den is None:
        return None
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# Univariate solving
# ---------------------------------------------------------------------------

def _root_body(coeffs: list[int]) -> tuple[int, list[int]]:
    """(m, body) with sum(coeffs[i] * x**i) = x**m * sum(body[i] * x**i) and
    body[0], body[-1] nonzero; coeffs[i] is the coefficient of x**i.
    Rejects the zero polynomial."""
    body = list(coeffs)
    while body and body[-1] == 0:
        body.pop()
    if not body:
        raise ValueError("zero polynomial: every x is a root")
    m = 0
    while body[m] == 0:
        m += 1
    return m, body[m:]


def _roots_among(coeffs: list[int], candidates) -> list:
    """The candidates x (ints or Fractions) with sum(coeffs[i] * x**i) = 0,
    in order, each evaluated by Horner's rule."""
    high_first = coeffs[::-1]
    roots = []
    for x in candidates:
        acc = 0
        for c in high_first:
            acc = acc * x + c
        if acc == 0:
            roots.append(x)
    return roots


def solve_univariate(coeffs: list[int]) -> tuple[list[int], list[Fraction]]:
    """All roots of sum(coeffs[i] * x**i) = 0 over Z and over Q.

    coeffs[i] is the coefficient of x**i.  The rational list contains every
    rational root (integer roots included, as Fractions).  Rejects the zero
    polynomial.
    """
    m, body = _root_body(coeffs)
    rationals = [Fraction(0)] if m > 0 else []
    if len(body) > 1:
        rationals += _roots_among(body, (
            Fraction(sign * p, q) for p in divisors(body[0])
            for q in divisors(body[-1]) if gcd(p, q) == 1
            for sign in (1, -1)))
    rationals = sorted(set(rationals))
    integers = sorted(int(r) for r in rationals if r.denominator == 1)
    return integers, rationals


def integer_roots(coeffs: list[int]) -> list[int]:
    """All integer roots of sum(coeffs[i] * x**i) = 0, sorted.

    A nonzero integer root divides the lowest nonzero coefficient, so only
    those divisors (both signs) are tried, each by integer Horner evaluation;
    0 is a root when the constant term is 0.  Rejects the zero polynomial.
    """
    m, body = _root_body(coeffs)
    roots = [0] if m > 0 else []
    if len(body) == 1:
        return roots
    return sorted(roots + _roots_among(
        body, (x for d in divisors(body[0]) for x in (d, -d))))


def integer_roots_bounded(coeffs: list[int], bound: int) -> list[int]:
    """Integer roots with |x| <= bound, found by scanning the divisors of the
    trailing coefficient in pairs (d, |c0| // d) with d <= isqrt(|c0|) (no
    factorization).  Rejects the zero polynomial."""
    m, body = _root_body(coeffs)
    roots = [0] if m > 0 else []
    if len(body) == 1:
        return roots
    low = abs(body[0])
    return sorted(roots + _roots_among(body, (
        x for d in range(1, min(bound, isqrt(low)) + 1) if low % d == 0
        for e in {d, low // d} if e <= bound for x in (e, -e))))


# ---------------------------------------------------------------------------
# Roots modulo m
# ---------------------------------------------------------------------------

#: Largest prime roots_mod scans residue by residue (about 1 s per 1e6
#: residues at degree 8, in CPython 3.11 on a 2-core x86 VM).
_PRIME_SCAN_LIMIT = 10_000_000


def roots_mod(coeffs: list[int], m: int, limit: int) -> list[int]:
    """Every r in [0, m) with sum(coeffs[i] * r**i) = 0 (mod m), sorted;
    m >= 1.

    For each prime power p^e of m, the roots modulo p, found by a scan, are
    lifted one power of p at a time by Hensel's lemma: a simple root r
    modulo p^k has one lift, a Newton step; a singular one lifts to every
    r + t*p^k when it is a root modulo p^(k+1), else to none.  The prime
    powers are combined by the Chinese remainder theorem.  Raises
    ResourceLimit past `limit` classes, or when a prime of m is above
    _PRIME_SCAN_LIMIT.  A linear c0 + c1*r with c1 prime to m has the one
    root -c0/c1 modulo m, found without a scan."""
    if len(coeffs) == 2 and gcd(coeffs[1], m) == 1:
        return [-coeffs[0] * pow(coeffs[1], -1, m) % m]

    def check(count):
        if count > limit:
            raise ResourceLimit(f"more than {limit} residues modulo a "
                                f"{m.bit_length()}-bit modulus")

    slope = [i * c for i, c in enumerate(coeffs)][1:]
    roots, modulus = [0], 1
    for p, e in factorize(m).factors:
        if p > _PRIME_SCAN_LIMIT:
            raise ResourceLimit(f"a scan of the residues of a "
                                f"{p.bit_length()}-bit prime")
        if not any(c % p for c in coeffs):
            check(p)  # every residue is a root
        local = [r for r in range(p) if _value_mod(coeffs, r, p) == 0]
        for k in range(1, e):
            pk, nxt = p**k, p ** (k + 1)
            lifted = []
            for r in local:
                ds = _value_mod(slope, r, p)
                if ds:
                    lifted.append((r - _value_mod(coeffs, r, nxt)
                                   * pow(ds, -1, p)) % nxt)
                elif _value_mod(coeffs, r, nxt) == 0:
                    check(len(lifted) + p)
                    lifted.extend(range(r, nxt, pk))
            local = lifted
        check(len(roots) * len(local))
        q = p**e
        inv = pow(modulus, -1, q)
        roots = [r + modulus * ((s - r) * inv % q)
                 for r in roots for s in local]
        modulus *= q
    return sorted(roots)


def _value_mod(coeffs: list[int], r: int, q: int) -> int:
    """sum(coeffs[i] * r**i) modulo q, by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * r + c) % q
    return acc
