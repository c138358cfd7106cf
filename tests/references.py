"""Reference code the tests compare the package against.  The package
itself uses none of it: a full sweep for the oracle, the solutions a
minimal basis generates, and the lemma of the three valuations."""

import itertools
from math import inf

from trisolve.intcore import valuation


def brute_force_naive(poly, bound):
    """Full sweep without the residual trick; cross-check for the oracle."""
    variables = list(poly.variables)
    rng = range(-bound, bound + 1)
    out = []
    for point in itertools.product(rng, repeat=len(variables)):
        if poly.evaluate(dict(zip(variables, point))) == 0:
            out.append(point)
    return out


def generate_solutions(basis, bound):
    """All solutions with entries <= bound of a lindioph.MinimalBasis,
    generated as particular plus non-negative combinations of the
    homogeneous minimals."""
    if basis.homogeneous_system:
        seeds = [None]
    elif basis.particular:
        seeds = list(basis.particular)
    else:
        return set()
    out = set()
    for seed in seeds:
        n = basis.nvars or (len(seed) if seed else 0)
        if n == 0:
            continue
        start = tuple(seed) if seed else tuple([0] * n)
        stack = [start]
        seen = {start}
        while stack:
            cur = stack.pop()
            out.add(cur)
            for h in basis.homogeneous:
                nxt = tuple(c + d for c, d in zip(cur, h))
                if max(nxt) <= bound and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return out


#: Valuation of zero.  Float infinity compares exactly with every int and is
#: never equal to one.
OO = inf


def valuation_or_infinity(n, p):
    """valuation(n, p), with OO for n = 0."""
    return OO if n == 0 else valuation(n, p)


def valuation_split(a, b, c, p):
    """For a + b + c = 0, identify which two of v_p(a), v_p(b), v_p(c) attain
    the common minimum: tag 'ab', 'ac', 'bc', or 'abc' when all equal.

    Returns (tag, minimum).  The two smallest valuations of a zero-sum triple
    are always equal, which this function asserts.
    """
    if a + b + c != 0:
        raise ValueError("expected a + b + c = 0")
    if a == 0 and b == 0 and c == 0:
        raise ValueError("at least one of a, b, c must be nonzero")
    va = valuation_or_infinity(a, p)
    vb = valuation_or_infinity(b, p)
    vc = valuation_or_infinity(c, p)
    lo = min(va, vb, vc)
    hits = [t for t, v in (("a", va), ("b", vb), ("c", vc)) if v == lo]
    if len(hits) < 2:
        raise AssertionError(f"valuation split violated for ({a},{b},{c}) at p={p}")
    tag = "abc" if len(hits) == 3 else "".join(hits)
    return tag, lo
