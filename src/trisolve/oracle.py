"""Brute-force ground truth: enumerate every integer solution of a parsed
equation inside a box.  It stays independent of the solvers (it imports only
the parser and integer primitives): one variable is solved exactly from the
residual univariate polynomial at each point of a sweep over the others,
and `brute_force_naive`, a full sweep, is its reference in the tests.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .eqparse import Polynomial
from .intcore import exact_roots, integer_roots_bounded


class BoxTooLarge(ValueError):
    pass


#: Most points of the swept (n-1)-dimensional box brute_force accepts.
_BOX_GUARD = 10**9


@dataclass
class OracleRun:
    variables: list[str]
    bound: int
    solutions: list[tuple[int, ...]]
    elapsed: float


def brute_force(poly: Polynomial, bound: int) -> OracleRun:
    """All points of [-bound, bound]^n with P = 0, sorted lexicographically.

    The variable with the fewest distinct exponents (the later one on a tie)
    is solved exactly from the residual univariate polynomial, so the sweep
    is over the other n-1 variables.  Each monomial's part in the swept
    variables is read from per-exponent power tables.  A residual with two
    nonzero terms is solved by one exact division and an exact root; one
    with three or more by a bounded divisor scan.
    """
    variables = list(poly.variables)
    n = len(variables)
    start = time.perf_counter()
    if n == 0:
        sols = [()] if not poly.monomials else []
        return OracleRun(variables, bound, sols, time.perf_counter() - start)
    width = 2 * bound + 1
    if width ** max(n - 1, 1) > _BOX_GUARD:
        raise BoxTooLarge(f"box {width}^{n - 1} exceeds guard {_BOX_GUARD}")

    exps = [[m.exp_of(v) for v in variables] for m in poly.monomials]
    solved = min(reversed(range(n)), key=lambda i: len({e[i] for e in exps}))
    swept = [i for i in range(n) if i != solved]
    degrees = sorted({e[solved] for e in exps})
    rng = range(-bound, bound + 1)
    # power tables indexed by a coordinate's offset v + bound
    tables = {k: [v**k for v in rng]
              for e in exps for k in (e[i] for i in swept) if k}
    # per exponent of the solved variable: (coefficient, [(slot, table)])
    layers: list[list] = [[] for _ in degrees]
    for m, e in zip(poly.monomials, exps):
        factors = [(j, tables[e[i]]) for j, i in enumerate(swept) if e[i]]
        layers[degrees.index(e[solved])].append((m.coeff, factors))

    out = []
    for offsets in itertools.product(range(width), repeat=n - 1):
        terms = []
        for k, layer in zip(degrees, layers):
            total = 0
            for c, factors in layer:
                for j, table in factors:
                    c *= table[offsets[j]]
                total += c
            if total:
                terms.append((k, total))
        if not terms:
            roots = rng
        elif len(terms) == 1:
            roots = [0] if terms[0][0] else []
        elif len(terms) == 2:
            (lo, c_lo), (hi, c_hi) = terms
            roots = [0] if lo else []
            if c_lo % c_hi == 0:
                roots += [x for x in exact_roots(-c_lo // c_hi, hi - lo)
                          if -bound <= x <= bound]
        else:
            coeffs = [0] * (terms[-1][0] + 1)
            for k, c in terms:
                coeffs[k] = c
            roots = integer_roots_bounded(coeffs, bound)
        if roots:
            head = tuple(o - bound for o in offsets)
            out.extend(head[:solved] + (x,) + head[solved:] for x in roots)
    out.sort()
    return OracleRun(variables, bound, out, time.perf_counter() - start)


def brute_force_naive(poly: Polynomial, bound: int) -> list[tuple[int, ...]]:
    """Full sweep without the residual trick; cross-check for the oracle."""
    variables = list(poly.variables)
    rng = range(-bound, bound + 1)
    out = []
    for point in itertools.product(rng, repeat=len(variables)):
        if poly.evaluate(dict(zip(variables, point))) == 0:
            out.append(point)
    return out

