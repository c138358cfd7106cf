"""Brute-force ground truth: enumerate every integer solution of a parsed
equation inside a box.  It stays independent of the solvers (it imports only
the parser and integer primitives): one variable is solved exactly from the
residual univariate polynomial at each point of a sweep over the others,
and the tests compare it with a full sweep of the box.
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

#: Most points of one coefficient column: the trailing swept variables whose
#: grid fits it form the column, so the sweep's extra memory is bounded by
#: this, never by the box's volume.
_COLUMN_CAP = 256


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
    is over the other n-1 variables.  The trailing swept variables whose
    grid holds at most `_COLUMN_CAP` points form a column, and an outer
    loop sweeps the leading ones point by point, so the extra memory stays
    within the cap whatever the box.  At each outer point, the coefficient
    of each exponent of the solved variable is built as a list over the
    column from per-monomial columns and per-exponent power tables.  When
    the solved variable takes two exponents, a residual with both terms
    nonzero is solved by one exact division, followed by an exact root when
    the exponents differ by more than 1; any other nonzero residual is
    solved by a bounded divisor scan.
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
    trail = 0  # the trailing swept variables in the column
    while trail < len(swept) and width ** (trail + 1) <= _COLUMN_CAP:
        trail += 1
    lead = len(swept) - trail
    # the zero polynomial gets one empty layer, whose residual is zero
    degrees = sorted({e[solved] for e in exps}) or [0]
    rng = range(-bound, bound + 1)
    # power tables indexed by a coordinate's offset v + bound
    tables = {k: [v**k for v in rng]
              for e in exps for k in (e[i] for i in swept)}
    zeros = [0] * width ** trail
    # per exponent of the solved variable: (the monomial's coefficient times
    # its trailing part over the column, [(leading slot, table)])
    layers: list[list] = [[] for _ in degrees]
    for m, e in zip(poly.monomials, exps):
        column = [m.coeff]
        for i in swept[lead:]:
            column = [c * p for c in column for p in tables[e[i]]]
        factors = [(j, tables[e[i]])
                   for j, i in enumerate(swept[:lead]) if e[i]]
        layers[degrees.index(e[solved])].append((column, factors))

    out = []
    for prefix in itertools.product(range(width), repeat=lead):
        cols = []
        for layer in layers:
            total = zeros
            for column, factors in layer:
                f = 1
                for j, table in factors:
                    f *= table[prefix[j]]
                if f:
                    if f != 1:
                        column = [f * c for c in column]
                    total = (column if total is zeros else
                             [a + b for a, b in zip(total, column)])
            cols.append(total)
        head = tuple(o - bound for o in prefix)
        tails = itertools.product(rng, repeat=trail)
        if len(cols) == 2:
            # a*x^lo + b*x^hi: one exact division, and an exact root when
            # the exponents differ by more than 1
            lo, hi = degrees
            for tail, a, b in zip(tails, *cols):
                if not b:
                    roots = rng if not a else [0] if lo else ()
                elif not a:
                    roots = [0]
                else:
                    roots = [0] if lo else []
                    if a % b == 0:
                        x = -a // b
                        if hi - lo == 1:
                            if -bound <= x <= bound:
                                roots.append(x)
                        else:
                            roots += [r for r in exact_roots(x, hi - lo)
                                      if -bound <= r <= bound]
                if roots:
                    point = head + tail
                    out.extend(point[:solved] + (x,) + point[solved:]
                               for x in roots)
            continue
        for tail, coeffs in zip(tails, zip(*cols)):
            roots = rng
            if any(coeffs):
                dense = [0] * (degrees[-1] + 1)
                for k, c in zip(degrees, coeffs):
                    dense[k] = c
                roots = integer_roots_bounded(dense, bound)
            if roots:
                point = head + tail
                out.extend(point[:solved] + (x,) + point[solved:]
                           for x in roots)
    out.sort()
    return OracleRun(variables, bound, out, time.perf_counter() - start)

