"""Brute-force ground truth: enumerate every integer solution of a parsed
equation inside a box.  Deliberately simple so it stays trustworthy; the only
speedup is solving the last variable exactly instead of sweeping it.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .eqparse import Polynomial
from .intcore import integer_roots_bounded


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

    The last variable is solved exactly from the residual univariate
    polynomial, so the sweep is over n-1 variables.
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

    head, last = variables[:-1], variables[-1]
    deg = poly.degree_in(last)
    # residual coefficients of last**k as polynomials in the head variables
    layers: list[list] = [[] for _ in range(deg + 1)]
    for mono in poly.monomials:
        layers[mono.exp_of(last)].append(mono)

    out = []
    rng = range(-bound, bound + 1)
    for point in itertools.product(rng, repeat=n - 1):
        env = dict(zip(head, point))
        coeffs = []
        for k in range(deg + 1):
            coeffs.append(sum(
                m.coeff * _eval_without(m, last, env) for m in layers[k]))
        if all(c == 0 for c in coeffs):
            out.extend(point + (v,) for v in rng)
            continue
        roots = integer_roots_bounded(coeffs, bound)
        out.extend(point + (v,) for v in roots)
    out.sort()
    return OracleRun(variables, bound, out, time.perf_counter() - start)


def _eval_without(mono, skip, env):
    val = 1
    for v, e in mono.exps:
        if v != skip:
            val *= env[v] ** e
    return val


def brute_force_naive(poly: Polynomial, bound: int) -> list[tuple[int, ...]]:
    """Full sweep without the residual trick; cross-check for the oracle."""
    variables = list(poly.variables)
    rng = range(-bound, bound + 1)
    out = []
    for point in itertools.product(rng, repeat=len(variables)):
        if poly.evaluate(dict(zip(variables, point))) == 0:
            out.append(point)
    return out

