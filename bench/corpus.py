"""The `corpus` workload's equations, in the benchmark's own structured form.

An equation is a tuple of monomials ``(coeff, ((var, exp), ...))`` read as
``sum = 0``.  The benchmark renders it to text for the program and
enumerates its box solutions itself, so the reference answer never goes
through the program's parser or oracle.

Print the corpus of a seed (the fixed list first, then the draws):

    python3 bench/corpus.py --seed 1 --seconds 30
"""

from __future__ import annotations

import argparse
import itertools
import random

# Search bound for base equations and the Runge path: below the default of
# 10000, so that no single bounded search dominates a run.
SEARCH_BOUND = 1000
# Half-width of the verification box per variable count.
BOX = {0: 10, 1: 30, 2: 20, 3: 5, 4: 3}
# Exponents the draws pick from, per variable count: higher degrees in three
# and four variables make single box enumerations take seconds.
EXPONENTS = {2: (0, 1, 1, 2, 3, 4), 3: (0, 0, 1, 1, 2), 4: (0, 0, 1, 1)}
COEFFS = tuple(c for c in range(-4, 5) if c)
NAMES = "xyzt"
DRAWS_PER_SECOND = 5
# A run draws at most 50 of the 52 equations of each pool.  Op costs are
# heavy-tailed (a few equations take a second), so with larger pools runs of
# different seeds differ by whether they drew those.
POOL_SIZE = 52
MAX_DRAWS = 150


def m(coeff, **exps):
    return (coeff, tuple((v, e) for v, e in exps.items() if e))


# Reaches every path string a default `solve` can reach, except
# `feasibility-unknown` (it needs the full 1,000,000-node monoid budget) and
# `constant-ends` (two constant monomials merge, so no canonical trinomial
# gets there).  Each entry: (expected path, equation).
FIXED = [
    ("identically-zero", (m(1, x=1), m(-1, x=1))),
    ("constant", (m(5),)),
    ("one-monomial", (m(3, x=2, y=1),)),
    ("univariate", (m(1, x=3), m(-6, x=2), m(11, x=1), m(-6))),
    ("two-monomial", (m(1, x=2, y=1), m(-1, z=3))),
    ("two-monomial", (m(1, x=2), m(-2, y=2))),
    ("two-monomial", (m(1, x=1, y=1), m(1, z=1, t=1))),
    ("base-equation", (m(1, x=4), m(2, y=3), m(7))),
    ("base-equation", (m(1, y=2), m(-1, x=3), m(-2))),
    ("divisor-branch", (m(1, x=2, y=1), m(1, x=1), m(5))),
    ("divisor-branch", (m(1, x=1, y=1), m(2, y=1), m(3))),
    ("strict", (m(1, x=4), m(2, x=1, y=1), m(1, y=3))),
    ("strict", (m(1, x=5), m(1, x=1, y=1), m(1, y=2))),
    ("equality", (m(1, x=2), m(1, x=1, y=1), m(1, y=2))),
    ("runge", (m(1, x=3, y=1), m(1, y=2), m(1, x=1))),
    ("runge", (m(1, x=1, y=1), m(1, x=1), m(1, y=1))),
    ("direct-formula", (m(1, x=1, y=1), m(1, y=1, z=1), m(1, z=1, x=1))),
    ("direct-formula", (m(1, x=2), m(1, y=3), m(-1, z=5))),
    ("sufficient-condition", (m(1, x=1, y=1), m(-1, z=1, t=1), m(-1))),
    ("sufficient-condition", (m(1, x=2, y=1), m(-1, z=2), m(-1))),
    ("sufficient-condition", (m(1, x=1, y=1, z=1), m(-1, x=1), m(-1, y=1))),
    ("reduction", (m(3, x=3), m(4, y=3), m(5, z=3))),
    ("reduction", (m(1, x=1), m(1, x=2, y=1), m(-1, y=1, z=2))),
    ("reduction", (m(1, x=2, y=4), m(1, z=6), m(-5))),
    # One variable divides all three monomials.  `solve` dispatches on the
    # cancelled form but solves the uncancelled polynomial: the first two
    # raise KeyError, the last two miss the line y=0 (the plane z=0).
    ("shared-variable", (m(1, x=1, z=1), m(1, y=1, z=1), m(3, z=1))),
    ("shared-variable", (m(1, x=1, y=1), m(-2, x=4, y=1), m(-2, x=3, y=1))),
    ("shared-variable", (m(2, x=4, y=4), m(-3, y=4), m(6, x=1, y=4))),
    ("shared-variable", (m(1, x=2, z=1), m(1, x=1, z=1), m(3, z=1))),
]

KNOWN_FAILING = frozenset(eq for path, eq in FIXED
                          if path == "shared-variable")

# Pool equations the verify route does not get through, found by
# bench/screen.py (see the FOUND lines of CHANGES.md).
EXCLUDED = [
    # Complete, but the box listing misses solutions such as
    # (y, t, x, z) = (3, -1, -2, -2)
    (m(3, y=1, t=1), m(3, x=1, z=1), m(3, t=1)),
]


def variables(eq) -> list[str]:
    """Variables in order of first appearance."""
    out: list[str] = []
    for _, exps in eq:
        for v, _ in exps:
            if v not in out:
                out.append(v)
    return out


def render(eq) -> str:
    text = ""
    for coeff, exps in eq:
        factors = [v if e == 1 else f"{v}^{e}" for v, e in exps]
        body = "*".join(([str(abs(coeff))] if abs(coeff) != 1 or not factors
                         else []) + factors)
        if not text:
            text = body if coeff > 0 else f"-{body}"
        else:
            text += f" + {body}" if coeff > 0 else f" - {body}"
    return f"{text} = 0"


def evaluate(eq, point: dict[str, int]) -> int:
    total = 0
    for coeff, exps in eq:
        term = coeff
        for v, e in exps:
            term *= point[v] ** e
        total += term
    return total


def box_solutions(eq, order: list[str], box: int) -> set[tuple[int, ...]]:
    """Every point of [-box, box]^n with the equation's value 0, as tuples
    in the given variable order (a plain sweep, no root solving)."""
    rng = range(-box, box + 1)
    return {pt for pt in itertools.product(rng, repeat=len(order))
            if evaluate(eq, dict(zip(order, pt))) == 0}


def _key(eq):
    """Equal for equations that are the same up to monomial order and an
    overall sign."""
    monos = sorted((tuple(dict(exps).get(v, 0) for v in NAMES), c)
                   for c, exps in eq)
    if monos[0][1] < 0:
        monos = [(e, -c) for e, c in monos]
    return tuple(monos)


def _draw(rng: random.Random, nvars: int):
    names = NAMES[:nvars]
    while True:
        rows = [tuple(rng.choice(EXPONENTS[nvars]) for _ in names)
                for _ in range(3)]
        coeffs = [rng.choice(COEFFS) for _ in range(3)]
        if len(set(rows)) < 3:
            continue
        cols = list(zip(*rows))
        # every variable occurs, and none divides all three monomials
        if any(not any(col) for col in cols) or any(all(col) for col in cols):
            continue
        return tuple((c, tuple((v, e) for v, e in zip(names, row) if e))
                     for c, row in zip(coeffs, rows))


def pool(nvars: int) -> list[tuple]:
    """The first POOL_SIZE distinct trinomials in nvars variables from a
    fixed seed, less EXCLUDED.  bench/screen.py runs the whole pool, so every
    equation a run can draw has been seen to pass its check."""
    rng = random.Random(f"pool:{nvars}")
    seen = {_key(eq) for _, eq in FIXED}
    out = []
    while len(out) < POOL_SIZE:
        eq = _draw(rng, nvars)
        if _key(eq) not in seen:
            seen.add(_key(eq))
            out.append(eq)
    excluded = {_key(eq) for eq in EXCLUDED}
    return [eq for eq in out if _key(eq) not in excluded]


def corpus(seed: int, seconds: int) -> list[tuple[str, tuple]]:
    """The fixed list, then min(MAX_DRAWS, max(40, DRAWS_PER_SECOND *
    seconds)) trinomials from the pools, a third in each variable count, in
    seeded order."""
    rng = random.Random(f"corpus:{seed}")
    count = min(MAX_DRAWS, max(40, DRAWS_PER_SECOND * seconds))
    draws = []
    for nvars in (2, 3, 4):
        share = count // 3 + (nvars - 2 < count % 3)
        draws += [("seeded", eq) for eq in rng.sample(pool(nvars), share)]
    rng.shuffle(draws)
    return list(FIXED) + draws


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()
    for label, eq in corpus(args.seed, args.seconds):
        print(f"{label:22s} box {BOX[len(variables(eq))]:2d}  {render(eq)}")


if __name__ == "__main__":
    main()
