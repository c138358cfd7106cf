"""The three workloads: which operations a run attempts, how one operation
runs, and the check that decides whether its answer is right.

Each check compares against a computation made apart from the program: the
paper's tables (`trisolve.fixtures`, published data) and the benchmark's own
arithmetic.  None compares against a stored copy of the program's output.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import corpus

TABLE1_BOUND = 10_000  # the program's default base-equation search bound
MC_SAMPLES = 1000
MC_SECONDS_PER_PASS = 11  # one pass of the 40 cells, on a 2-core x86 VM
MC_TOLERANCE_SIGMAS = 6


@dataclass(frozen=True)
class Op:
    label: str
    args: tuple


# ---------------------------------------------------------------------------
# table1: rows of x^4 + a*x*y + y^3 = 0 through both pipelines
# ---------------------------------------------------------------------------

def _omega_and_pairs(a: int) -> tuple[int, int]:
    """Number of distinct primes of a, and of pairs (u, w) with u*w | a (the
    base equations solve_masser sets up)."""
    omega, n, p = 0, a, 2
    while p * p <= n:
        if n % p == 0:
            omega += 1
            while n % p == 0:
                n //= p
        p += 1
    omega += n > 1
    return omega, sum(_divisor_count(a // u) for u in range(1, a + 1)
                      if a % u == 0)


def _divisor_count(q: int) -> int:
    return sum(1 for d in range(1, q + 1) if q % d == 0)


def table1_ops(seed: int, seconds: int) -> list[Op]:
    """max(20, 2 * seconds // 3) rows, one from each of as many strata of
    rows of similar cost (ordered by prime count, then base-equation count),
    in seeded order; each row runs through solve_masser, then
    solve_two_var."""
    count = max(20, 2 * seconds // 3)
    rows = sorted(range(1, 101), key=lambda a: (*_omega_and_pairs(a), a))
    rng = random.Random(f"table1:{seed}")
    chosen = [rng.choice(rows[i * 100 // count:(i + 1) * 100 // count])
              for i in range(count)]
    rng.shuffle(chosen)
    return [Op(f"a={a}/{pipe}", (a, pipe))
            for a in chosen for pipe in ("masser", "general")]


def table1_run(a: int, pipe: str):
    from trisolve import eqparse, twovar

    if pipe == "masser":
        return twovar.solve_masser(a, bound=TABLE1_BOUND)
    eq = eqparse.parse_trinomial(f"x^4 + {a}*x*y + y^3 = 0")
    return twovar.solve_two_var(eq, bound=TABLE1_BOUND).solutions


def table1_points(solset) -> set[tuple[int, int]]:
    pts = set(solset.finite)
    for fam in solset.families:
        pts |= fam.enumerate_box(3000)
    return pts


class Table1Check:
    """Points satisfy x^4 + a*x*y + y^3 = 0 in plain integer arithmetic, the
    nontrivial ones equal the paper's Table 1 row, and both pipelines give
    the same set."""

    def __init__(self):
        from trisolve.fixtures import TABLE1

        self.table = TABLE1
        self.seen: dict[int, set] = {}

    def __call__(self, op: Op, solset) -> bool:
        a, _ = op.args
        pts = table1_points(solset)
        if any(x**4 + a * x * y + y**3 != 0 for x, y in pts):
            return False
        if pts - {(0, 0)} != self.table.get(a, set()):
            return False
        return self.seen.setdefault(a, pts) == pts


def table1_canonical(solset):
    return sorted(table1_points(solset)), str(solset.status)


# ---------------------------------------------------------------------------
# montecarlo: the Table-6 cells of the sufficient-condition experiment
# ---------------------------------------------------------------------------

def montecarlo_ops(seed: int, seconds: int) -> list[Op]:
    """All 40 cells per pass, max(1, seconds // 11) passes, each cell with
    its own seeded sample seed."""
    from trisolve.fixtures import TABLE6, TABLE6_DEGREES

    rng = random.Random(f"montecarlo:{seed}")
    ops = []
    for _ in range(max(1, seconds // MC_SECONDS_PER_PASS)):
        cells = [(n, d) for n in TABLE6 for d in TABLE6_DEGREES]
        rng.shuffle(cells)
        ops += [Op(f"n={n}/d={d}", (n, d, rng.getrandbits(32)))
                for n, d in cells]
    return ops


def montecarlo_run(n: int, d: int, sample_seed: int):
    from trisolve import multivar

    return multivar.monte_carlo_prop4(n, d, MC_SAMPLES, seed=sample_seed,
                                      threads=1)


class MonteCarloCheck:
    """No unknown draws, and the proportion within MC_TOLERANCE_SIGMAS
    binomial standard deviations (at MC_SAMPLES) of the paper's Table 6."""

    def __init__(self):
        from trisolve.fixtures import TABLE6, TABLE6_DEGREES

        self.expected = {(n, d): p for n, row in TABLE6.items()
                         for d, p in zip(TABLE6_DEGREES, row)}

    def __call__(self, op: Op, res) -> bool:
        n, d, _ = op.args
        p = self.expected[(n, d)]
        sigma = math.sqrt(p * (1 - p) / MC_SAMPLES)
        return (res.unknown == 0 and res.samples == MC_SAMPLES
                and abs(res.feasible / MC_SAMPLES - p)
                <= MC_TOLERANCE_SIGMAS * sigma + 1 / MC_SAMPLES)


def montecarlo_canonical(res):
    return res.feasible, res.unknown


# ---------------------------------------------------------------------------
# corpus: the `verify` route on the fixed list and the seeded trinomials
# ---------------------------------------------------------------------------

def corpus_ops(seed: int, seconds: int) -> list[Op]:
    return [Op(f"{label}: {corpus.render(eq)}", (eq,))
            for label, eq in corpus.corpus(seed, seconds)]


@dataclass
class VerifyResult:
    report: object
    oracle: list
    verification: object
    box: int


def corpus_run(eq) -> VerifyResult:
    """The `verify` route: solve, the oracle on the box, and the comparison."""
    from trisolve import eqparse, multivar, oracle, solset

    text = corpus.render(eq)
    box = corpus.BOX[len(corpus.variables(eq))]
    poly = eqparse.parse_equation(text)
    report = multivar.solve(text, bound=corpus.SEARCH_BOUND)
    run = oracle.brute_force(poly, box)
    ver = solset.verify_against_oracle(report.solutions, poly,
                                       run.solutions, box)
    return VerifyResult(report, run.solutions, ver, box)


class CorpusCheck:
    """The solution set is over the equation's variables, its box listing
    equals the benchmark's own sweep of the box, and the route reports it
    sound and complete in the box."""

    def __call__(self, op: Op, res: VerifyResult) -> bool:
        (eq,) = op.args
        sols = res.report.solutions
        if sorted(sols.variables) != sorted(corpus.variables(eq)):
            return False
        produced, _ = sols.enumerate_box(res.box)
        truth = corpus.box_solutions(eq, list(sols.variables), res.box)
        return (set(produced) == truth and res.verification.sound
                and res.verification.complete_in_box)


def corpus_group(op: Op, res: VerifyResult) -> str:
    return "/".join(res.report.path)


def corpus_canonical(res: VerifyResult):
    ver = res.verification
    return (tuple(res.report.path), str(res.report.solutions.status),
            res.oracle, ver.sound, ver.complete_in_box, ver.missing,
            ver.spurious)


@dataclass(frozen=True)
class Workload:
    make_ops: object
    run: object
    check: object
    canonical: object
    group: object  # op, result -> the name its time is reported under
    known_failing: frozenset = frozenset()  # op.args expected to fail


WORKLOADS = {
    "table1": Workload(table1_ops, table1_run, Table1Check, table1_canonical,
                       lambda op, res: op.args[1]),
    "montecarlo": Workload(montecarlo_ops, montecarlo_run, MonteCarloCheck,
                           montecarlo_canonical,
                           lambda op, res: f"n={op.args[0]}"),
    "corpus": Workload(corpus_ops, corpus_run, CorpusCheck, corpus_canonical,
                       corpus_group,
                       frozenset((eq,) for eq in corpus.KNOWN_FAILING)),
}
