"""Solution sets: finite lists plus parametric families with divisor-set
constrained parameters, a completeness status, and exact box enumeration
where a witness construction justifies it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import le
from typing import Callable, Iterable, Optional, Union

from .eqparse import Polynomial
from .expr import ExactDivisionError, Expr, const, param
from .intcore import divisors_k, in_divisor_set

# A box is one bound per variable, |x_v| <= bound_v: an int stands for the
# cube of that bound, a tuple gives the bounds in the order of `variables`.
Box = Union[int, tuple[int, ...]]


def box_bounds(box: Box, variables: list[str]) -> tuple[int, ...]:
    """The bound of each variable in order."""
    if isinstance(box, int):
        return (box,) * len(variables)
    if len(box) != len(variables):
        raise ValueError(f"box {box} does not fit the variables {variables}")
    return tuple(box)


def in_box(point: tuple[int, ...], bounds: tuple[int, ...]) -> bool:
    return all(map(le, map(abs, point), bounds))


# ---------------------------------------------------------------------------
# Completeness status
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Status:
    kind: str  # complete | searched | reduced_only | unknown
    bound: Optional[int] = None

    _RANK = {"unknown": 0, "reduced_only": 1, "searched": 2, "complete": 3}

    def rank(self) -> int:
        return self._RANK[self.kind]

    def combine(self, other: "Status") -> "Status":
        """Weakest of the two statuses; searched bounds take the minimum."""
        if self.kind == "searched" and other.kind == "searched":
            return Status("searched", min(self.bound, other.bound))
        return self if self.rank() <= other.rank() else other

    def __str__(self):
        if self.kind == "searched":
            return f"SearchedToBound({self.bound})"
        return {"complete": "Complete", "reduced_only": "ReducedOnly",
                "unknown": "Unknown"}[self.kind]


COMPLETE = Status("complete")
REDUCED_ONLY = Status("reduced_only")
UNKNOWN = Status("unknown")


def searched(bound: int) -> Status:
    return Status("searched", bound)


# ---------------------------------------------------------------------------
# Parameter domains
# ---------------------------------------------------------------------------

class DomainError(ValueError):
    pass


class ParamDomain:
    def contains(self, value: int, env: dict[str, int]) -> bool:
        raise NotImplementedError

    def enumerate(self, env: dict[str, int], sweep: int) -> Iterable[int]:
        """The members of magnitude at most sweep, given the values of the
        earlier parameters in env."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class AllIntegers(ParamDomain):
    def contains(self, value, env):
        return True

    def enumerate(self, env, sweep):
        return range(-sweep, sweep + 1)

    def describe(self):
        return "Z"


class NonzeroIntegers(ParamDomain):
    def contains(self, value, env):
        return value != 0

    def enumerate(self, env, sweep):
        return [v for v in range(-sweep, sweep + 1) if v]

    def describe(self):
        return "Z\\{0}"


class DivisorSet(ParamDomain):
    """z with z**k dividing the value of `of` (an expression over earlier
    parameters).  D_k(0) is all nonzero integers."""

    def __init__(self, k: int, of: Expr):
        if k < 1:
            raise ValueError("k must be >= 1; use AllIntegers for D_0")
        self.k = k
        self.of = of

    def contains(self, value, env):
        return in_divisor_set(value, self.of.eval(env), self.k)

    def enumerate(self, env, sweep):
        m = self.of.eval(env)
        if m == 0:
            return [v for v in range(-sweep, sweep + 1) if v]
        return [v for v in divisors_k(m, self.k) if abs(v) <= sweep]

    def describe(self):
        return f"D_{self.k}({self.of})"


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

class Family:
    """Base interface: a parametrized subset of Z^n."""

    variables: list[str]
    exact_box: bool
    note: str

    def enumerate_box(self, box: Box) -> set[tuple[int, ...]]:
        """The family's points in the box, listed from its own
        parametrization."""
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


@dataclass
class SolutionFamily(Family):
    """Expression-based family: one integer expression per variable, with
    ordered parameter domains (divisor domains may reference earlier params).

    `witness` maps a concrete solution tuple to a parameter assignment
    regenerating it; its presence justifies exact box enumeration
    (`exact_box`), because the parameters of box solutions are bounded.
    `param_bound` maps the box, as {variable: bound}, to a bound per
    parameter that its witness value at every box solution keeps, divisor
    parameters included; without it every parameter sweeps to the largest
    bound of the box.  A sweep lists each parameter's domain members up to
    its bound and drops an assignment at its first coordinate outside the
    box.  The divisor families, whose parameters need not be small at a box
    solution, list their box through `box_enumerator(B)` instead, B the
    largest bound: it evaluates the expressions at the witnesses of
    candidate points (see `twomon.divisor_family`).  Either way every listed
    point is a value of the expressions: evaluated by `Expr.eval` in a
    parameter sweep, by one kernel generated per listing for
    `box_enumerator`.
    """

    variables: list[str]
    params: list[tuple[str, ParamDomain]]
    exprs: dict[str, Expr]
    witness: Optional[Callable[[tuple[int, ...]], Optional[dict[str, int]]]] = None
    param_bound: Optional[Callable[[dict[str, int]], dict[str, int]]] = None
    exact_box: bool = False
    note: str = ""
    box_enumerator: Optional[Callable[[int], set]] = None

    def evaluate(self, assignment: dict[str, int]) -> tuple[int, ...]:
        env: dict[str, int] = {}
        for name, domain in self.params:
            if name not in assignment:
                raise DomainError(f"missing parameter {name}")
            value = assignment[name]
            if not domain.contains(value, env):
                raise DomainError(
                    f"{name}={value} outside domain {domain.describe()}")
            env[name] = value
        return tuple(self.exprs[v].eval(env) for v in self.variables)

    def enumerate_box(self, box):
        bounds = box_bounds(box, self.variables)
        top = max(bounds, default=0)
        if self.box_enumerator is not None:
            return {t for t in self.box_enumerator(top) if in_box(t, bounds)}
        names = [name for name, _ in self.params]
        limits = (self.param_bound(dict(zip(self.variables, bounds)))
                  if self.param_bound else dict.fromkeys(names, top))
        exprs = [self.exprs[v] for v in self.variables]
        out: set[tuple[int, ...]] = set()
        assignments = [{}]
        for name, domain in self.params:
            assignments = _extended(assignments, name, domain, limits[name])
        for env in assignments:
            # a coordinate outside the box ends the point, as one that
            # raises does
            tup = []
            try:
                for e, b in zip(exprs, bounds):
                    tup.append(e.eval(env))
                    if abs(tup[-1]) > b:
                        break
                else:
                    out.add(tuple(tup))
            except ExactDivisionError:
                continue
        return out

    def describe(self):
        return {
            "params": [{"name": n, "domain": d.describe()} for n, d in self.params],
            "exprs": {v: str(self.exprs[v]) for v in self.variables},
            "kind": "parametric",
            "note": self.note,
        }


def _extended(assignments, name: str, domain: ParamDomain, limit: int):
    """Each assignment extended by every value of the parameter `name` in
    its domain up to the limit, lazily; the domain reads the assignment."""
    return ({**env, name: value} for env in assignments
            for value in domain.enumerate(env, limit))


def pinned_family(variables: list[str], fixed: dict[str, int], note: str,
                  pname: Callable[[str], str]) -> SolutionFamily:
    """The points whose coordinates in `fixed` take their given values; every
    other coordinate v is the parameter pname(v) over Z.  The witness checks
    the fixed coordinates."""
    free = [v for v in variables if v not in fixed]

    def witness(solution):
        point = dict(zip(variables, solution))
        if any(point[v] != x for v, x in fixed.items()):
            return None
        return {pname(v): point[v] for v in free}

    return SolutionFamily(
        variables=list(variables),
        params=[(pname(v), AllIntegers()) for v in free],
        exprs={v: const(fixed[v]) if v in fixed else param(pname(v))
               for v in variables},
        witness=witness, exact_box=True, note=note)


@dataclass
class RecurrenceFamily(Family):
    """Orbit of seed tuples under a unimodular 2x2 integer matrix of trace
    at least 2 in absolute value; the family parameter indexes recurrence
    steps (negative steps use the inverse)."""

    variables: list[str]
    seeds: list[tuple[int, ...]]
    matrix: tuple[tuple[int, ...], ...]
    exact_box: bool = True
    note: str = ""

    def __post_init__(self):
        (a, b), (c, d) = self.matrix
        if a * d - b * c not in (1, -1) or abs(a + d) < 2:
            raise ValueError("need determinant +-1 and |trace| >= 2, which "
                             "the stopping rule of enumerate_box rests on")

    def _apply(self, mat, vec):
        return tuple(sum(row[j] * vec[j] for j in range(len(vec))) for row in mat)

    def inverse_matrix(self):
        (a, b), (c, d) = self.matrix
        det = a * d - b * c
        return ((d * det, -b * det), (-c * det, a * det))

    def step(self, vec: tuple[int, ...], k: int = 1) -> tuple[int, ...]:
        mat = self.matrix if k >= 0 else self.inverse_matrix()
        for _ in range(abs(k)):
            vec = self._apply(mat, vec)
        return vec

    def enumerate_box(self, box):
        """Walk each orbit both ways from its seed until some coordinate
        has |x_k| > its bound and |x_k| >= |x_{k-1}|.

        Why that stop is exact: for the matrix M, Cayley-Hamilton gives
        M^2 = tr*M - det*I, so every coordinate of the orbit M^k * seed
        obeys x_{k+1} = tr*x_k - det*x_{k-1}.  With |tr| >= 2 and
        det = +-1, |x_k| >= |x_{k-1}| gives
        |x_{k+1}| >= 2|x_k| - |x_{k-1}| >= |x_k|, and by induction the
        coordinate never shrinks again: it never comes back within its bound,
        so the orbit never comes back into the box.  The inverse matrix has
        trace tr/det and determinant 1/det, so the backward walk obeys the
        same rule.  A walk that returns to its
        seed has listed a periodic orbit: the zero seed, or |tr| = 2 with M
        fixing the seed up to sign."""
        bounds = box_bounds(box, self.variables)
        out: set[tuple[int, ...]] = set()
        for seed in self.seeds:
            for direction in (1, -1):
                prev, vec = None, seed
                while True:
                    if in_box(vec, bounds):
                        out.add(vec)
                    elif prev is not None and any(
                            abs(x) > b and abs(x) >= abs(p)
                            for x, p, b in zip(vec, prev, bounds)):
                        break
                    prev, vec = vec, self.step(vec, direction)
                    if vec == seed:
                        break
        return out

    def witness(self, solution: tuple[int, ...]) -> Optional[int]:
        """Number of steps from a seed to the solution, via descent."""
        for k in range(0, 64):
            for direction in (1, -1):
                if self.step(solution, -direction * k) in self.seeds:
                    return direction * k
        return None

    def describe(self):
        return {
            "kind": "recurrence",
            "seeds": [list(map(str, s)) for s in self.seeds],
            "matrix": [list(map(str, row)) for row in self.matrix],
            "note": self.note,
        }


@dataclass
class MappedFamily(Family):
    """Solutions of an inner set pushed through a lift map (back-substitution
    of reduced, grouped or embedded equations).  `lift(points, B)` lists the
    images of a batch of inner points that may lie in the cube of bound B; a
    listing makes one call with every inner point it lists.  Box enumeration
    lists the inner set at the box `inner_bound(B)`, B the largest bound of
    the box, from its own families and lifts, which is complete whenever the
    lift cannot shrink coordinates below the box.  Like every family, it
    lists its box points from its own parametrization and never from the
    oracle, so that `verify` stays an independent check."""

    variables: list[str]
    inner: "SolutionSet"
    lift: Callable[[list[tuple[int, ...]], int], Iterable[tuple[int, ...]]]
    inner_bound: Callable[[int], Box] = staticmethod(lambda b: b)
    exact_box: bool = True
    note: str = ""

    def enumerate_box(self, box):
        bounds = box_bounds(box, self.variables)
        top = max(bounds, default=0)
        inner_pts, _ = self.inner.enumerate_box(self.inner_bound(top))
        return {p for p in self.lift(inner_pts, top) if in_box(p, bounds)}

    def describe(self):
        return {
            "kind": "mapped",
            "inner": self.inner.describe(),
            "note": self.note,
        }


# ---------------------------------------------------------------------------
# Solution sets
# ---------------------------------------------------------------------------

class ConstructionError(ValueError):
    """A finite tuple failed the defining equation at construction time."""


@dataclass
class SolutionSet:
    variables: list[str]
    finite: set[tuple[int, ...]] = field(default_factory=set)
    families: list[Family] = field(default_factory=list)
    status: Status = COMPLETE
    provenance: list[str] = field(default_factory=list)
    equation: Optional[Polynomial] = None

    def __post_init__(self):
        if self.equation is not None:
            for tup in self.finite:
                self._check(tup)

    def _check(self, tup: tuple[int, ...]):
        point = dict(zip(self.variables, tup))
        if self.equation.evaluate(point) != 0:
            raise ConstructionError(f"{tup} does not satisfy the equation")

    def add_finite(self, tup: tuple[int, ...]):
        if self.equation is not None:
            self._check(tup)
        self.finite.add(tup)

    def union(self, other: "SolutionSet") -> "SolutionSet":
        if self.variables != other.variables:
            raise ValueError("variable order mismatch")
        return SolutionSet(
            self.variables,
            set(self.finite) | set(other.finite),
            self.families + other.families,
            self.status.combine(other.status),
            sorted(set(self.provenance) | set(other.provenance)),
            self.equation or other.equation,
        )

    def enumerate_box(self, box: Box) -> tuple[list[tuple[int, ...]], bool]:
        """All produced tuples in the box, sorted, plus a flag: True when
        the listing is certified complete for the box, False when any family
        does not claim an exact box listing."""
        bounds = box_bounds(box, self.variables)
        pts = {t for t in self.finite if in_box(t, bounds)}
        exact = True
        for fam in self.families:
            if not fam.exact_box:
                exact = False
            pts |= fam.enumerate_box(bounds)
        return sorted(pts), exact

    def is_empty_claim(self) -> bool:
        return not self.finite and not self.families

    def describe(self) -> dict:
        return {
            "finite": [list(map(str, t)) for t in sorted(self.finite)],
            "families": [f.describe() for f in self.families],
            "status": str(self.status),
            "citations": list(self.provenance),
        }


@dataclass
class VerificationReport:
    sound: bool
    complete_in_box: bool
    missing: list[tuple[int, ...]]
    spurious: list[tuple[int, ...]]
    heuristic: bool = False


def verify_against_oracle(solset: SolutionSet, equation: Polynomial,
                          oracle_solutions: list[tuple[int, ...]],
                          bound: int) -> VerificationReport:
    """Check a solution set against ground-truth box enumeration."""
    produced, exact = solset.enumerate_box(bound)
    truth = set(oracle_solutions)
    spurious = []
    for tup in produced:
        point = dict(zip(solset.variables, tup))
        if equation.evaluate(point) != 0:
            spurious.append(tup)
    missing = sorted(truth - set(produced))
    return VerificationReport(
        sound=not spurious,
        complete_in_box=not missing,
        missing=missing,
        spurious=sorted(spurious),
        heuristic=not exact,
    )
