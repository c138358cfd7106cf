"""Tiny exact integer expression trees for parametric solution families.

Supports polynomials in named parameters plus exact division and gcd, which
is all the solution formats need.  Evaluation is exact; a non-exact division
signals a malformed family and raises.

`eval` walks the tree on every call; a parameter sweep evaluates a family's
expressions with it.  A divisor family's candidate sweep instead runs one
function that `listing_kernel` generates per listing with a candidate: it
computes each distinct subtree once per candidate and skips the candidates
where `eval` raises.
"""

from __future__ import annotations

from math import gcd as _gcd
from typing import Callable, Iterable

Points = Iterable[tuple[int, ...]]


class ExactDivisionError(ArithmeticError):
    pass


class Expr:
    def eval(self, env: dict[str, int]) -> int:
        raise NotImplementedError

    def __str__(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"Expr({self})"


class Const(Expr):
    def __init__(self, value: int):
        self.value = int(value)

    def eval(self, env):
        return self.value

    def __str__(self):
        return str(self.value)


class Param(Expr):
    def __init__(self, name: str):
        self.name = name

    def eval(self, env):
        return env[self.name]

    def __str__(self):
        return self.name


class Add(Expr):
    def __init__(self, *items: Expr):
        self.items = items

    def eval(self, env):
        out = 0
        for it in self.items:
            out += it.eval(env)
        return out

    def __str__(self):
        parts = [str(it) for it in self.items]
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return f"({out})"


class Mul(Expr):
    def __init__(self, *items: Expr):
        self.items = items

    def eval(self, env):
        out = 1
        for it in self.items:
            out *= it.eval(env)
        return out

    def __str__(self):
        return "*".join(str(it) for it in self.items)


class Pow(Expr):
    def __init__(self, base: Expr, exp: int):
        if exp < 0:
            raise ValueError("negative exponent; use ExactDiv")
        self.base = base
        self.exp = exp

    def eval(self, env):
        return self.base.eval(env) ** self.exp

    def __str__(self):
        return f"{self.base}^{self.exp}"


class ExactDiv(Expr):
    def __init__(self, num: Expr, den: Expr):
        self.num = num
        self.den = den

    def eval(self, env):
        n = self.num.eval(env)
        d = self.den.eval(env)
        if d == 0 or n % d != 0:
            raise ExactDivisionError(f"{n} / {d} is not an exact integer")
        return n // d

    def __str__(self):
        return f"({self.num})/({self.den})"


class Gcd(Expr):
    def __init__(self, a: Expr, b: Expr):
        self.a = a
        self.b = b

    def eval(self, env):
        return _gcd(self.a.eval(env), self.b.eval(env))

    def __str__(self):
        return f"gcd({self.a},{self.b})"


def _split_constants(items, unit: int, combine, build) -> tuple[int, list]:
    """The items of one value at every env folded into one value from
    `unit`, and the other items built in order."""
    c, built = unit, []
    for it in items:
        value = _fixed_value(it)
        if value is None:
            built.append(build(it))
        else:
            c = combine(c, value)
    return c, built


def _fixed_value(expr: Expr) -> int | None:
    """The value of a constant, or 1 for a zeroth power whose base cannot
    raise; None for any other expression."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Pow) and expr.exp == 0 and _division_free(expr.base):
        return 1
    return None


def _division_free(expr: Expr) -> bool:
    """True when evaluating expr cannot raise ExactDivisionError."""
    if isinstance(expr, (Add, Mul)):
        return all(map(_division_free, expr.items))
    if isinstance(expr, Pow):
        return _division_free(expr.base)
    if isinstance(expr, Gcd):
        return _division_free(expr.a) and _division_free(expr.b)
    return not isinstance(expr, ExactDiv)


class _KernelBody:
    """The statements of a listing kernel's loop body.  `atoms` maps each
    parameter and let name to its local; `temps` maps the code of each node
    computed so far to the local holding it.  `emit` recurses as a method,
    where a nested function would hold itself in a reference cycle."""

    def __init__(self, atoms: dict[str, str], lines: list[str]):
        self.atoms = atoms
        self.temps: dict[str, str] = {}
        self.lines = lines

    def emit(self, expr: Expr) -> str:
        """Append the statements computing expr; its atom (local or
        literal)."""
        if isinstance(expr, Const):
            return f"({expr.value})" if expr.value < 0 else str(expr.value)
        if isinstance(expr, Param):
            return self.atoms[expr.name]
        if isinstance(expr, (Add, Mul)):
            add = isinstance(expr, Add)
            unit = 0 if add else 1
            c, parts = _split_constants(
                expr.items, unit, int.__add__ if add else int.__mul__,
                self.emit)
            if c != unit or not parts:
                parts.append(self.emit(Const(c)))
            if len(parts) == 1:
                return parts[0]
            code = (" + " if add else " * ").join(parts)
        elif isinstance(expr, Pow):
            if expr.exp == 0:  # a base that may raise is still computed
                if not _division_free(expr.base):
                    self.emit(expr.base)
                return "1"
            base = self.emit(expr.base)
            if expr.exp == 1:
                return base
            code = f"{base} ** {expr.exp}"
        elif isinstance(expr, ExactDiv):
            n, d = self.emit(expr.num), self.emit(expr.den)
            code = f"{n} // {d}"
            if code not in self.temps:
                self.lines.append(f"if not {d} or {n} % {d}: continue")
        else:
            code = f"gcd({self.emit(expr.a)}, {self.emit(expr.b)})"
        if code not in self.temps:
            self.temps[code] = f"t{len(self.temps)}"
            self.lines.append(f"{self.temps[code]} = {code}")
        return self.temps[code]


def listing_kernel(params: list[str], lets: dict[str, Expr],
                   exprs: list[Expr], nonzero: list[int]
                   ) -> Callable[[Points], set[tuple[int, ...]]]:
    """A function from candidate tuples to the set of tuples of `exprs` at
    them, through a generator whose code is generated per call.  Each
    candidate binds `params` by position; one with a zero at a `nonzero`
    position is skipped; then each let name is bound to the value of its
    expression.  A candidate where `eval` of a let or of an expression would
    raise ExactDivisionError is skipped too.  Each distinct subtree is
    computed once per candidate.  Constants fold: x**0 is 1 only when its
    base has no division (otherwise the base is still computed), x**1 is x,
    and the constants of a sum or product fold into one, dropped when it is
    the unit (0 in a sum, 1 in a product)."""
    atoms = {name: f"p{i}" for i, name in enumerate(params)}
    body = _KernelBody(atoms, [
        f"if not ({' and '.join(atoms[params[i]] for i in nonzero)}):"
        " continue"] if nonzero else [])
    for name, expr in lets.items():
        atoms[name] = body.emit(expr)
    coords = [body.emit(expr) for expr in exprs]
    source = "\n".join([
        "def kernel(points):",
        f"    for ({''.join(atoms[p] + ', ' for p in params)}) in points:",
        *(f"        {line}" for line in body.lines),
        f"        yield ({''.join(c + ', ' for c in coords)})"])
    namespace = {"gcd": _gcd}
    exec(source, namespace)
    kernel = namespace.pop("kernel")  # no cycle through its globals
    return lambda points: set(kernel(points))


def const(v: int) -> Const:
    return Const(v)


def param(name: str) -> Param:
    return Param(name)


def monomial_expr(coeff: int, powers: list[tuple[str, int]]) -> Expr:
    """coeff * prod(param**exp) with trivial simplifications."""
    items: list[Expr] = []
    if coeff != 1 or not powers:
        items.append(Const(coeff))
    for name, e in powers:
        if e == 1:
            items.append(Param(name))
        elif e > 0:
            items.append(Pow(Param(name), e))
    if len(items) == 1:
        return items[0]
    return Mul(*items)
