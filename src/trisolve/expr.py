"""Tiny exact integer expression trees for parametric solution families.

Supports polynomials in named parameters plus exact division and gcd, which
is all the solution formats need.  Evaluation is exact; a non-exact division
signals a malformed family and raises.

`eval` walks the tree on every call.  `compile` walks it once and returns a
closure env -> int with the same value, raising on the same envs; a
parameter sweep compiles a family's expressions once per listing, from the
tree as it stands then.  A divisor family's candidate sweep instead runs one
function that `listing_kernel` generates per listing: it computes each
distinct subtree once per candidate and skips the candidates where `eval`
raises.
"""

from __future__ import annotations

from math import gcd as _gcd
from operator import itemgetter, methodcaller
from typing import Callable, Iterable

Compiled = Callable[[dict[str, int]], int]
Points = Iterable[tuple[int, ...]]


class ExactDivisionError(ArithmeticError):
    pass


class Expr:
    def eval(self, env: dict[str, int]) -> int:
        raise NotImplementedError

    def compile(self) -> Compiled:
        """A closure equal to `eval`: same value, and ExactDivisionError on
        exactly the envs where `eval` raises it."""
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

    def compile(self):
        value = self.value
        return lambda env: value

    def __str__(self):
        return str(self.value)


class Param(Expr):
    def __init__(self, name: str):
        self.name = name

    def eval(self, env):
        return env[self.name]

    def compile(self):
        return itemgetter(self.name)

    def __str__(self):
        return self.name


class Add(Expr):
    def __init__(self, *items: Expr):
        self.items = items

    def eval(self, env):
        return sum(it.eval(env) for it in self.items)

    def compile(self):
        c, fns = _split_constants(self.items, 0, int.__add__)
        if not fns:
            return Const(c).compile()
        if len(fns) == 1:
            f, = fns
            return f if c == 0 else lambda env: f(env) + c
        if len(fns) == 2:
            f, g = fns
            return lambda env: f(env) + g(env) + c

        def add(env):
            total = c
            for f in fns:
                total += f(env)
            return total
        return add

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

    def compile(self):
        # a zero constant factor does not skip the other factors: they may
        # raise, as they do under eval
        c, fns = _split_constants(self.items, 1, int.__mul__)
        if not fns:
            return Const(c).compile()
        if len(fns) == 1:
            f, = fns
            return f if c == 1 else lambda env: c * f(env)
        if len(fns) == 2:
            f, g = fns
            return lambda env: c * f(env) * g(env)

        def mul(env):
            out = c
            for f in fns:
                out *= f(env)
            return out
        return mul

    def __str__(self):
        return "*".join(str(it) for it in self.items)


class Neg(Expr):
    def __init__(self, item: Expr):
        self.item = item

    def eval(self, env):
        return -self.item.eval(env)

    def compile(self):
        f = self.item.compile()
        return lambda env: -f(env)

    def __str__(self):
        return f"-{self.item}"


class Pow(Expr):
    def __init__(self, base: Expr, exp: int):
        if exp < 0:
            raise ValueError("negative exponent; use ExactDiv")
        self.base = base
        self.exp = exp

    def eval(self, env):
        return self.base.eval(env) ** self.exp

    def compile(self):
        e = self.exp
        if isinstance(self.base, Param):
            name = self.base.name
            return lambda env: env[name] ** e
        f = self.base.compile()
        return f if e == 1 else lambda env: f(env) ** e

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

    def compile(self):
        num, den = self.num.compile(), self.den.compile()

        def divide(env):
            n = num(env)
            d = den(env)
            if d == 0 or n % d != 0:
                raise ExactDivisionError(f"{n} / {d} is not an exact integer")
            return n // d
        return divide

    def __str__(self):
        return f"({self.num})/({self.den})"


class Gcd(Expr):
    def __init__(self, a: Expr, b: Expr):
        self.a = a
        self.b = b

    def eval(self, env):
        return _gcd(self.a.eval(env), self.b.eval(env))

    def compile(self):
        a, b = self.a.compile(), self.b.compile()
        return lambda env: _gcd(a(env), b(env))

    def __str__(self):
        return f"gcd({self.a},{self.b})"


def _split_constants(items, unit: int, combine, build=methodcaller("compile")
                     ) -> tuple[int, list]:
    """The items of one value at every env folded into one value from
    `unit`, and the other items built (compiled by default) in order."""
    c, fns = unit, []
    for it in items:
        value = _fixed_value(it)
        if value is None:
            fns.append(build(it))
        else:
            c = combine(c, value)
    return c, fns


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
    if isinstance(expr, Neg):
        return _division_free(expr.item)
    if isinstance(expr, Pow):
        return _division_free(expr.base)
    if isinstance(expr, Gcd):
        return _division_free(expr.a) and _division_free(expr.b)
    return not isinstance(expr, ExactDiv)


def listing_kernel(params: list[str], lets: dict[str, Expr],
                   exprs: list[Expr], nonzero: list[int]
                   ) -> Callable[[Points], set[tuple[int, ...]]]:
    """A function from candidate tuples to the set of tuples of `exprs` at
    them, through a generator whose code is generated per call.  Each
    candidate binds `params` by position; one with a zero at a `nonzero`
    position is skipped; then each let name is bound to the value of its
    expression.  A candidate where `eval` of a let or of an expression would
    raise ExactDivisionError is skipped too.  Each distinct subtree is
    computed once per candidate, and constants are folded as `compile` folds
    them."""
    atoms = {name: f"p{i}" for i, name in enumerate(params)}
    temps: dict[str, str] = {}  # code of a node -> the local holding it
    lines = [f"if not ({' and '.join(atoms[params[i]] for i in nonzero)}):"
             " continue"] if nonzero else []

    def emit(expr: Expr) -> str:
        """Append the statements computing expr; its atom (local or
        literal)."""
        if isinstance(expr, Const):
            return f"({expr.value})" if expr.value < 0 else str(expr.value)
        if isinstance(expr, Param):
            return atoms[expr.name]
        if isinstance(expr, (Add, Mul)):
            add = isinstance(expr, Add)
            unit = 0 if add else 1
            c, parts = _split_constants(
                expr.items, unit, int.__add__ if add else int.__mul__, emit)
            if c != unit or not parts:
                parts.append(emit(Const(c)))
            if len(parts) == 1:
                return parts[0]
            code = (" + " if add else " * ").join(parts)
        elif isinstance(expr, Neg):
            code = f"-{emit(expr.item)}"
        elif isinstance(expr, Pow):
            if expr.exp == 0:  # a base that may raise is still computed
                if not _division_free(expr.base):
                    emit(expr.base)
                return "1"
            base = emit(expr.base)
            if expr.exp == 1:
                return base
            code = f"{base} ** {expr.exp}"
        elif isinstance(expr, ExactDiv):
            n, d = emit(expr.num), emit(expr.den)
            code = f"{n} // {d}"
            if code not in temps:
                lines.append(f"if not {d} or {n} % {d}: continue")
        else:
            code = f"gcd({emit(expr.a)}, {emit(expr.b)})"
        if code not in temps:
            temps[code] = f"t{len(temps)}"
            lines.append(f"{temps[code]} = {code}")
        return temps[code]

    for name, expr in lets.items():
        atoms[name] = emit(expr)
    coords = [emit(expr) for expr in exprs]
    source = "\n".join([
        "def kernel(points):",
        f"    for ({''.join(atoms[p] + ', ' for p in params)}) in points:",
        *(f"        {line}" for line in lines),
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
