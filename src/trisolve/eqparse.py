"""Parse textual polynomial equations into exact multivariate form, and
canonicalize three-monomial instances.

Grammar (no parentheses, '*' optional, '^' binds tighter than unary minus):

    equation := poly "=" poly | poly
    poly     := ["+"|"-"] term (("+"|"-") term)*
    term     := factor ("*"? factor)*
    factor   := integer | var ("^" uint)?

Variable names match [a-z][a-z0-9_]*.  Variable order is first-appearance
order and every downstream exponent vector uses it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotATrinomial(ValueError):
    """Raised by canonicalize when the polynomial has != 3 monomials."""

    def __init__(self, count: int):
        super().__init__(f"expected exactly 3 monomials, found {count}")
        self.count = count


@dataclass(frozen=True)
class Monomial:
    """coeff * prod(var**exp); exponent-0 variables are absent from exps."""

    coeff: int
    exps: tuple[tuple[str, int], ...]  # sorted by variable name

    def __post_init__(self):
        if self.coeff == 0:
            raise ValueError("zero coefficient")
        if any(e <= 0 for _, e in self.exps):
            raise ValueError("exponents must be positive in the map")

    @staticmethod
    def make(coeff: int, exps: dict[str, int]) -> "Monomial":
        return Monomial(coeff, tuple(sorted((v, e) for v, e in exps.items() if e)))

    def exp_map(self) -> dict[str, int]:
        return dict(self.exps)

    def exp_of(self, var: str) -> int:
        return self.exp_map().get(var, 0)

    def variables(self) -> set[str]:
        return {v for v, _ in self.exps}

    def mul(self, other: "Monomial") -> "Monomial":
        exps = self.exp_map()
        for v, e in other.exps:
            exps[v] = exps.get(v, 0) + e
        return Monomial.make(self.coeff * other.coeff, exps)

    def evaluate(self, point: dict[str, int]) -> int:
        val = self.coeff
        for v, e in self.exps:
            val *= point[v] ** e
        return val


@dataclass
class Polynomial:
    """Merged monomial list with a deterministic variable order."""

    monomials: list[Monomial]
    variables: list[str] = field(default_factory=list)

    def evaluate(self, point: dict[str, int]) -> int:
        return sum(m.evaluate(point) for m in self.monomials)

    def degree_in(self, var: str) -> int:
        return max((m.exp_of(var) for m in self.monomials), default=0)

    def coefficients(self, var: str) -> list[int]:
        """[c_0, ..., c_d] with P = sum(c_k * var**k), for P in var alone."""
        coeffs = [0] * (self.degree_in(var) + 1)
        for m in self.monomials:
            coeffs[m.exp_of(var)] += m.coeff
        return coeffs

    def substitute_zero(self, zero_vars: set[str]) -> "Polynomial":
        """Drop monomials containing any of zero_vars (i.e. set them to 0)."""
        kept = [m for m in self.monomials if not (m.variables() & zero_vars)]
        new_vars = [v for v in self.variables if v not in zero_vars]
        return Polynomial(kept, new_vars)


def _merge(monomials: list[Monomial]) -> list[Monomial]:
    acc: dict[tuple, int] = {}
    for m in monomials:
        acc[m.exps] = acc.get(m.exps, 0) + m.coeff
    return [Monomial(c, e) for e, c in acc.items() if c != 0]


class _RawMono:
    """Parser-internal monomial that tolerates a zero coefficient."""

    __slots__ = ("coeff", "exps")

    def __init__(self, coeff: int, exps: dict[str, int] | None = None):
        self.coeff = coeff
        self.exps = exps or {}

    def mul(self, other: "_RawMono") -> "_RawMono":
        exps = dict(self.exps)
        for v, e in other.exps.items():
            exps[v] = exps.get(v, 0) + e
        return _RawMono(self.coeff * other.coeff, exps)


_TOKEN = re.compile(r"\s*(?:(\d+)|([a-z][a-z0-9_]*)|(\^)|(\*)|(\+)|(-)|(=))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            where = pos + len(text[pos:]) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", where)
        pos = m.end()
        num, var, caret, star, plus, minus, eq = m.groups()
        if num:
            tokens.append(("int", num, m.start()))
        elif var:
            tokens.append(("var", var, m.start()))
        elif caret:
            tokens.append(("^", "^", m.start()))
        elif star:
            tokens.append(("*", "*", m.start()))
        elif plus:
            tokens.append(("+", "+", m.start()))
        elif minus:
            tokens.append(("-", "-", m.start()))
        elif eq:
            tokens.append(("=", "=", m.start()))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.var_order: list[str] = []

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else ("eof", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def parse_equation(self) -> Polynomial:
        lhs = self.parse_poly()
        kind, _, pos = self.peek()
        if kind == "=":
            self.next()
            rhs = self.parse_poly()
            kind, _, pos = self.peek()
            if kind != "eof":
                raise ParseError("trailing input", pos)
            monos = lhs + [_RawMono(-m.coeff, m.exps) for m in rhs]
        elif kind == "eof":
            monos = lhs
        else:
            raise ParseError(f"unexpected token {kind!r}", pos)
        kept = [Monomial.make(m.coeff, m.exps) for m in monos if m.coeff != 0]
        return Polynomial(_merge(kept), self.var_order)

    def parse_poly(self) -> list[_RawMono]:
        out = []
        sign = 1
        kind, _, _ = self.peek()
        if kind in ("+", "-"):
            sign = -1 if kind == "-" else 1
            self.next()
        out.append(self.parse_term(sign))
        while True:
            kind, _, _ = self.peek()
            if kind not in ("+", "-"):
                break
            self.next()
            out.append(self.parse_term(-1 if kind == "-" else 1))
        return out

    def parse_term(self, sign: int) -> _RawMono:
        mono = self.parse_factor()
        while True:
            kind, _, _ = self.peek()
            if kind == "*":
                self.next()
                mono = mono.mul(self.parse_factor())
            elif kind in ("int", "var"):
                mono = mono.mul(self.parse_factor())
            else:
                break
        return _RawMono(sign * mono.coeff, mono.exps)

    def parse_factor(self) -> _RawMono:
        kind, value, pos = self.next()
        if kind == "int":
            return _RawMono(int(value))
        if kind == "var":
            if value not in self.var_order:
                self.var_order.append(value)
            exp = 1
            if self.peek()[0] == "^":
                self.next()
                ekind, evalue, epos = self.next()
                if ekind != "int":
                    raise ParseError("expected integer exponent after '^'", epos)
                exp = int(evalue)
            if exp == 0:
                return _RawMono(1)
            return _RawMono(1, {value: exp})
        raise ParseError(f"expected integer or variable, found {kind!r}", pos)


def parse_equation(text: str) -> Polynomial:
    """Parse an equation (or bare polynomial, read as '= 0') exactly."""
    if not text.strip():
        raise ParseError("empty input", 0)
    return _Parser(text).parse_equation()


# ---------------------------------------------------------------------------
# Printing (canonical, round-trips through the parser)
# ---------------------------------------------------------------------------

def monomial_to_string(m: Monomial, variables: list[str]) -> str:
    order = {v: i for i, v in enumerate(variables)}
    parts = []
    for v, e in sorted(m.exps, key=lambda ve: order.get(ve[0], len(order))):
        parts.append(v if e == 1 else f"{v}^{e}")
    if not parts:
        return str(m.coeff)
    body = "*".join(parts)
    if m.coeff == 1:
        return body
    if m.coeff == -1:
        return f"-{body}"
    return f"{m.coeff}*{body}"


def poly_to_string(poly: Polynomial) -> str:
    if not poly.monomials:
        return "0"
    order = {v: i for i, v in enumerate(poly.variables)}

    def key(m: Monomial):
        vec = tuple(-m.exp_of(v) for v in poly.variables)
        return vec

    out = ""
    for m in sorted(poly.monomials, key=key):
        s = monomial_to_string(m, poly.variables)
        if not out:
            out = s
        elif s.startswith("-"):
            out += "-" + s[1:]
        else:
            out += "+" + s
    return out


# ---------------------------------------------------------------------------
# Canonical trinomial form
# ---------------------------------------------------------------------------

@dataclass
class TrinomialEquation:
    """A three-monomial equation sum(coeff_i * prod(x**row_i)) = 0 with the
    common monomial factor cancelled (per-variable minimum exponent is 0).

    `cancelled` holds the exponent map of the removed common factor so that
    trivial solutions of the original equation can be reattached.
    """

    variables: list[str]
    coeffs: tuple[int, int, int]
    rows: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    cancelled: dict[str, int] = field(default_factory=dict)

    def monomials(self) -> list[Monomial]:
        return [
            Monomial.make(c, {v: e for v, e in zip(self.variables, row) if e})
            for c, row in zip(self.coeffs, self.rows)
        ]

    def polynomial(self) -> Polynomial:
        return Polynomial(self.monomials(), list(self.variables))

    def full_polynomial(self) -> Polynomial:
        """The pre-cancellation equation (common factor multiplied back)."""
        factor = Monomial.make(1, self.cancelled)
        monos = [m.mul(factor) for m in self.monomials()]
        return Polynomial(_merge(monos), list(self.variables))

    def __str__(self) -> str:
        return poly_to_string(self.polynomial()) + "=0"


def canonicalize(poly: Polynomial) -> TrinomialEquation:
    """Canonical exponent-matrix form of a three-monomial polynomial.

    Cancels the common monomial gcd (recording it), orders the monomials by
    descending exponent vector, and normalizes the overall sign so the first
    monomial's coefficient is positive.  Integer content of the coefficients
    is kept.
    """
    monos = _merge(poly.monomials)
    if len(monos) != 3:
        raise NotATrinomial(len(monos))
    variables = [v for v in poly.variables
                 if any(m.exp_of(v) for m in monos)]
    cancelled = {}
    for v in variables:
        low = min(m.exp_of(v) for m in monos)
        if low > 0:
            cancelled[v] = low
    reduced = []
    for m in monos:
        exps = {v: e - cancelled.get(v, 0) for v, e in m.exps}
        reduced.append(Monomial.make(m.coeff, exps))
    variables = [v for v in variables
                 if any(m.exp_of(v) for m in reduced)]
    reduced.sort(key=lambda m: tuple(-m.exp_of(v) for v in variables))
    if reduced[0].coeff < 0:
        reduced = [Monomial(-m.coeff, m.exps) for m in reduced]
    rows = tuple(tuple(m.exp_of(v) for v in variables) for m in reduced)
    coeffs = tuple(m.coeff for m in reduced)
    return TrinomialEquation(variables, coeffs, rows, cancelled)


def parse_trinomial(text: str) -> TrinomialEquation:
    return canonicalize(parse_equation(text))
