"""Published reference data used by the repro subcommands and the acceptance
suite: the x^4+axy+y^3 solution table, the quartic/quintic unit-coefficient
table, the cubic/quartic family classification tables, and the random
-equation proportions."""

import re

from .eqparse import parse_equation

# Nontrivial solutions of x^4 + a*x*y + y^3 = 0 for 1 <= a <= 100 (rows with
# no nontrivial solutions are omitted).
TABLE1 = {
    2: {(-1, 1), (2, -2)},
    6: {(-6, -12), (-2, -4), (-2, 2), (3, -3)},
    8: {(-4, -8)},
    10: {(-2, 4), (10, -20)},
    12: {(-3, 3), (4, -4)},
    20: {(-4, 4), (5, -5)},
    24: {(-24, -72), (-4, 8), (-3, -9), (12, -24)},
    30: {(-5, 5), (-3, 9), (6, -6), (30, -90)},
    31: {(-62, -248), (-2, -8), (4, -2)},
    33: {(-4, 2), (-2, 8), (66, -264)},
    35: {(20, -50)},
    42: {(-21, -63), (-6, -18), (-6, 6), (-6, 12), (7, -7), (14, -28)},
    54: {(-18, -54), (-9, -27)},
    56: {(-7, 7), (8, -8)},
    60: {(-60, -240), (-15, -45), (-12, -36), (-4, -16)},
    64: {(-8, 16), (16, -32)},
    66: {(-6, 18), (33, -99)},
    68: {(-4, 16), (68, -272)},
    69: {(12, -18)},
    72: {(-8, 8), (9, -9)},
    87: {(-58, -232), (-6, -24)},
    88: {(396, -2904)},
    90: {(-10, 20), (-9, 9), (10, -10), (18, -36)},
}

# Quartic and quintic equations x^n + x^k y^l + y^m = 0 with nl + mk <= mn.
# Values: None (only the trivial solution) or a parametric family
# (x(w), y(w)) as coefficient tuples of powers of w.
TABLE2 = {
    "x^4+x*y+y^2": None,
    "x^4+x*y+y^3": None,
    "x^4+x*y+y^4": None,
    "x^4+x*y^2+y^3": ("-w^2*(1+w)", "-w^3*(1+w)"),
    "x^4+x^2*y+y^2": None,
    "x^4+x^2*y+y^3": ("-w-w^3", "-w^2*(1+w^2)"),
    "x^4+x^2*y+y^4": None,
    "x^4+x^2*y^2+y^4": None,
    "x^4+x^3*y+y^4": None,
    "x^5+x*y+y^2": None,
    "x^5+x*y+y^3": None,
    "x^5+x*y+y^4": None,
    "x^5+x*y+y^5": None,
    "x^5+x*y^2+y^3": ("-w-w^3", "w*(1+w^2)^2"),
    "x^5+x*y^2+y^4": None,
    "x^5+x*y^3+y^4": ("-w^3*(1+w)", "-w^4*(1+w)"),
    "x^5+x^2*y+y^2": ("-w-w^2", "w^3*(1+w)^2"),
    "x^5+x^2*y+y^3": None,
    "x^5+x^2*y+y^4": None,
    "x^5+x^2*y+y^5": None,
    "x^5+x^2*y^2+y^4": ("-w^2*(1+w^2)", "-w^3*(1+w^2)"),
    "x^5+x^2*y^2+y^5": None,
    "x^5+x^3*y+y^3": ("w*(1+w)^2", "-w^2*(1+w)^3"),
    "x^5+x^3*y+y^4": ("-w-w^4", "-w^2*(1+w^3)"),
    "x^5+x^3*y+y^5": None,
    "x^5+x^3*y^2+y^5": None,
    "x^5+x^4*y+y^5": None,
}


def table2_family(x_formula: str, y_formula: str):
    """Evaluate a Table-2 family at integer w (formulas are simple products
    of a power of w and a bracket polynomial)."""
    def make(formula):
        m = re.fullmatch(
            r"(-?)w(?:\^(\d+))?\*\(1([+-])w(?:\^(\d+))?\)(?:\^(\d+))?",
            formula)
        if m:
            sign = -1 if m.group(1) == "-" else 1
            p = int(m.group(2) or 1)
            inner_sign = 1 if m.group(3) == "+" else -1
            q = int(m.group(4) or 1)
            r = int(m.group(5) or 1)
            return lambda w: sign * w**p * (1 + inner_sign * w**q) ** r
        m = re.fullmatch(r"-w(?:\^(\d+))?-w(?:\^(\d+))?", formula)
        if m:
            p = int(m.group(1) or 1)
            q = int(m.group(2) or 1)
            return lambda w: -(w**p) - w**q
        raise ValueError(f"unparsed fixture formula {formula}")

    return make(x_formula), make(y_formula)


# Cubic families solvable by the sufficient condition, with a solution of the
# exponent system for the orientation as written (a*M1 + b*M2 = c*M3).
# Entries: (equation string with '=', z-vector over first-appearance vars).
TABLE3 = [
    ("a*x^2*y+b*y=c*z^2", (0, 1, 1)),
    ("a*x+b*z^2=c*x^2*y", (0, 1, 0)),
    ("a*x^3+b*y=c*y*z", (0, 0, 1)),
    ("a*t*x+b*t*y=c*x*y*z", (0, 0, 1, 0)),
    ("a*x^2+b*x*y*z=c*t*y", (0, 0, 0, 1)),
    ("a*x^2+b*y^2=c*x*y*z", (0, 0, 1)),
    ("a*x^2*y+b*y*z=c*t*z", (0, 0, 0, 1)),
    ("a*x^2*y+b*x*z=c*t*z", (0, 0, 0, 1)),
    ("a*t*y+b*x^2*y=c*x*z", (0, 0, 1, 0)),
    ("a*x^2*y+b*x*z=c*y*z", (0, 1, 1)),
    ("a*t^2+b*x^2*y=c*y*z", (0, 0, 1, 0)),
    ("a*t^2+b*x^2*y=c*x*z", (0, 0, 1, 0)),
    ("a*x^2*y+b*y*z=c*z^2", (1, 1, 2)),
    ("a*x^2*y+b*x*z=c*z^2", (0, 1, 1)),
    ("a*x^2*y+b*x*y=c*z^2", (0, 1, 1)),
    ("a*x^2*y+b*x*z=c*y^2", (0, 1, 1)),
    ("a*y^2+b*z^2=c*x^2*y", (1, 1, 1)),
    ("a*x^2*y+b*x^2=c*y*z", (0, 0, 1)),
    ("a*x^2+b*z^2=c*x^2*y", (0, 1, 0)),
    ("a*x^3+b*t*y=c*y*z", (0, 0, 1, 0)),
    ("a*x^3+b*x*y=c*y*z", (0, 0, 1)),
    ("a*x^3+b*x*y=c*z^2", (1, 2, 2)),
    ("a*x^3+b*y^2=c*y*z", (0, 0, 1)),
    ("a*y^2+b*z^2=c*x^3", (1, 1, 1)),
    ("a*y^2*z+b*z=c*x^3", (1, 0, 2)),
    ("a*x^3+b*y=c*y^2*z", (0, 0, 1)),
    ("a*x^2*y+b*x*z=c*t*y*z", (0, 0, 0, 1)),
    ("a*x^2*y+b*t*y*z=c*z^2", (1, 1, 2, 0)),
    ("a*x^2*y+b*t*x*z=c*y*z", (0, 1, 1, 0)),
    ("a*x^2*y+b*t*x*z=c*z^2", (0, 1, 1, 0)),
    ("a*x^2*y+b*x*y*z=c*t*z", (0, 0, 0, 1)),
    ("a*t^2+b*x^2*y=c*x*y*z", (0, 0, 1, 0)),
    ("a*x^2*y+b*z^2=c*x*y*z", (0, 2, 1)),
    ("a*x^2*y+b*y*z=c*t^2*z", (0, 1, 0, 1)),
    ("a*x^2*y+b*x*z=c*t^2*z", (1, 0, 1, 1)),
    ("a*x^2*y+b*x*z=c*t*z^2", (0, 0, 0, 1)),
    ("a*x^2*y+b*y*z^2=c*t*x", (0, 0, 0, 1)),
    ("a*x^2*y+b*y*z^2=c*t^2", (0, 1, 0, 1)),
    ("a*t*y+b*x^2*y=c*x*z^2", (0, 1, 1, 0)),
    ("a*t^2+b*x^2*y=c*x*z^2", (1, 0, 1, 1)),
    ("a*x^2*y+b*x*z^2=c*y^2", (1, 3, 2)),
    ("a*t*x+b*x^2*y=c*y^2*z", (0, 0, 1, 0)),
    ("a*x^2*y+b*x*z=c*y^2*z", (1, 1, 2)),
    ("a*t^2+b*x^2*y=c*y^2*z", (0, 0, 1, 0)),
    ("a*x^2*y+b*x^2=c*y^2*z", (0, 0, 1)),
    ("a*x^2*y+b*x*y^2=c*z^2", (1, 1, 2)),
    ("a*t*y+b*x^2*y=c*x^2*z", (0, 0, 1, 0)),
    ("a*x^2*y+b*x^2*z=c*y*z", (0, 1, 1)),
    ("a*t^2+b*x^2*y=c*x^2*z", (0, 0, 1, 0)),
    ("a*x^2*y+b*x^2*z=c*y^2", (0, 1, 1)),
    ("a*x^3+b*x*y*z=c*t*y", (0, 0, 0, 1)),
    ("a*x^3+b*x*y*z=c*y^2", (1, 2, 0)),
    ("a*x^3+b*x*y=c*y*z^2", (1, 2, 1)),
    ("a*x^3+b*t*z=c*y^2*z", (1, 1, 2, 1)),
    ("a*x^3+b*t*y=c*y^2*z", (0, 0, 1, 0)),
    ("a*x^3+b*y*z=c*y^2*z", (1, 1, 2)),
    ("a*x^3+b*x*y=c*y^2*z", (0, 0, 1)),
    ("a*x^3+b*y^2*z=c*z^2", (3, 2, 5)),
    ("a*x^3+b*y^2=c*y^2*z", (0, 0, 1)),
    ("a*x^3+b*x*y^2=c*y*z", (0, 0, 1)),
    ("a*x^3+b*x*y^2=c*z^2", (1, 1, 2)),
    ("a*x^3+b*x^2*y=c*y*z", (0, 0, 1)),
    ("a*x^3+b*x^2*y=c*z^2", (1, 1, 2)),
    ("a*x^3+b*y^3=c*x*z", (0, 0, 1)),
    ("a*x^3+b*y^3=c*z^2", (1, 1, 2)),
    ("a*x^3+b*y^3=c*x*y*z", (0, 0, 1)),
    ("a*x^2*y+b*x*y*z=c*t^2*z", (0, 1, 0, 1)),
    ("a*x^2*y+b*x*y*z=c*t*z^2", (0, 0, 0, 1)),
    ("a*x^2*y+b*y*z^2=c*t*x*z", (0, 0, 0, 1)),
    ("a*t^2*y+b*x^2*y=c*x*z^2", (0, 1, 1, 0)),
    ("a*x^2*y+b*x*z^2=c*t*y^2", (0, 0, 0, 1)),
    ("a*x^2*y+b*t*x*z=c*y^2*z", (0, 1, 0, 1)),
    ("a*x^2*y+b*x^2*z=c*t*y*z", (0, 0, 0, 1)),
    ("a*t^2*y+b*x^2*y=c*x^2*z", (0, 0, 1, 0)),
    ("a*x^2*y+b*x^2*z=c*t*y^2", (0, 0, 0, 1)),
    ("a*x^2*z+b*y^2*z=c*x^2*y", (1, 1, 0)),
    ("x^3+b*x*y*z=c*t^2*y", (1, 2, 0, 1)),
    ("a*x^3+b*x*y*z=c*t*y^2", (0, 0, 0, 1)),
    ("a*x^3+b*t*y*z=c*y^2*z", (1, 2, 0, 1)),
    ("a*x^3+b*x*y*z=c*y^2*z", (1, 2, 0)),
    ("a*t^2*z+b*y^2*z=c*x^3", (1, 1, 0, 1)),
    ("a*x^3+b*t^2*y=c*y^2*z", (0, 0, 1, 0)),
    ("a*x^3+b*y^2*z=c*t*z^2", (0, 0, 0, 1)),
    ("a*x^3+b*t*y^2=c*y^2*z", (0, 0, 1, 0)),
    ("a*x^3+b*x*y^2=c*y^2*z", (0, 0, 1)),
    ("a*x^2*y+b*y*z^2=c*x^3", (1, 0, 1)),
    ("a*x^3+b*x^2*y=c*y^2*z", (0, 0, 1)),
    ("a*x^3+b*z^3=c*x^2*y", (0, 1, 0)),
]

# Cubic families not solvable by the sufficient condition, with the shape of
# the equation they reduce to.
TABLE4 = [
    ("a*x+b*x^2*y+c*y*z^2", "u^2+v^2+C"),
    ("a*x^2*y+b*x*z+c*y*z^2", "u^2+v^2+C"),
    ("a*x^2+b*x^2*y+c*y*z^2", "u^2+v^2+C"),
    ("a*x^3+b*y^3+c*z^3", "u^3+v^3+w^3"),
    ("a*x^3+b*y^2*z+c*y*z^2", "u^3+v^3+w^3"),
    ("a*x^3+b*x*y^2+c*z^3", "u^6+v^3+w^2"),
    ("a*x^3+b*x*y^2+c*y*z^2", "u^4+v^4+w^2"),
    ("a*x^2*y+b*y^2*z+c*x*z^2", "u^3+v^3+w^3"),
]

# Quartic families not solvable by the sufficient condition.
TABLE5 = [
    ("a*x^3*y+b*z^2+c*x*y*z^2", "u^2+C"),
    ("a*x^3*y+b*x*y*z^2+c*z^3", "u^2+C"),
    ("a*y^2+b*x^2*y*z+c*z^2", "u^2+C"),
    ("a*x*y^2+b*x^2*y*z+c*z^2", "u^3+C"),
    ("a*x+b*x^2*y^2+c*z^2", "u^2+v^2+C"),
    ("a*x^2*y^2+b*x*z+c*z^2", "u^2+v^2+C"),
    ("a*x^2+b*x^2*y^2+c*z^2", "u^2+v^2+C"),
    ("a*y+b*x^2*y^2+c*x^2*z^2", "u^2+v^2+C"),
    ("a*y^2+b*x^2*y^2+c*x^2*z^2", "u^2+v^2+C"),
    ("a*x^2*y+b*x^2*y^2+c*z^2", "u^2+v^2+C"),
    ("a*x^4+b*y^2+c*y^2*z^2", "u^2+v^2+C"),
    ("a*x^4+b*y^2*z+c*y^2*z^2", "u^2+v^2+C"),
    ("a*x^4+b*x*y+c*y^2*z^2", "u^2+v^2+C"),
    ("a*x^4+b*x^2*y+c*y^2*z^2", "u^2+v^2+C"),
    ("a*x^2*y^2+b*x*z+c*t^2*z^2", "u^2+v^2+C"),
    ("a*x^3*y+b*x^2*z+c*y*z^3", "u^3+v^3+C"),
    ("a*x^2*y^2+b*y*z+c*x*z^2", "u^3+v^3+C"),
    ("a*x^3*y+b*z+c*y^2*z^2", "u^3+v^3+C"),
    ("a*x^3*y+b*x*z+c*y*z^3", "u^3+v^3+C"),
    ("a*x^2+b*x^3*y+c*y*z^3", "u^3+v^3+C"),
    ("a*x^3+b*x^3*y+c*y*z^3", "u^3+v^3+C"),
    ("a*x^2*y^2+b*y*z+c*x^2*z^2", "u^4+v^4+C"),
    ("a*x^2+b*x^2*y^2+c*y*z^2", "u^4+v^2+C"),
    ("a*x^4+b*y+c*y^2*z^2", "u^4+v^2+C"),
    ("a*x^2*y^2+b*x^2*z^2+c*y^2*z^2", "u^2+v^2+w^2"),
    ("a*x^4+b*y^2+c*z^2", "u^2+v^2+w^2"),
    ("a*x^4+b*x^2*y^2+c*z^2", "u^2+v^2+w^2"),
    ("a*x^4+b*t^2*y^2+c*y^2*z^2", "u^2+v^2+w^2"),
    ("a*t^2+b*x^2*y^2+c*x^2*z^2", "u^2+v^2+w^2"),
    ("a*t^2*y^2+b*x^2*y^2+c*x^2*z^2", "u^2+v^2+w^2"),
    ("a*x^4+b*x^2*y^2+c*y^2*z^2", "u^2+v^2+w^2"),
    ("a*x^3*y+b*t^3*z+c*y^2*z^2", "u^3+v^3+w^3"),
    ("a*x^3*y+b*y^2+c*z^3", "u^3+v^3+w^3"),
    ("a*x^3*y+b*y^2*z+c*z^2", "u^3+v^3+w^3"),
    ("a*x^3*y+b*x^3*z+c*y^2*z^2", "u^3+v^3+w^3"),
    ("a*x^2*y^2+b*t^2*y*z+c*t*x*z^2", "u^3+v^3+w^3"),
    ("a*x^3*y+b*x*y^3+c*z^2", "u^4+v^4+w^2"),
    ("a*x^4+b*y^3*z+c*y^2*z^2", "u^4+v^4+w^2"),
    ("a*x^4+b*y^4+c*z^2", "u^4+v^4+w^2"),
    ("a*x^4+b*y^2*z+c*z^2", "u^4+v^4+w^2"),
    ("a*x^3*y+b*x^2*z^2+c*y^2*z^2", "u^4+v^4+w^2"),
    ("a*x^4+b*x^2*y^2+c*z^4", "u^4+v^4+w^2"),
    ("a*x^2*y^2+b*t^2*y*z+c*x^2*z^2", "u^4+v^4+w^2"),
    ("a*x^4+b*x*y^3+c*z^2", "u^6+v^3+w^2"),
    ("a*x^4+b*x*y^3+c*y^2*z^2", "u^6+v^3+w^2"),
    ("a*x^4+b*x^2*y^2+c*y*z^3", "u^6+v^6+w^3"),
    ("a*x^4+b*y^4+c*z^4", "u^4+v^4+w^4"),
    ("a*x^4+b*x*y^2*z+c*y*z^3", "u^5+v^5+w^5"),
    ("a*x^3*y+b*y^3*z+c*x^2*z^2", "u^5+v^5+w^5"),
    ("a*x^3*y+b*y^3*z+c*x*z^3", "u^7+v^7+w^7"),
    ("a*x^4+b*y^4+c*x*y*z^2", "u^8+v^8+w^2"),
    ("a*x^4+b*y^3*z+c*y*z^3", "u^8+v^8+w^4"),
    ("a*x^4+b*x*y^3+c*y*z^3", "u^9+v^9+w^3"),
    ("a*x^4+b*x*y^3+c*z^4", "u^12+v^4+w^3"),
    ("a*x^2*y^2+b*z+c*x*z^2", "u^3v^2+w^2+C"),
    ("a*y+b*x^2*y^2+c*x*z^2", "u^3v^2+w^2+C"),
    ("a*x+b*x^2*y^2+c*z^3", "u^3v^2+w^3+C"),
    ("a*x^3*y+b*z+c*y*z^2", "u^3v^2+w^3+C"),
    ("a*x+b*x^3*y+c*y*z^2", "u^4v^3+w^2+C"),
    ("a*x+b*x^3*y+c*y^2*z^2", "u^5v^4+w^2+C"),
]

# Empirical proportions of random exponent draws satisfying the sufficient
# condition (rows: number of variables, columns: degree bound).
TABLE6_DEGREES = [10, 100, 1000, 10000, 100000]
TABLE6 = {
    3: [0.319, 0.196, 0.217, 0.205, 0.202],
    4: [0.553, 0.473, 0.469, 0.502, 0.466],
    5: [0.73, 0.676, 0.666, 0.65, 0.676],
    6: [0.854, 0.796, 0.824, 0.802, 0.823],
    7: [0.922, 0.901, 0.884, 0.882, 0.872],
    8: [0.955, 0.952, 0.937, 0.934, 0.935],
    9: [0.974, 0.967, 0.975, 0.96, 0.959],
    10: [0.987, 0.984, 0.979, 0.978, 0.979],
}


def family_rows(text: str):
    """Exponent rows of a symbolic family 'a*M1+b*M2=c*M3' (or '+c*M3'),
    over first-appearance variable order."""
    cleaned = text.replace("a*", "").replace("b*", "").replace("c*", "")
    poly = parse_equation(cleaned)
    if len(poly.monomials) != 3:
        raise ValueError(f"fixture {text} did not parse to three monomials")
    variables = poly.variables
    rows = []
    for m in poly.monomials:
        rows.append(tuple(m.exp_of(v) for v in variables))
    return tuple(rows), variables


def family_rows_as_written(text: str):
    """(alpha, beta, gamma) rows in the orientation as written (left-hand
    monomials are alpha and beta, the right-hand one gamma), over the fixed
    variable order x, y, z, t used by the published exponent vectors."""
    lhs_text, rhs_text = text.split("=")
    lhs = parse_equation(lhs_text.replace("a*", "").replace("b*", ""))
    rhs = parse_equation(rhs_text.replace("c*", ""))
    variables = set(lhs.variables) | set(rhs.variables)
    order = [v for v in ("x", "y", "z", "t") if v in variables]
    rows = [tuple(m.exp_of(v) for v in order) for m in lhs.monomials]
    rows += [tuple(m.exp_of(v) for v in order) for m in rhs.monomials]
    return rows[0], rows[1], rows[2], order
