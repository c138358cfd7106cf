"""Spans around the public functions of the trisolve modules, installed from
outside the package, and the per-layer metrics derived from them.

A span is ``[name, start, end, parent, info]``.  Each traced operation is one
root span named ``op``; every wrapped call inside it is a descendant.  A
layer's self time is its span's duration minus that of its direct children.
A layer that calls itself (or a sibling function of the same layer) is
counted once, at its outermost span.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time


def _superelliptic_info(signature):
    def info(args, kwargs, result):
        bound = signature.bind(*args, **kwargs).arguments
        key = tuple(bound[k] for k in ("a", "b", "c", "n", "m"))
        return key, result.status.kind
    return info


# (module, attribute, span name, info).  Spans that share a name form one
# layer.  `basesolve.superelliptic` recurses (m > n swaps the variables),
# `lindioph.nonneg` nests through hilbert_basis, `eqparse` through
# parse_trinomial, and `solset.enumerate_box` through mapped families.
TARGETS = [
    ("eqparse", "parse_equation", "eqparse", None),
    ("eqparse", "parse_trinomial", "eqparse", None),
    ("eqparse", "canonicalize", "eqparse", None),
    ("eqparse", "poly_to_string", "eqparse", None),
    ("intcore", "factorize", "intcore.factorize", None),
    ("lindioph", "solve_monoid_target_2d", "lindioph.monoid",
     lambda a, k, r: r[0]),
    ("lindioph", "solve_system_nonneg", "lindioph.nonneg",
     lambda a, k, r: r.status),
    ("lindioph", "hilbert_basis", "lindioph.nonneg",
     lambda a, k, r: r.status),
    ("twomon", "solve_two_monomial", "twomon", None),
    ("twomon", "solve_power_product", "twomon", None),
    ("basesolve", "solve_superelliptic", "basesolve.superelliptic", "args"),
    ("basesolve", "solve_runge_finite", "basesolve.runge", None),
    ("twovar", "solve_two_var", "twovar.general", None),
    ("twovar", "solve_masser", "twovar.masser", None),
    ("twovar", "solve_strict_case", "twovar.strict", None),
    ("multivar", "solve", "multivar.solve", None),
    ("multivar", "check_prop4", "multivar.check_prop4", None),
    ("multivar", "reduce_to_independent", "multivar.reduce",
     lambda a, k, r: len(r)),
    ("multivar", "solve_reduced", "multivar.solve_reduced", None),
    ("multivar", "solve_prop4", "multivar.prop4_solve", None),
    ("oracle", "brute_force", "oracle.brute_force", None),
    ("solset", "SolutionSet.enumerate_box", "solset.enumerate_box",
     lambda a, k, r: len(r[0])),
    ("solset", "verify_against_oracle", "solset.verify", None),
]

# Callers that make an oracle call part of solving rather than checking.
SOLVER_LAYERS = ("multivar.solve", "twovar.general", "twovar.masser",
                 "basesolve.superelliptic", "basesolve.runge")


class Tracer:
    """Collects the spans of one traced operation at a time.  ``install``
    patches every binding of each target in every loaded trisolve module;
    ``uninstall`` restores them."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        owners = {m: importlib.import_module(f"trisolve.{m}")
                  for m, _, _, _ in TARGETS}
        modules = [mod for key, mod in sys.modules.items()
                   if key == "trisolve" or key.startswith("trisolve.")]
        for modname, attr, name, info in TARGETS:
            owner = owners[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                if info == "args":
                    info = _superelliptic_info(inspect.signature(orig))
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig, info))
                continue
            orig = getattr(owner, attr)
            if info == "args":
                info = _superelliptic_info(inspect.signature(orig))
            wrapped = self._wrap(name, orig, info)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._restore):
            setattr(obj, key, orig)
        self._restore.clear()

    def run(self, label: str, fn, *args):
        """Run fn(*args) as one traced operation; returns (result, spans)."""
        self.spans.clear()
        root = ["op", 0.0, 0.0, -1, label]
        self.spans.append(root)
        self._stack.append(0)
        self.install()
        try:
            root[1] = time.perf_counter()
            try:
                result = fn(*args)
            finally:
                root[2] = time.perf_counter()
        finally:
            self.uninstall()
            self._stack.clear()
        return result, list(self.spans)


def sign_class(key):
    """Canonical form of a*y^m = b*x^n + c under x -> -x (odd n),
    y -> -y (odd m) and a global sign flip."""
    a, b, c, n, m = key
    forms = []
    for sx in ((1, -1) if n % 2 else (1,)):
        for sy in ((1, -1) if m % 2 else (1,)):
            for g in (1, -1):
                forms.append((g * sy * a, g * sx * b, g * c, n, m))
    return min(forms)


PER_LAYER = [
    ("basesolve.calls", "count"), ("basesolve.distinct", "count"),
    ("basesolve.sign_classes", "count"), ("basesolve.useful_ratio", "ratio"),
    ("basesolve.ms", "ms"), ("basesolve.searched_calls", "count"),
    ("basesolve.runge.ms", "ms"),
    ("twovar.general.self_ms", "ms"), ("twovar.masser.self_ms", "ms"),
    ("twovar.strict.self_ms", "ms"),
    ("intcore.factorize.calls", "count"), ("intcore.factorize.ms", "ms"),
    ("lindioph.monoid.calls", "count"), ("lindioph.monoid.ms", "ms"),
    ("lindioph.monoid.unknown", "count"),
    ("lindioph.nonneg.ms", "ms"), ("lindioph.nonneg.budget_hits", "count"),
    ("multivar.check_prop4.ms", "ms"), ("multivar.reduce.ms", "ms"),
    ("multivar.reduced_equations", "count"),
    ("multivar.solve_reduced.ms", "ms"), ("multivar.prop4_solve.ms", "ms"),
    ("multivar.solve.self_ms", "ms"), ("twomon.ms", "ms"),
    ("eqparse.calls", "count"), ("eqparse.ms", "ms"),
    ("solset.enumerate_box.ms", "ms"),
    ("solset.enumerate_box.points", "count"), ("solset.verify.ms", "ms"),
    ("oracle.in_enumerate.calls", "count"), ("oracle.in_enumerate.ms", "ms"),
    ("oracle.in_solve.calls", "count"), ("oracle.in_solve.ms", "ms"),
    ("oracle.check.ms", "ms"),
    ("trace.spans", "count"), ("trace.overhead_pct", "%"),
]

# Layer -> metric, summed over outermost spans (ms, calls) or over all spans
# of the layer (self time).
_OUTER_MS = {
    "basesolve.superelliptic": "basesolve.ms",
    "basesolve.runge": "basesolve.runge.ms",
    "intcore.factorize": "intcore.factorize.ms",
    "lindioph.monoid": "lindioph.monoid.ms",
    "lindioph.nonneg": "lindioph.nonneg.ms",
    "multivar.check_prop4": "multivar.check_prop4.ms",
    "multivar.reduce": "multivar.reduce.ms",
    "multivar.solve_reduced": "multivar.solve_reduced.ms",
    "multivar.prop4_solve": "multivar.prop4_solve.ms",
    "twomon": "twomon.ms",
    "eqparse": "eqparse.ms",
    "solset.enumerate_box": "solset.enumerate_box.ms",
    "solset.verify": "solset.verify.ms",
}
_OUTER_CALLS = {
    "basesolve.superelliptic": "basesolve.calls",
    "intcore.factorize": "intcore.factorize.calls",
    "lindioph.monoid": "lindioph.monoid.calls",
    "eqparse": "eqparse.calls",
}
_SELF_MS = {
    "twovar.general": "twovar.general.self_ms",
    "twovar.masser": "twovar.masser.self_ms",
    "twovar.strict": "twovar.strict.self_ms",
    "multivar.solve": "multivar.solve.self_ms",
}


class LayerTotals:
    """Per-layer metrics accumulated over the traced operations of a run."""

    def __init__(self):
        self.values = {name: 0.0 for name, _ in PER_LAYER}
        self.base_keys: set = set()
        self.base_classes: set = set()

    def add(self, spans: list[list]) -> None:
        v = self.values
        v["trace.spans"] += len(spans) - 1
        child = [0.0] * len(spans)
        ancestors: list[frozenset] = []
        for i, (name, start, end, parent, info) in enumerate(spans):
            ancestors.append(ancestors[parent] | {spans[parent][0]}
                             if parent >= 0 else frozenset())
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, info) in enumerate(spans):
            ms = (end - start) * 1000
            anc = ancestors[i]
            if name in _SELF_MS:
                v[_SELF_MS[name]] += ms - child[i] * 1000
            if name in anc:
                continue  # counted at the outermost span of its layer
            if name in _OUTER_MS:
                v[_OUTER_MS[name]] += ms
            if name in _OUTER_CALLS:
                v[_OUTER_CALLS[name]] += 1
            if name == "basesolve.superelliptic" and info is not None:
                key, kind = info
                self.base_keys.add(key)
                self.base_classes.add(sign_class(key))
                v["basesolve.searched_calls"] += kind == "searched"
            elif name == "lindioph.monoid":
                v["lindioph.monoid.unknown"] += info == "unknown"
            elif name == "lindioph.nonneg":
                v["lindioph.nonneg.budget_hits"] += info == "budget"
            elif name == "multivar.reduce" and info is not None:
                v["multivar.reduced_equations"] += info
            elif name == "solset.enumerate_box" and info is not None:
                v["solset.enumerate_box.points"] += info
            elif name == "oracle.brute_force":
                if "solset.enumerate_box" in anc:
                    role = "in_enumerate"
                elif anc.intersection(SOLVER_LAYERS):
                    role = "in_solve"
                else:
                    v["oracle.check.ms"] += ms
                    continue
                v[f"oracle.{role}.calls"] += 1
                v[f"oracle.{role}.ms"] += ms
        v["basesolve.distinct"] = len(self.base_keys)
        v["basesolve.sign_classes"] = len(self.base_classes)
        calls = v["basesolve.calls"]
        v["basesolve.useful_ratio"] = (v["basesolve.distinct"] / calls
                                       if calls else 0.0)


def write_spans(path: str, label: str, spans: list[list], mode: str) -> None:
    """Append one operation's spans as a JSON line (times in microseconds
    from the operation's start)."""
    t0 = spans[0][1]
    rows = [[name, round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1), p,
             info if isinstance(info, (int, float, str)) or info is None
             else repr(info)]
            for name, s, e, p, info in spans]
    with gzip.open(path, mode + "t", encoding="utf-8") as fh:
        fh.write(json.dumps({"op": label, "spans": rows}) + "\n")
