"""Command-line front end: solve, oracle, verify, reduce, classify,
experiment, and repro subcommands with JSON or human-readable output.

Exit codes: 0 success, 2 parse error, 3 resource limit, 4 fixture mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import fixtures
from .basesolve import ResourceLimit
from .eqparse import ParseError, parse_equation, parse_trinomial
from .multivar import (
    check_sums,
    classify_family,
    enumerate_families,
    monte_carlo_prop4,
    reduce_to_independent,
    solve,
)
from .oracle import BoxTooLarge, brute_force
from .solset import verify_against_oracle
from .twovar import solve_masser, solve_two_var


def _report_json(report) -> dict:
    desc = report.solutions.describe()
    return {
        "input": report.input_text,
        "canonical": report.canonical,
        "path": report.path,
        "status": str(report.status),
        "finite": desc["finite"],
        "families": [
            {"params": f.get("params", []),
             "exprs": f.get("exprs", {}),
             "kind": f.get("kind", ""),
             "note": f.get("note", "")}
            for f in desc["families"]
        ],
        "reduced": report.reduced,
        "citations": desc["citations"],
        "elapsed_ms": str(int(report.elapsed * 1000)),
    }


def _print_report(report, as_json: bool):
    if as_json:
        print(json.dumps(_report_json(report), indent=2))
        return
    print(f"equation : {report.canonical}")
    print(f"path     : {' -> '.join(report.path)}")
    print(f"status   : {report.status}")
    if report.solutions.finite:
        pts = ", ".join(map(str, sorted(report.solutions.finite)))
        print(f"finite   : {pts}")
    for fam in report.solutions.families:
        d = fam.describe()
        if d.get("kind") == "parametric":
            params = ", ".join(f"{p['name']} in {p['domain']}"
                               for p in d["params"])
            exprs = ", ".join(f"{v}={e}" for v, e in d["exprs"].items())
            print(f"family   : {exprs}   [{params}]")
        else:
            print(f"family   : {d.get('kind')}: {d.get('note', '')}")
    for r in report.reduced:
        print(f"reduced  : {r}")
    for rec in report.base_records:
        print(f"base     : {rec.description} -> {rec.solutions} [{rec.status}]")
    for cite in report.solutions.provenance:
        print(f"cites    : {cite}")
    print(f"elapsed  : {report.elapsed * 1000:.1f} ms")


def cmd_solve(args) -> int:
    report = solve(args.equation, bound=args.bound, backend=args.backend,
                   budget=args.budget)
    _print_report(report, args.json)
    return 0


def cmd_oracle(args) -> int:
    poly = parse_equation(args.equation)
    run = brute_force(poly, args.bound_box)
    payload = {
        "variables": run.variables,
        "bound": run.bound,
        "count": len(run.solutions),
        "solutions": [list(map(str, t)) for t in run.solutions],
        "elapsed_ms": str(int(run.elapsed * 1000)),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"{len(run.solutions)} solutions in the box [-{run.bound}, "
              f"{run.bound}]^{len(run.variables)}")
        for t in run.solutions:
            print("  ", t)
    return 0


def cmd_verify(args) -> int:
    poly = parse_equation(args.equation)
    report = solve(args.equation, bound=args.bound, backend=args.backend,
                   budget=args.budget)
    run = brute_force(poly, args.bound_box)
    ver = verify_against_oracle(report.solutions, poly, run.solutions,
                                args.bound_box)
    payload = {
        "sound": ver.sound,
        "complete_in_box": ver.complete_in_box,
        "missing": [list(map(str, t)) for t in ver.missing],
        "spurious": [list(map(str, t)) for t in ver.spurious],
        "heuristic": ver.heuristic,
    }
    print(json.dumps(payload, indent=2) if args.json else payload)
    return 0 if ver.sound and ver.complete_in_box else 4


def cmd_reduce(args) -> int:
    eq = parse_trinomial(args.equation)
    reduced = reduce_to_independent(eq)
    descriptions = sorted({r.describe() for r in reduced})
    if args.json:
        print(json.dumps({"reduced": descriptions}, indent=2))
    else:
        for d in descriptions:
            print(d)
    return 0


def cmd_classify(args) -> int:
    degree = args.degree
    families = enumerate_families(degree)
    solvable = sum(1 for rows in families
                   if classify_family(rows)[0] == "prop4")
    expected = {3: (96, 88)}.get(degree, (None, None))
    payload = {
        "degree": degree,
        "rules": ["no variable shared by all three monomials",
                  "at least three effective variables",
                  "no constant monomial",
                  "no two variables with identical exponent columns"],
        "total": len(families),
        "prop4_solvable": solvable,
        "not_solvable": len(families) - solvable,
        "reported_total": expected[0],
        "reported_solvable": expected[1],
    }
    print(json.dumps(payload, indent=2))
    return 0


def cmd_experiment(args) -> int:
    res = monte_carlo_prop4(args.nvars, args.degree, args.samples, args.seed,
                            threads=args.threads, budget=args.budget)
    payload = {
        "n": res.n, "d": res.d, "samples": res.samples,
        "feasible": res.feasible, "proportion": res.proportion,
        "unknown": res.unknown,
    }
    print(json.dumps(payload, indent=2))
    return 0


def cmd_repro(args) -> int:
    table = args.table
    if table == 1:
        return _repro_table1(args)
    if table == 2:
        return _repro_table2(args)
    if table == 3:
        return _repro_table3(args)
    if table in (4, 5):
        return _repro_table45(args, table)
    return _repro_table6(args)


def _repro_table1(args) -> int:
    """Each row through solve_masser and the general solve_two_var: a row
    matches when both give the published nontrivial points, with one
    status."""
    mismatches = 0
    for a in range(1, 101):
        expected = fixtures.TABLE1.get(a, set())
        masser = solve_masser(a, bound=args.bound, backend=args.backend)
        general = solve_two_var(parse_trinomial(f"x^4+{a}*x*y+y^3=0"),
                                bound=args.bound,
                                backend=args.backend).solutions
        wrong = []
        for name, sols in (("solve_masser", masser),
                           ("solve_two_var", general)):
            got = {t for t in sols.finite if t != (0, 0)}
            if got != expected or str(sols.status) != str(masser.status):
                wrong.append(f"a={a}: MISMATCH {name} got={sorted(got)} "
                             f"expected={sorted(expected)} [{sols.status}]")
        if wrong:
            mismatches += 1
            print("\n".join(wrong))
        elif args.verbose:
            print(f"a={a}: ok got={sorted(expected)} "
                  f"expected={sorted(expected)} [{masser.status}]")
    print(f"table 1: {100 - mismatches}/100 rows match "
          f"({len(fixtures.TABLE1)} nontrivial)")
    return 0 if mismatches == 0 else 4


def _repro_table2(args) -> int:
    mismatches = 0
    for text in fixtures.TABLE2:
        eq = parse_trinomial(text)
        rep = solve_two_var(eq, bound=args.bound, backend=args.backend)
        got, _ = rep.solutions.enumerate_box(100)
        truth = brute_force(eq.full_polynomial(), 100).solutions
        ok = set(got) == set(truth)
        if not ok:
            mismatches += 1
        if not ok or args.verbose:
            print(f"{text}: {'ok' if ok else 'MISMATCH'} ({len(truth)} box "
                  f"solutions) [{rep.solutions.status}]")
    print(f"table 2: {len(fixtures.TABLE2) - mismatches}"
          f"/{len(fixtures.TABLE2)} equations match at B=100")
    return 0 if mismatches == 0 else 4


def _repro_table3(args) -> int:
    bad = 0
    for text, zvec in fixtures.TABLE3:
        alpha, beta, gamma, _ = fixtures.family_rows_as_written(text)
        if not check_sums(alpha, beta, gamma, zvec, 1):
            bad += 1
            print(f"{text}: z-vector {zvec} does not validate")
    print(f"table 3: {len(fixtures.TABLE3) - bad}/{len(fixtures.TABLE3)} "
          "exponent vectors validate")
    return 0 if bad == 0 else 4


def _repro_table45(args, table) -> int:
    rows = fixtures.TABLE4 if table == 4 else fixtures.TABLE5
    bad = 0
    for text, shape in rows:
        fam_rows, _ = fixtures.family_rows(text)
        kind, *rest = classify_family(fam_rows)
        if kind == "prop4":
            bad += 1
            print(f"{text}: unexpectedly satisfies the sufficient condition")
            continue
        got = rest[0].replace("=0", "")
        if got != shape:
            bad += 1
            print(f"{text}: shape {got} != {shape}")
    print(f"table {table}: {len(rows) - bad}/{len(rows)} families check out")
    return 0 if bad == 0 else 4


def _repro_table6(args) -> int:
    worst = 0.0
    bad = 0
    for n, row in fixtures.TABLE6.items():
        outputs = []
        for d, expected in zip(fixtures.TABLE6_DEGREES, row):
            res = monte_carlo_prop4(n, d, args.samples,
                                    seed=args.seed + n * 1000 + d,
                                    threads=args.threads)
            diff = abs(res.proportion - expected)
            worst = max(worst, diff)
            flag = "" if diff <= args.tolerance else " <-- off"
            if flag:
                bad += 1
            outputs.append(f"{res.proportion:.3f}/{expected:.3f}{flag}")
        print(f"n={n}: " + "  ".join(outputs))
    print(f"table 6: worst deviation {worst:.3f} "
          f"(tolerance {args.tolerance})")
    return 0 if bad == 0 else 4


def _int_at_least(least: int):
    """An argparse type: an integer >= least, else a usage error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < least:
            raise argparse.ArgumentTypeError(
                f"must be at least {least}, got {value}")
        return value
    return parse


_nonneg = _int_at_least(0)
_positive = _int_at_least(1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trisolve",
        description="Exact solver for three-monomial Diophantine equations")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, box=False):
        p.add_argument("-B", "--bound", type=_nonneg, default=10_000,
                       help="base-equation search bound (default 10000)")
        p.add_argument("--json", action="store_true")
        p.add_argument("--backend", default=None,
                       help="external base-equation solver command")
        p.add_argument("--budget", type=_positive, default=1_000_000,
                       help="node budget of the 2-D monoid search")
        if box:
            p.add_argument("--box", dest="bound_box", type=_nonneg,
                           default=20,
                           help="verification box bound")

    p = sub.add_parser("solve", help="solve an equation")
    p.add_argument("equation")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="brute-force box enumeration")
    p.add_argument("equation")
    p.add_argument("-B", "--bound", dest="bound_box", type=_nonneg,
                   default=20)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="solve and compare against the oracle")
    p.add_argument("equation")
    common(p, box=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reduce", help="reduce to independent monomials")
    p.add_argument("equation")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("classify", help="classify coefficient families")
    p.add_argument("--degree", type=_nonneg, default=3)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("experiment", help="random-equation proportion")
    p.add_argument("--nvars", type=_positive, required=True)
    p.add_argument("--degree", type=_nonneg, required=True)
    p.add_argument("--samples", type=_positive, default=1000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--threads", type=_positive, default=1)
    p.add_argument("--budget", type=_positive, default=500_000)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("repro", help="reproduce a published table")
    p.add_argument("table", type=int, choices=(1, 2, 3, 4, 5, 6))
    p.add_argument("-B", "--bound", type=_nonneg, default=10_000)
    p.add_argument("--backend", default=None)
    p.add_argument("--samples", type=_positive, default=1000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--threads", type=_positive, default=1)
    p.add_argument("--tolerance", type=float, default=0.03)
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=cmd_repro)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ResourceLimit, BoxTooLarge) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
