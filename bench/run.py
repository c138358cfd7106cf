"""Benchmark of the trisolve solver on three workloads (see README.md).

    python3 bench/run.py --workload table1 --seed 1 --seconds 30 --trace 0

Each run is one process with no worker pool.  It times the import of the
package (`setup_s`), builds its operations from the seed, runs and checks
each one, and prints one JSON object as its last line.  With `--trace 0` it
reports the end-to-end metrics; with `--trace 1` it runs every operation
untraced and traced (alternating which goes first), checks that both give
the same output, and reports the per-layer metrics from the traced runs.
The spans go to bench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time

import tracing
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
MODULES = ("expr", "intcore", "eqparse", "solset", "lindioph", "twomon",
           "basesolve", "twovar", "multivar", "oracle", "fixtures", "cli")
SETUP_REPEATS = 15


def measure_setup() -> float:
    """Median time to import every trisolve module from scratch.  The first
    import also compiles the bytecode cache; the median leaves it out."""
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [k for k in sys.modules
                     if k == "trisolve" or k.startswith("trisolve.")]:
            del sys.modules[name]
        start = time.perf_counter()
        for name in MODULES:
            importlib.import_module(f"trisolve.{name}")
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_ops(workload, ops, trace: bool, out_path: str | None):
    """Run and check each op; returns (op seconds, failed ops, correct,
    per-layer totals or None).  Prints the share of op time per group (the
    dispatcher path, for the corpus) to stderr."""
    check = workload.check()
    tracer = tracing.Tracer() if trace else None
    totals = tracing.LayerTotals() if trace else None
    times, failed = [], []
    correct = True
    traced_seconds = 0.0
    by_group: dict[str, float] = {}
    for i, op in enumerate(ops):
        if trace and i % 2:
            traced = _traced_attempt(tracer, workload, op)
        start = time.perf_counter()
        try:
            result, err = workload.run(*op.args), None
        except Exception as exc:  # a failed op is counted, not fatal
            result, err = None, exc
        times.append(time.perf_counter() - start)
        group = "raised" if err else workload.group(op, result)
        by_group[group] = by_group.get(group, 0.0) + times[-1]
        if trace and not i % 2:
            traced = _traced_attempt(tracer, workload, op)
        if err is not None or not _passes(check, op, result):
            failed.append(op)
            if op.args not in workload.known_failing:
                correct = False
                print(f"FAILED {op.label}: {err!r}", file=sys.stderr)
        if trace:
            traced_result, traced_err, spans = traced
            if (repr(err) != repr(traced_err) or err is None and
                    workload.canonical(result)
                    != workload.canonical(traced_result)):
                correct = False
                print(f"TRACED OUTPUT DIFFERS {op.label}", file=sys.stderr)
            traced_seconds += spans[0][2] - spans[0][1]
            totals.add(spans)
            tracing.write_spans(out_path, op.label, spans, "a" if i else "w")
    for group, seconds in sorted(by_group.items(), key=lambda kv: -kv[1]):
        print(f"  {100 * seconds / sum(times):5.1f}%  {group}",
              file=sys.stderr)
    if trace:
        totals.values["trace.overhead_pct"] = 100 * (
            traced_seconds / sum(times) - 1)
    return times, failed, correct, totals


def _passes(check, op, result) -> bool:
    try:
        return check(op, result)
    except Exception as exc:  # an answer the check cannot read is wrong
        print(f"CHECK RAISED {op.label}: {exc!r}", file=sys.stderr)
        return False


def _traced_attempt(tracer, workload, op):
    """(result, None, spans), or (None, exception, spans) when it raised."""
    try:
        result, spans = tracer.run(op.label, workload.run, *op.args)
        return result, None, spans
    except Exception as exc:  # compared with the untraced attempt
        return None, exc, list(tracer.spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("table1", "montecarlo", "corpus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "trisolve", "__init__.py")):
        print(f"bench: no trisolve package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    setup_s = measure_setup()
    workload = workloads.WORKLOADS[args.workload]
    ops = workload.make_ops(args.seed, args.seconds)
    out_path = None
    if args.trace:
        os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
        out_path = os.path.join(
            BENCH, "out", f"spans-{args.workload}-{args.seed}.jsonl.gz")
    times, failed, correct, totals = run_ops(workload, ops, args.trace,
                                             out_path)

    if args.trace:
        metrics = {name: {"value": totals.values[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER}
    else:
        ordered = sorted(times)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "op_p50_ms": {"value": 1000 * statistics.median(ordered),
                          "unit": "ms"},
            # the highest percentile with at least ten ops beyond it
            "op_tail_ms": {"value": 1000 * ordered[-11], "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    print(f"{args.workload}: {len(ops)} ops in {sum(times):.2f} s, "
          f"{len(failed)} failed: {[op.label for op in failed]}")
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
