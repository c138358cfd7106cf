"""Self-test of the benchmark: its checks must count an answer with one point
dropped as a failed op, and tracing must patch every binding it wraps.

    python3 -m pytest bench/test_bench.py
"""

import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from trisolve import multivar, twovar  # noqa: E402

TABLE1 = workloads.WORKLOADS["table1"]
CORPUS = workloads.WORKLOADS["corpus"]
MASSER_OP = workloads.Op("a=2/masser", (2, "masser"))  # (-1, 1), (2, -2)
# x^2*y + x + 5 = 0: a finite answer, three points in the box
FINITE_OP = workloads.Op("divisor-branch", (corpus.FIXED[9][1],))


def _drop_one_point(monkeypatch, module, name, solutions_of):
    real = getattr(module, name)

    def dropped(*args, **kwargs):
        out = real(*args, **kwargs)
        finite = solutions_of(out).finite
        finite.discard(max(finite))
        return out

    monkeypatch.setattr(module, name, dropped)


def test_checks_pass_on_the_real_answers():
    assert run.run_ops(TABLE1, [MASSER_OP], False, None)[1:3] == ([], True)
    assert run.run_ops(CORPUS, [FINITE_OP], False, None)[1:3] == ([], True)


def test_table1_counts_a_dropped_point_as_failed(monkeypatch):
    _drop_one_point(monkeypatch, twovar, "solve_masser", lambda s: s)
    _, failed, correct, _ = run.run_ops(TABLE1, [MASSER_OP], False, None)
    assert failed == [MASSER_OP] and not correct


def test_corpus_counts_a_dropped_point_as_failed(monkeypatch):
    _drop_one_point(monkeypatch, multivar, "solve", lambda r: r.solutions)
    _, failed, correct, _ = run.run_ops(CORPUS, [FINITE_OP], False, None)
    assert failed == [FINITE_OP] and not correct


def test_known_failing_ops_fail_without_making_the_run_incorrect():
    ops = [workloads.Op("shared", (eq,)) for eq in corpus.KNOWN_FAILING]
    _, failed, correct, _ = run.run_ops(CORPUS, ops, False, None)
    assert failed == ops and correct


def test_tracer_patches_every_binding_and_restores_them():
    tracer = tracing.Tracer()
    originals = {(mod, attr): getattr(sys.modules[f"trisolve.{mod}"], attr)
                 for mod, attr, _, _ in tracing.TARGETS if "." not in attr}
    tracer.install()
    try:
        for mod in [m for k, m in sys.modules.items()
                    if k.startswith("trisolve.")]:
            for value in vars(mod).values():
                assert all(value is not orig for orig in originals.values())
    finally:
        tracer.uninstall()
    for (mod, attr), orig in originals.items():
        assert getattr(sys.modules[f"trisolve.{mod}"], attr) is orig


def test_traced_layers_nest_and_count_the_outermost_span():
    result, spans = tracing.Tracer().run("op", TABLE1.run, 2, "general")
    untraced = TABLE1.run(2, "general")
    assert TABLE1.canonical(result) == TABLE1.canonical(untraced)
    totals = tracing.LayerTotals()
    totals.add(spans)
    names = [s[0] for s in spans]
    assert names[:2] == ["op", "eqparse"]
    assert "twovar.strict" in names
    calls = totals.values["basesolve.calls"]
    assert 0 < totals.values["basesolve.sign_classes"] <= calls
    assert calls == sum(1 for s in spans if s[0] == "basesolve.superelliptic"
                        and spans[s[3]][0] != "basesolve.superelliptic")
