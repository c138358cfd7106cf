import json
import os
import subprocess
import sys

import pytest

from trisolve import cli
from trisolve.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_solve_human(capsys):
    code, out = run(capsys, "solve", "x^4+2*x*y+y^3=0", "-B", "300")
    assert code == 0
    assert "(-1, 1)" in out and "(2, -2)" in out


def test_solve_json_roundtrip(capsys):
    code, out = run(capsys, "solve", "x^2+y^3=z^5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "Complete"
    assert payload["path"] == ["n-variable", "direct-formula"]
    # integers as decimal strings; reserialization is a fixpoint
    assert json.loads(json.dumps(payload)) == payload
    assert all(isinstance(v, str)
               for fam in payload["families"] for v in fam["exprs"].values())


def test_parse_error_exit_code(capsys):
    code = main(["solve", "x + ?"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["solve", "-B", "-5", "--", "x^4+2*x*y+y^3=0"],
    ["solve", "-B", "ten", "x^4+2*x*y+y^3=0"],
    ["verify", "--box", "-3", "x^2-y=0"],
    ["oracle", "-B", "-2", "x^2-y=0"],
    ["classify", "--degree", "-1"],
    ["experiment", "--nvars", "3", "--degree", "2", "--samples", "0"],
    ["experiment", "--nvars", "3", "--degree", "-1"],
    ["experiment", "--nvars", "0", "--degree", "2"],
    ["repro", "6", "--samples", "0"],
    ["repro", "1", "-B", "-1"],
])
def test_bad_numeric_arguments_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-5"])
@pytest.mark.parametrize("argv", [
    ["solve", "x*y*z - x - y = 0", "--budget"],
    ["verify", "x^2-y=0", "--budget"],
    ["experiment", "--nvars", "3", "--degree", "2", "--budget"],
    ["experiment", "--nvars", "3", "--degree", "2", "--threads"],
    ["repro", "6", "--threads"],
])
def test_budget_and_threads_must_be_positive(argv, value, capsys):
    # parsed only, so that no value can start a solve or a worker pool
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv + [value])
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


def test_zero_bounds_are_accepted(capsys):
    code, out = run(capsys, "oracle", "x^2-y=0", "-B", "0")
    assert code == 0
    assert out.startswith("1 solutions in the box [-0, 0]^2")
    code, out = run(capsys, "solve", "-B", "0", "x^4+2*x*y+y^3=0")
    assert code == 0
    assert "SearchedToBound(0)" in out


def test_oracle_command(capsys):
    code, out = run(capsys, "oracle", "x^4+x*y+2*y^3=0", "-B", "50")
    assert code == 0
    assert "(-1, -1)" in out and "(0, 0)" in out


def test_verify_command(capsys):
    code, out = run(capsys, "verify", "x^2*y=z^2+1", "--box", "8", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["sound"] and payload["complete_in_box"]


def test_verify_passes_budget_to_solve(capsys, monkeypatch):
    seen = {}
    real = cli.solve

    def spy(*args, **kwargs):
        seen.update(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "solve", spy)
    code, _ = run(capsys, "verify", "x*y - z*t - 1 = 0", "--box", "2",
                  "--budget", "1234")
    assert code == 0
    assert seen["budget"] == 1234


def test_reduce_command(capsys):
    code, out = run(capsys, "reduce", "x+x^2*y-y*z^2=0")
    assert code == 0
    assert "u1^2" in out and "w1^2*w2^2" in out


def test_experiment_command(capsys):
    code, out = run(capsys, "experiment", "--nvars", "5", "--degree", "50",
                    "--samples", "120", "--seed", "3", "--threads", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["samples"] == 120
    assert 0 <= payload["proportion"] <= 1


def test_monte_carlo_runs_in_one_process_by_default():
    parser = cli.build_parser()
    for argv in (["experiment", "--nvars", "5", "--degree", "50"],
                 ["repro", "6"]):
        assert parser.parse_args(argv).threads == 1


def test_repro_table1_checks_both_pipelines(capsys, monkeypatch):
    # a row matches only when the general pipeline agrees with the
    # published set too; here it drops the point (-1, 1) of row 2
    real = cli.solve_two_var

    def dropping(eq, **kwargs):
        rep = real(eq, **kwargs)
        rep.solutions.finite.discard((-1, 1))
        return rep

    monkeypatch.setattr(cli, "solve_two_var", dropping)
    code, out = run(capsys, "repro", "1")
    assert code == 4
    assert out.splitlines() == [
        "a=2: MISMATCH solve_two_var got=[(2, -2)] "
        "expected=[(-1, 1), (2, -2)] [SearchedToBound(10000)]",
        "table 1: 99/100 rows match (23 nontrivial)"]


def test_repro_table3(capsys):
    code, out = run(capsys, "repro", "3")
    assert code == 0
    assert "88/88" in out


def test_repro_table4(capsys):
    code, out = run(capsys, "repro", "4")
    assert code == 0
    assert "8/8" in out


def test_python_m_trisolve():
    # the package runs as a module without being installed
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "trisolve", "solve", "x^2-4=0", "--json"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    assert payload["status"] == "Complete"
    assert payload["finite"] == [["-2"], ["2"]]
