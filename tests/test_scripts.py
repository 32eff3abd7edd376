"""The experiment scripts reject bad arguments at parse time, with argparse's exit code 2."""

import runpy
import sys
from pathlib import Path

import pytest

from meronome import cli

SCRIPTS = Path(__file__).parents[1] / "scripts"


def _run(monkeypatch, script: str, argv: list[str]):
    monkeypatch.setattr(sys, "argv", [script, *argv])
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")


@pytest.mark.parametrize(
    "script, argv, message",
    [
        ("lambda_sweep.py", ["--points", "1"], "argument --points: must be an integer >= 2, got 1"),
        ("lambda_sweep.py", ["--shots", "0"], "argument --shots: must be an integer >= 1, got 0"),
        ("lambda_sweep.py", ["--seed", "-1"], "argument --seed: must be an integer >= 0, got -1"),
        ("run_verification.py", ["--trials", "0"], "argument --trials: must be an integer >= 1, got 0"),
        ("run_verification.py", ["--seeds", "0", "x"], "argument --seeds: must be an integer >= 0, got x"),
        ("twirl_convergence.py", ["--counts", "100", "0"], "argument --counts: must be an integer >= 1, got 0"),
        ("twirl_convergence.py", ["--seeds", "0"], "argument --seeds: must be an integer >= 1, got 0"),
    ],
)
def test_scripts_reject_bad_arguments_at_parse_time(monkeypatch, capsys, script, argv, message):
    with pytest.raises(SystemExit) as info:
        _run(monkeypatch, script, argv)
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


def test_lambda_sweep_runs_at_its_smallest_grid(monkeypatch, capsys):
    _run(monkeypatch, "lambda_sweep.py", ["--points", "2", "--shots", "100"])
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 3 and rows[2].split()[0] == "0.500"


def test_run_verification_runs_every_cli_suite(monkeypatch, capsys):
    with pytest.raises(SystemExit) as info:
        _run(monkeypatch, "run_verification.py", ["--trials", "1", "--seeds", "0"])
    assert info.value.code == 0
    rows = [row.split() for row in capsys.readouterr().out.splitlines()]
    assert [row[:3] for row in rows] == [[name, "seed=0", "ok"] for name in cli._SUITES]
