"""Golden CLI payloads: the `result` block of every subcommand at fixed seeds.

Each case runs `meronome <argv>` in-process and compares its `result` with
tests/golden/<name>.json: integers, booleans, strings and nulls exactly,
floats to FLOAT_TOL absolute.  A change that alters a published number on
purpose regenerates the files of the cases it moves with

    PYTHONPATH=src python tests/test_golden.py CASE [CASE ...]

(no names rewrites every case) and says so in CHANGES.md.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from meronome import cli

GOLDEN_DIR = Path(__file__).parent / "golden"
FLOAT_TOL = 1e-12

CASES = {
    "schmidt": ["schmidt", "--state", "0.6,0 0,0.1 0.2,0 0,0 0.3,-0.4 0.5,0", "--split", "2x3"],
    "classify": ["classify", "--state", "0.8,0 0,0 0,0.1 0.5,0", "--split", "2x2"],
    "frame_bell": ["frame", "bell"],
    "frame_theta": ["frame", "theta", "--theta", "0.7"],
    "pauli_table": ["pauli-table"],
    "twirl_2x2": ["twirl", "--samples", "2000", "--seed", "3"],
    "twirl_3x3_workers2": ["twirl", "--samples", "2000", "--split", "3x3", "--workers", "2", "--seed", "5"],
    "twirl_zero_shares": ["twirl", "--samples", "3", "--workers", "5", "--seed", "1"],
    "twirl_32x32": ["twirl", "--samples", "64", "--split", "32x32"],
    "twirl_2x5": ["twirl", "--samples", "2000", "--split", "2x5", "--seed", "2"],
    "superdense_dim16": ["superdense", "--dim", "16", "--trials", "5", "--seed", "2"],
    "lambda": ["lambda", "--lambda", "0.2", "--shots", "20000", "--seed", "4"],
    "refframe": ["refframe", "--n", "3", "--dim", "2", "--seed", "1"],
    "ordering": ["ordering"],
    "symspan": ["symspan", "--samples", "30", "--seed", "6"],
    "verify_thm1": ["verify", "--suite", "thm1", "--trials", "5", "--seed", "7"],
    "verify_thm2": ["verify", "--suite", "thm2", "--trials", "5", "--seed", "8"],
    "verify_lemmas": ["verify", "--suite", "lemmas", "--trials", "5", "--seed", "9"],
}


def _result(argv: list[str]) -> dict:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.run(argv)
    assert code == 0, f"meronome {' '.join(argv)} exited {code}"
    return json.loads(buf.getvalue())["result"]


def _mismatches(expected, actual, path="result"):
    """Yield one line per place where `actual` differs from `expected`."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            yield f"{path}: keys {sorted(expected)} != {sorted(actual)}"
            return
        for key in expected:
            yield from _mismatches(expected[key], actual[key], f"{path}.{key}")
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            yield f"{path}: length {len(expected)} != {len(actual)}"
            return
        for i, (e, a) in enumerate(zip(expected, actual)):
            yield from _mismatches(e, a, f"{path}.{i}")
    elif type(expected) is float and type(actual) is float:
        if not abs(expected - actual) <= FLOAT_TOL:
            yield f"{path}: {actual!r} differs from {expected!r} by more than {FLOAT_TOL}"
    elif type(expected) is not type(actual) or expected != actual:
        yield f"{path}: {actual!r} != {expected!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_payload(name):
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert golden["argv"] == CASES[name]
    problems = list(_mismatches(golden["result"], _result(CASES[name])))
    assert not problems, "\n".join(problems)


def test_comparison_is_strict():
    assert not list(_mismatches({"a": [1, 0.5, "x"]}, {"a": [1, 0.5 + 1e-13, "x"]}))
    assert list(_mismatches({"a": 0.5}, {"a": 0.5 + 1e-11}))
    assert list(_mismatches({"a": 1}, {"a": 1.0}))
    assert list(_mismatches({"a": True}, {"a": 1}))
    assert list(_mismatches({"a": None}, {"a": 0.0}))
    assert list(_mismatches({"a": [1, 2]}, {"a": [1]}))
    assert list(_mismatches({"a": 1}, {"b": 1}))


if __name__ == "__main__":
    names = sys.argv[1:] or list(CASES)
    unknown = sorted(set(names) - CASES.keys())
    if unknown:
        sys.exit(f"unknown golden case(s): {', '.join(unknown)}; known: {', '.join(CASES)}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in names:
        argv = CASES[case]
        text = json.dumps({"argv": argv, "result": _result(argv)}, indent=2) + "\n"
        (GOLDEN_DIR / f"{case}.json").write_text(text)
        print(f"wrote {GOLDEN_DIR / case}.json")
