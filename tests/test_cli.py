import importlib
import importlib.util
import io
import json
import math
import operator
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import meronome
from meronome import cli, sampling, theorems

ISQ2 = 1.0 / math.sqrt(2.0)
PHI_PLUS_TEXT = f"{ISQ2},0 0,0 0,0 {ISQ2},0"
UPSILON_TEXT = "0.5,0 0,-0.5 0,0.5 0.5,0"


def _run_json(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


# ---------------------------------------------------------------- payload shape

OUTPUT_KEYS = {"fmt", "out"}
SEEDED_KEYS = OUTPUT_KEYS | {"seed"}
# One run of each subcommand, with the config keys its payload must echo:
# exactly the options that subcommand declares, and no others.
SCHEMA_CASES = [
    (["schmidt", "--state", PHI_PLUS_TEXT, "--split", "2x2"], OUTPUT_KEYS | {"state", "split"}),
    (["classify", "--state", PHI_PLUS_TEXT, "--split", "2x2"], OUTPUT_KEYS | {"state", "split", "tol"}),
    (["frame", "bell"], OUTPUT_KEYS | {"kind"}),
    (["frame", "theta", "--theta", "0.5"], OUTPUT_KEYS | {"kind", "theta"}),
    (["pauli-table"], OUTPUT_KEYS),
    (["twirl", "--samples", "10"], SEEDED_KEYS | {"workers", "samples", "split"}),
    (["superdense", "--dim", "2", "--trials", "1"], SEEDED_KEYS | {"dim", "trials"}),
    (["lambda", "--lambda", "0.1", "--shots", "10"], SEEDED_KEYS | {"lambda", "shots"}),
    (["refframe", "--n", "1", "--dim", "2"], SEEDED_KEYS | {"n", "dim"}),
    (["ordering"], OUTPUT_KEYS),
    (["symspan", "--samples", "20"], SEEDED_KEYS | {"samples"}),
    (["verify", "--suite", "lemmas", "--trials", "1"], SEEDED_KEYS | {"suite", "trials"}),
]


def test_payload_schema(capsys):
    assert {argv[0] for argv, _ in SCHEMA_CASES} == set(cli.build_parser()._subparsers._group_actions[0].choices)
    for argv, config_keys in SCHEMA_CASES:
        code, payload, _ = _run_json(capsys, argv)
        assert code == 0
        assert set(payload) == {"command", "config", "result", "elapsed_ms"}
        assert payload["command"] == argv[0]
        assert set(payload["config"]) == config_keys, argv[0]
        assert payload["config"].get("seed", 0) == 0
        assert payload["config"].get("workers", 1) == 1
        assert payload["config"].get("tol", 1e-10) == 1e-10
        assert isinstance(payload["elapsed_ms"], float)
        assert payload["elapsed_ms"] >= 0


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "thm1", "--trials", "1", "--tol", "1e-3"],
        ["ordering", "--seed", "1"],
        ["schmidt", "--state", PHI_PLUS_TEXT, "--split", "2x2", "--workers", "2"],
        ["superdense", "--dim", "2", "--trials", "1", "--workers", "2"],
        ["lambda", "--lambda", "0.1", "--shots", "10", "--workers", "2"],
    ],
)
def test_option_not_read_by_subcommand_exits_2(capsys, argv):
    code = cli.run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "unrecognized arguments" in err


def test_schmidt_command(capsys):
    _, payload, _ = _run_json(capsys, ["schmidt", "--state", PHI_PLUS_TEXT, "--split", "2x2"])
    result = payload["result"]
    assert result["params"] == pytest.approx([0.5, 0.5], abs=1e-12)
    assert result["reconstruction_error"] < 1e-10
    assert result["input_norm"] == pytest.approx(1.0, abs=1e-12)


def test_schmidt_normalizes_input(capsys):
    _, payload, _ = _run_json(capsys, ["schmidt", "--state", "1,0 0,0 0,0 1,0", "--split", "2x2"])
    assert payload["result"]["input_norm"] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert payload["result"]["params"] == pytest.approx([0.5, 0.5], abs=1e-12)


def test_classify_command(capsys):
    _, upsilon, _ = _run_json(capsys, ["classify", "--state", UPSILON_TEXT, "--split", "2x2"])
    assert upsilon["result"]["classification"] == "Product"
    _, bell, _ = _run_json(capsys, ["classify", "--state", PHI_PLUS_TEXT, "--split", "2x2"])
    assert bell["result"]["classification"] == "MaximallyEntangled"


@pytest.mark.parametrize(
    "state, expected",
    [
        (PHI_PLUS_TEXT, "MaximallyEntangled"),
        ("1,0 0,0 0,0 0,0", "Product"),
        ("1.7320508075688772,0 0,0 0,0 1,0", "Entangled"),  # Schmidt parameters (3/4, 1/4) once normalized
    ],
)
def test_classify_keeps_the_classes_apart_just_below_a_quarter(capsys, state, expected):
    code, payload, _ = _run_json(capsys, ["classify", "--state", state, "--split", "2x2", "--tol", "0.2499"])
    assert code == 0
    assert payload["result"]["classification"] == expected


def test_frame_commands(capsys):
    _, bell, _ = _run_json(capsys, ["frame", "bell"])
    assert bell["result"]["kind"] == "bell"
    assert bell["result"]["unitary_defect"] < 1e-12
    matrix = bell["result"]["unitary"]
    assert matrix[0][0] == pytest.approx([ISQ2, 0.0], abs=1e-12)  # complex as [re, im]

    _, theta, _ = _run_json(capsys, ["frame", "theta", "--theta", str(math.pi)])
    last = theta["result"]["unitary"][3][3]
    assert last == pytest.approx([-1.0, 0.0], abs=1e-12)


def test_frame_theta_requires_angle(capsys):
    code = cli.run(["frame", "theta"])
    err = capsys.readouterr().err
    assert code == 2
    assert "theta" in err


def test_pauli_table_command(capsys):
    _, payload, _ = _run_json(capsys, ["pauli-table"])
    result = payload["result"]
    assert len(result["entries"]) == 6
    assert result["max_frame_defect"] < 1e-12
    keys = {(e["pauli"], e["subsystem"]) for e in result["entries"]}
    assert keys == {(p, s) for p in "XYZ" for s in "AB"}


# ---------------------------------------------------------------- sampled commands

def test_twirl_command_converges(capsys):
    _, payload, _ = _run_json(capsys, ["twirl", "--samples", "3000", "--seed", "3"])
    assert payload["result"]["frobenius_distance_to_uniform"] < 0.1


def test_twirl_reproducible(capsys):
    argv = ["twirl", "--samples", "400", "--seed", "5"]
    _, first, _ = _run_json(capsys, argv)
    _, second, _ = _run_json(capsys, argv)
    first.pop("elapsed_ms")
    second.pop("elapsed_ms")
    assert first == second


def test_twirl_workers_variant(capsys):
    argv = ["twirl", "--samples", "1000", "--seed", "2", "--workers", "4"]
    _, first, _ = _run_json(capsys, argv)
    _, second, _ = _run_json(capsys, argv)
    assert first["result"] == second["result"]
    assert first["result"]["frobenius_distance_to_uniform"] < 0.2


def test_twirl_workers_at_cap(capsys):
    code, payload, _ = _run_json(capsys, ["twirl", "--samples", "3", "--workers", str(cli._WORKERS_CAP)])
    assert code == 0
    assert payload["config"]["workers"] == cli._WORKERS_CAP == 64



# ---------------------------------------------------------------- process setup

def _child(args: list[str], blas_threads: str | None) -> str:
    """stdout of a fresh interpreter run with OPENBLAS_NUM_THREADS unset or set, with this meronome on its path."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(meronome.__file__).parents[1]), env.get("PYTHONPATH")]))
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=True).stdout


@pytest.mark.parametrize("given, seen", [(None, "1"), ("2", "2")], ids=["unset-pins-one", "user-value-wins"])
def test_import_pins_one_blas_thread_unless_set(given, seen):
    probe = "import os, meronome; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _child(["-c", probe], given).strip() == seen


def test_large_split_twirl_does_not_depend_on_the_blas_thread_default():
    # the 1024 x 1024 accumulator product sums in a thread-count-dependent order; with 2+ cores the default pool differs
    argv = ["-m", "meronome.cli", "twirl", "--samples", "64", "--split", "32x32"]
    results = [json.loads(_child(argv, threads))["result"] for threads in (None, "1")]
    assert results[0] == results[1]

def test_superdense_command(capsys):
    _, payload, _ = _run_json(capsys, ["superdense", "--dim", "3", "--trials", "10"])
    result = payload["result"]
    assert result["rounds"] == 20
    assert result["successes"] == 20
    assert result["all_success"] is True
    assert result["max_signal_overlap"] < 1e-10


def test_lambda_command(capsys):
    _, payload, _ = _run_json(
        capsys, ["lambda", "--lambda", "0.25", "--shots", "20000", "--seed", "11"]
    )
    result = payload["result"]
    assert result["expected_p"] == pytest.approx(0.1875)
    margin = 4 * result["binomial_sigma"]
    assert abs(result["estimate"]["p_hat"] - 0.1875) < margin
    assert abs(result["estimate"]["lambda_hat"] - 0.25) < 0.03


@pytest.mark.parametrize("n", ["4000", "20000"])
def test_refframe_dense_cap_message_is_short(capsys, n):
    code = cli.run(["refframe", "--n", n, "--dim", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    error = captured.err.splitlines()[-1]
    assert error == f"meronome refframe: error: n = {int(n) + 1} copies of dimension d = 2 exceed the dense cap 4096 on d^n"
    assert len(error) < 200


def test_refframe_meets_the_dense_cap_before_it_draws(capsys, monkeypatch):
    def no_draw(*args):
        raise AssertionError("refframe drew a state before checking the dense cap")

    monkeypatch.setattr(sampling, "random_state", no_draw)
    assert cli.run(["refframe", "--n", "12", "--dim", "2"]) == 2
    error = capsys.readouterr().err.splitlines()[-1]
    assert error == "meronome refframe: error: n = 13 copies of dimension d = 2 exceed the dense cap 4096 on d^n"


def test_refframe_command(capsys):
    _, payload, _ = _run_json(capsys, ["refframe", "--n", "9", "--dim", "2"])
    result = payload["result"]
    assert result["agreement_error"] < 1e-10
    assert result["orthogonal_prediction"] == pytest.approx(0.1)
    assert result["orthogonal_probability"] == pytest.approx(0.1, abs=1e-9)


def test_refframe_runs_at_the_dim_cap(capsys):
    code, payload, _ = _run_json(capsys, ["refframe", "--n", "1", "--dim", "64"])  # 64^(1+1) = 4096, the dense cap
    assert code == 0
    assert payload["result"]["agreement_error"] < 1e-10


@pytest.mark.parametrize(
    "argv,split",
    [
        (["twirl", "--samples", "10", "--split", "3x3"], "3x3"),
        (["twirl", "--samples", "10"], "2x2"),  # the default, parsed like a given split
        (["schmidt", "--state", PHI_PLUS_TEXT, "--split", "2x2"], "2x2"),
    ],
)
def test_config_echoes_the_split_as_its_text(capsys, argv, split):
    code, payload, _ = _run_json(capsys, argv)
    assert code == 0
    assert payload["config"]["split"] == split
    assert payload["result"].get("split", split) == split


def test_ordering_command(capsys):
    _, payload, _ = _run_json(capsys, ["ordering"])
    result = payload["result"]
    assert abs(result["tau_tau_prime_overlap"]) < 1e-12
    assert result["tau_verdict"] == "Same"
    assert result["tau_prime_verdict"] == "Swapped"
    assert result["mixture_verdict"] == "Ambiguous"


def test_symspan_command(capsys):
    _, payload, _ = _run_json(capsys, ["symspan", "--samples", "30"])
    result = payload["result"]
    assert result["sym_dim"] == 10
    assert result["product_span_rank"] == 9
    assert result["max_lambda_overlap"] < 1e-10
    assert result["min_entangled_lambda_overlap"] > 0


def test_verify_command_passes(capsys):
    for suite in ("thm1", "thm2", "lemmas"):
        code, payload, _ = _run_json(capsys, ["verify", "--suite", suite, "--trials", "5"])
        assert code == 0
        assert payload["result"]["passed"] is True
        assert payload["result"]["witness"] is None


def test_verify_command_fails_with_exit_1(capsys, monkeypatch):
    def forced_failure(trials, rng):
        return theorems.Verdict(False, "forced failure", witness=np.zeros(2))

    monkeypatch.setitem(cli._SUITES, "thm1", forced_failure)
    code, payload, _ = _run_json(capsys, ["verify", "--suite", "thm1", "--trials", "1"])
    assert code == 1
    assert payload["result"]["passed"] is False
    assert payload["result"]["witness"] == [0.0, 0.0]


# ---------------------------------------------------------------- I/O plumbing

def test_state_from_file(tmp_path, capsys):
    state_file = tmp_path / "state.txt"
    state_file.write_text(PHI_PLUS_TEXT)
    _, payload, _ = _run_json(capsys, ["classify", "--state", f"@{state_file}", "--split", "2x2"])
    assert payload["result"]["classification"] == "MaximallyEntangled"


def test_state_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(UPSILON_TEXT))
    _, payload, _ = _run_json(capsys, ["classify", "--state", "-", "--split", "2x2"])
    assert payload["result"]["classification"] == "Product"


def test_output_file(tmp_path, capsys):
    out = tmp_path / "result.json"
    code = cli.run(["ordering", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text())
    assert payload["result"]["tau_verdict"] == "Same"


def test_csv_format(capsys):
    code = cli.run(["lambda", "--lambda", "0.0", "--shots", "10", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "key,value"
    table = dict(line.split(",", 1) for line in lines[1:])
    assert table["command"] == "lambda"
    assert table["result.estimate.hits"] == "0"


# ---------------------------------------------------------------- failure modes

@pytest.mark.parametrize(
    "argv",
    [
        ["lambda", "--lambda", "0.7", "--shots", "10"],          # lam out of range
        ["schmidt", "--state", "1,0 0,0", "--split", "4"],       # malformed split
        ["schmidt", "--state", "1 0", "--split", "2x1"],         # malformed amplitude
        ["schmidt", "--state", "1,0 0,0", "--split", "2x2"],     # wrong length
        ["twirl", "--samples", "0"],
        ["superdense", "--dim", "1", "--trials", "5"],
        ["refframe", "--n", "1", "--dim", "1"],
        ["classify", "--state", "1,0 0,0", "--split", "2x1", "--tol", "-1"],
        ["twirl", "--samples", "5", "--workers", "0"],
        ["verify", "--suite", "thm1", "--trials", "0"],
        ["superdense", "--dim", "2", "--trials", "0"],
        ["classify", "--state", "1,0 0,0", "--split", "2x1", "--tol", "inf"],
        ["frame", "theta", "--theta", "inf"],                     # non-finite value in the payload
        ["frame", "theta", "--theta", "nan"],
        ["lambda", "--lambda", "0.1", "--shots", "-5"],
        ["refframe", "--n", "0", "--dim", "2"],
        ["frame", "theta", "--theta", "-inf"],                    # a negative special value is a value, not an option
        ["lambda", "--lambda", "-1e3", "--shots", "10"],
        ["twirl", "--samples", "10", "--split", "33x32"],         # d1 above the twirl factor cap
        ["verify", "--suite", "thm1", "--trials", "5", "--seed", "-1"],
        ["frame", "bell", "--theta", "1"],                        # --theta is an option of frame theta alone
        ["schmidt", "--state", "1,0 0,0", "--split", "2x3x4"],
        ["twirl", "--samples", "10", "--split", "2x"],
        ["classify", "--state", "@/nonexistent/file", "--split", "2x2"],  # unreadable --state file
        ["schmidt", "--state", "@/", "--split", "2x2"],                   # --state names a directory
        ["ordering", "--out", "/nonexistent/dir/x.json"],                 # unwritable --out
        ["superdense", "--dim", "1025", "--trials", "1"],                 # --dim above the dense cap
        ["refframe", "--n", "1", "--dim", "1025"],
        ["symspan", "--samples", "50001"],                                # --samples above the symspan cap
        ["twirl", "--samples", "256", "--split", "2x128"],                # d1*d2 within 1024, d2 above 32
        ["twirl", "--samples", "10", "--split", "33x1"],
    ],
)
def test_bad_inputs_exit_2(capsys, argv):
    code = cli.run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "error" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("theta", ["inf", "-inf", "nan"])
def test_non_finite_theta_is_rejected_by_the_parser(capsys, theta):
    code = cli.run(["frame", "theta", f"--theta={theta}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "argument --theta: must be a finite number" in captured.err


def test_negative_scientific_notation_is_a_value(capsys):
    code, payload, _ = _run_json(capsys, ["frame", "theta", "--theta", "-1e3"])
    assert code == 0
    assert payload["result"]["theta"] == -1000.0
    assert payload["config"]["theta"] == -1000.0


@pytest.mark.parametrize(
    "argv,message",
    [
        (["frame", "theta", "--theta", "-inf"], "argument --theta: must be a finite number, got -inf"),
        (["lambda", "--lambda", "-1e3", "--shots", "10"], "argument --lambda: must lie in [0, 0.5], got -1e3"),
        (["lambda", "--lambda", "0.1", "--shots", "-5"], "argument --shots: must be an integer >= 1, got -5"),
        (["refframe", "--n", "0", "--dim", "2"], "argument --n: must be an integer >= 1, got 0"),
        (["refframe", "--n", "1", "--dim", "1"], "argument --dim: must be an integer >= 2, got 1"),
        (["superdense", "--dim", "1", "--trials", "5"], "argument --dim: must be an integer >= 2, got 1"),
        (["twirl", "--samples", "10", "--split", "33x32"], "argument --split: d1 must be at most 32, got 33x32"),
        (
            ["verify", "--suite", "thm1", "--trials", "5", "--seed", "-1"],
            "argument --seed: must be an integer >= 0, got -1",
        ),
        (["frame", "bell", "--theta", "1"], "unrecognized arguments: --theta 1"),
        (["schmidt", "--state", "1,0 0,0", "--split", "2x3x4"], "bad split '2x3x4'; expected d1xd2"),
        (["twirl", "--samples", "10", "--split", "2x"], "argument --split: bad split '2x'; expected d1xd2"),
        (["classify", "--state", "@/nonexistent/file", "--split", "2x2"], "/nonexistent/file: No such file or directory"),
        (["schmidt", "--state", "@/", "--split", "2x2"], "/: Is a directory"),
        (["ordering", "--out", "/nonexistent/dir/x.json"], "/nonexistent/dir/x.json: No such file or directory"),
        (["superdense", "--dim", "1025", "--trials", "1"], "argument --dim: must be at most 1024, got 1025"),
        (["refframe", "--n", "1", "--dim", "100"], "--dim: must be at most 64, got 100"),  # dim^(n+1) > 4096
        (["twirl", "--samples", "3", "--workers", "65"], "argument --workers: must be at most 64, got 65"),  # parse time
        (["symspan", "--samples", "50001"], "argument --samples: must be at most 50000, got 50001"),
        (["symspan", "--samples", "19"], "argument --samples: must be an integer >= 20, got 19"),  # parse time
        (["twirl", "--samples", "256", "--split", "2x128"], "argument --split: d2 must be at most 32, got 2x128"),
        (["twirl", "--samples", "10", "--split", "33x1"], "argument --split: d1 must be at most 32, got 33x1"),
        (["classify", "--state", "1,2,3 0,0", "--split", "2x1"], "bad amplitude '1,2,3'; expected re,im"),
        (["classify", "--state", "1,x 0,0", "--split", "2x1"], "bad amplitude '1,x'; expected re,im"),
        (["classify", "--state", "1,0 0,0", "--split", "2x0"], "argument --split: subsystem dimensions must be >= 1, got 2x0"),
        (["symspan", "--samples", "many"], "argument --samples: must be an integer >= 20, got many"),
        (["twirl", "--samples", "3", "--seed", "x"], "argument --seed: must be an integer >= 0, got x"),
        (["superdense", "--dim", "2.5", "--trials", "1"], "argument --dim: must be an integer >= 2, got 2.5"),
        (["twirl", "--samples", "3", "--workers", "two"], "argument --workers: must be an integer >= 1, got two"),
        (["classify", "--state", "1,0", "--split", "1x1", "--tol", "abc"], "argument --tol: must be a finite number, got abc"),
        (["frame", "theta", "--theta", "abc"], "argument --theta: must be a finite number, got abc"),
        (["classify", "--state", "1,0", "--split", "1x1", "--tol", "0.25"], "argument --tol: must lie in (0, 0.25), got 0.25"),
        (["classify", "--state", "1,0", "--split", "1x1", "--tol", "0"], "argument --tol: must lie in (0, 0.25), got 0"),
        (["refframe", "--n", "1", "--dim", "65"], "argument --dim: must be at most 64, got 65"),
    ],
)
def test_bad_input_message_names_the_problem(capsys, argv, message):
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err
    assert not re.search(r"\b_\w", captured.err), captured.err  # no private helper is named


def test_handler_error_prints_its_subcommands_usage(capsys):
    code = cli.run(["schmidt", "--state", "1,0 0,0", "--split", "2x2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("usage: meronome schmidt ")
    assert "pauli-table" not in err
    assert "state has 2 amplitudes, split wants 4" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["twirl", "--samples", "0"], "argument --samples: must be an integer >= 1, got 0"),  # parse time
        (["lambda", "--lambda", "nan", "--shots", "10"], "argument --lambda: must be a finite number, got nan"),
        (["lambda", "--lambda", "0.7", "--shots", "10"], "argument --lambda: must lie in [0, 0.5], got 0.7"),
        (["schmidt", "--state", "1,0 0,0", "--split", "2x2"], "state has 2 amplitudes, split wants 4"),  # handler
        (["ordering", "--out", "/nonexistent/dir/x.json"], "/nonexistent/dir/x.json: No such file or directory"),
        (["schmidt", "--state", "1,0", "0,0", "--split", "2x1"], "unrecognized arguments: 0,0"),  # unquoted state
        (["frame", "bell", "extra"], "unrecognized arguments: extra"),
        (["frame", "theta"], "the following arguments are required: --theta"),
        (["frame", "theta", "--theta", "x"], "argument --theta: must be a finite number, got x"),
    ],
)
def test_every_error_reads_under_its_subcommand(capsys, argv, message):
    code = cli.run(argv)
    lines = capsys.readouterr().err.splitlines()
    command = " ".join(argv[:2] if argv[0] == "frame" else argv[:1])  # each frame kind is a subcommand of its own
    assert code == 2
    assert lines[0].startswith(f"usage: meronome {command} ")
    assert lines[-1] == f"meronome {command}: error: {message}"


def test_non_finite_state_exits_2(capsys):
    code = cli.run(["classify", "--state", "nan,0 0,0 0,0 1,0", "--split", "2x2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "non-finite" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e308, 1e-200])
def test_extreme_but_finite_state_scales(capsys, scale):
    code, payload, _ = _run_json(capsys, ["classify", "--state", f"{scale},0 0,0 0,0 0,{scale}", "--split", "2x2"])
    assert code == 0
    assert payload["result"]["classification"] == "MaximallyEntangled"
    assert payload["result"]["input_norm"] == pytest.approx(math.sqrt(2.0) * scale, rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("state", ["1e308,0 1e308,0 1e308,0 1e308,0", "1.5e308,1.5e308 0,0 0,0 0,0"])
def test_state_norm_beyond_float_range_exits_2(capsys, state):
    code = cli.run(["classify", "--state", state, "--split", "2x2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error" in captured.err and "norm exceeds" in captured.err


def test_unknown_command_exits_2(capsys):
    assert cli.run(["no-such-command"]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert cli.run(["--help"]) == 0
    assert "meronome" in capsys.readouterr().out


@pytest.mark.parametrize("command", [*dict.fromkeys(argv[0] for argv, _ in SCHEMA_CASES), "frame bell", "frame theta"])
def test_subcommand_help_exits_0(capsys, command):
    assert cli.run([*command.split(), "--help"]) == 0
    assert f"usage: meronome {command}" in capsys.readouterr().out


# ---------------------------------------------------------------- benchmark harness

def test_every_perfbench_target_exists():
    """perfbench/tracer.py wraps each TARGETS entry by name, so each must resolve to an attribute of its module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, attr_path, _, _ in tracer.TARGETS:
        try:
            operator.attrgetter(attr_path)(importlib.import_module(f"meronome.{module_name}"))
        except AttributeError:
            missing.append(f"meronome.{module_name}.{attr_path}")
    assert tracer.TARGETS
    assert not missing, missing
