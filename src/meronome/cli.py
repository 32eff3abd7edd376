"""Command-line driver: every experiment runnable with a seed and machine-readable output.

Output is one JSON object (or flattened CSV rows) on stdout or --out.  With a
fixed seed the payload is reproducible apart from the elapsed_ms field.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import enum
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import frames, linalg, protocols, sampling, theorems


@dataclass(frozen=True)
class RunConfig:
    """Global knobs shared by every subcommand."""

    seed: int = 0
    tol: float = 1e-10
    fmt: str = "json"
    out: str | None = None
    workers: int = 1

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError(f"--tol must be positive, got {self.tol}")
        if self.workers < 1:
            raise ValueError(f"--workers must be >= 1, got {self.workers}")


def _jsonify(value):
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonify(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        out = float(value)
        if not math.isfinite(out):
            raise ValueError(f"refusing to emit non-finite value {out}")
        return out
    if isinstance(value, (complex, np.complexfloating)):
        return [_jsonify(value.real), _jsonify(value.imag)]
    if isinstance(value, np.ndarray):
        return _jsonify(value.tolist())
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if value is None or isinstance(value, str):
        return value
    raise TypeError(f"cannot serialize {type(value)!r}")


def _flatten(value, prefix=""):
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _flatten(sub, f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            yield from _flatten(sub, f"{prefix}.{i}")
    else:
        yield prefix, value


def _emit(payload: dict, config: RunConfig) -> None:
    if config.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        for key, value in _flatten(payload):
            writer.writerow([key, value])
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2) + "\n"
    if config.out:
        Path(config.out).write_text(text)
    else:
        sys.stdout.write(text)


def _read_state_text(spec: str) -> str:
    if spec == "-":
        return sys.stdin.read()
    if spec.startswith("@"):
        return Path(spec[1:]).read_text()
    return spec


def _parse_state(text: str) -> np.ndarray:
    amps = []
    for token in text.split():
        re_part, sep, im_part = token.partition(",")
        if not sep:
            raise ValueError(f"bad amplitude {token!r}; expected re,im")
        amps.append(complex(float(re_part), float(im_part)))
    if not amps:
        raise ValueError("empty state")
    return np.array(amps, dtype=np.complex128)


def _parse_split(text: str) -> linalg.BipartiteSplit:
    left, sep, right = text.partition("x")
    if not sep:
        raise ValueError(f"bad split {text!r}; expected d1xd2")
    return linalg.BipartiteSplit(int(left), int(right))


def _load_state(args) -> tuple[linalg.StateVector, linalg.BipartiteSplit, float]:
    split = _parse_split(args.split)
    amps = _parse_state(_read_state_text(args.state))
    if amps.shape[0] != split.dim:
        raise ValueError(f"state has {amps.shape[0]} amplitudes, split wants {split.dim}")
    norm = float(np.linalg.norm(amps))
    return linalg.StateVector.normalized(amps), split, norm


# ---------------------------------------------------------------- handlers

def _cmd_schmidt(args, config: RunConfig):
    state, split, norm = _load_state(args)
    dec = frames.schmidt_decompose(state, split)
    err = float(np.linalg.norm(dec.reconstruct().amps - state.amps))
    return {"input_norm": norm, "params": dec.params, "reconstruction_error": err}, False


def _cmd_classify(args, config: RunConfig):
    state, split, norm = _load_state(args)
    dec = frames.schmidt_decompose(state, split)
    cls = frames.classify(state, split, config.tol)
    return {"input_norm": norm, "classification": cls, "params": dec.params}, False


def _cmd_frame(args, config: RunConfig):
    if args.kind == "bell":
        u = frames.bell_frame_unitary()
        result = {"kind": "bell"}
    else:
        if args.theta is None:
            raise ValueError("frame theta requires --theta")
        u = frames.theta_frame_unitary(args.theta)
        result = {"kind": "theta", "theta": args.theta}
    defect = float(np.abs(u.dag().entries @ u.entries - np.eye(u.dim)).max())
    result.update({"unitary": u.entries, "unitary_defect": defect})
    return result, False


def _cmd_pauli_table(args, config: RunConfig):
    bell = frames.bell_frame_unitary().entries
    entries = []
    max_defect = 0.0
    for side in "AB":
        for label in "XYZ":
            op = frames.ab_pauli(label, side)
            sigma = frames.pauli(label).entries
            eye = np.eye(2, dtype=np.complex128)
            in_frame = np.kron(sigma, eye) if side == "A" else np.kron(eye, sigma)
            defect = float(np.abs(op.entries - bell.conj().T @ in_frame @ bell).max())
            max_defect = max(max_defect, defect)
            entries.append({"pauli": label, "subsystem": side, "matrix": op.entries})
    return {"entries": entries, "max_frame_defect": max_defect}, False


def _partial_maxent(split: linalg.BipartiteSplit) -> linalg.DensityOperator:
    m = min(split.d1, split.d2)
    amps = np.zeros(split.dim, dtype=np.complex128)
    for k in range(m):
        amps[k * split.d2 + k] = 1.0 / math.sqrt(m)
    return linalg.DensityOperator.from_state(linalg.StateVector(amps))


def _shards(total: int, workers: int, rng: sampling.RngStream) -> list[tuple[int, sampling.RngStream]]:
    """(share, stream) pairs: all of `total` on `rng` for one worker, else near-equal
    shares (the first `total % workers` one larger) on split sub-streams."""
    if workers == 1:
        return [(total, rng)]
    base, extra = divmod(total, workers)
    return [(base + (i < extra), child) for i, child in enumerate(rng.split(workers))]


def _cmd_twirl(args, config: RunConfig):
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    split = _parse_split(args.split)
    rho = _partial_maxent(split)
    rng = sampling.RngStream(config.seed)
    if config.workers == 1:
        est = sampling.twirl_monte_carlo(rho, split, args.samples, rng)
    else:
        acc = np.zeros((split.dim, split.dim), dtype=np.complex128)
        for share, child in _shards(args.samples, config.workers, rng):
            if share:
                acc += share * sampling.twirl_monte_carlo(rho, split, share, child).entries
        est = linalg.DensityOperator(acc / args.samples)
    dist = float(np.linalg.norm(est.entries - sampling.exact_twirl(split).entries))
    return {
        "samples": args.samples,
        "split": f"{split.d1}x{split.d2}",
        "frobenius_distance_to_uniform": dist,
    }, False


def _cmd_superdense(args, config: RunConfig):
    if args.dim < 2 or args.trials < 1:
        raise ValueError("--dim must be >= 2 and --trials >= 1")
    rng = sampling.RngStream(config.seed)
    successes = 0
    max_signal_overlap = 0.0
    for _ in range(args.trials):
        for bit in (0, 1):
            report = protocols.superdense_round(args.dim, bit, rng)
            successes += int(report.decode_success)
            if bit == 1:
                max_signal_overlap = max(max_signal_overlap, report.overlap_modulus)
    rounds = 2 * args.trials
    return {
        "dim": args.dim,
        "trials": args.trials,
        "rounds": rounds,
        "successes": successes,
        "all_success": successes == rounds,
        "max_signal_overlap": max_signal_overlap,
    }, False


def _cmd_lambda(args, config: RunConfig):
    lam = getattr(args, "lambda")
    if args.shots < config.workers:
        raise ValueError("--shots must be >= --workers")
    shards = _shards(args.shots, config.workers, sampling.RngStream(config.seed))
    hits = sum(protocols.sample_lambda_measurement(lam, share, stream).hits for share, stream in shards)
    est = protocols.LambdaEstimate.from_hits(args.shots, hits)
    expected = lam * (1.0 - lam)
    sigma = math.sqrt(expected * (1.0 - expected) / args.shots)
    return {
        "lambda": lam,
        "estimate": est,
        "expected_p": expected,
        "binomial_sigma": sigma,
    }, False


def _cmd_refframe(args, config: RunConfig):
    if args.dim < 2:
        raise ValueError("--dim must be >= 2")
    rng = sampling.RngStream(config.seed)
    psi = sampling.random_state(args.dim, rng)
    phi = sampling.random_state(args.dim, rng)
    p_sym = protocols.measure_sym_subspace(psi, phi, args.n)
    effect = protocols.reference_frame_effect(phi, args.n).entries
    prediction = float(np.vdot(psi.amps, effect @ psi.amps).real)
    # deterministic vector orthogonal to phi: Gram-Schmidt on the least-aligned basis vector
    pivot = int(np.argmin(np.abs(phi.amps)))
    raw = np.zeros(args.dim, dtype=np.complex128)
    raw[pivot] = 1.0
    raw -= phi.amps * np.vdot(phi.amps, raw)
    chi = linalg.StateVector.normalized(raw)
    return {
        "n": args.n,
        "dim": args.dim,
        "p_sym": p_sym,
        "effect_prediction": prediction,
        "agreement_error": abs(p_sym - prediction),
        "orthogonal_probability": protocols.measure_sym_subspace(chi, phi, args.n),
        "orthogonal_prediction": 1.0 / (args.n + 1),
    }, False


def _cmd_ordering(args, config: RunConfig):
    tau, tau_prime = protocols.tau_states()
    overlap = float(np.trace(tau.entries @ tau_prime.entries).real)
    mixture = linalg.DensityOperator((tau.entries + tau_prime.entries) / 2.0)
    return {
        "tau_tau_prime_overlap": overlap,
        "tau_verdict": protocols.ordering_discriminate(tau),
        "tau_prime_verdict": protocols.ordering_discriminate(tau_prime),
        "mixture_verdict": protocols.ordering_discriminate(mixture),
    }, False


def _cmd_symspan(args, config: RunConfig):
    return protocols.sym_span_analysis(args.samples, sampling.RngStream(config.seed)), False


_SUITES = {
    "thm1": theorems.check_theorem1_suite,
    "thm2": theorems.check_theorem2_suite,
    "lemmas": theorems.check_lemmas_suite,
}


def _cmd_verify(args, config: RunConfig):
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    verdict = _SUITES[args.suite](args.trials, sampling.RngStream(config.seed))
    result = {
        "suite": args.suite,
        "trials": args.trials,
        "passed": verdict.passed,
        "detail": verdict.detail,
        "witness": verdict.witness,
    }
    return result, not verdict.passed


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    common.add_argument("--tol", type=float, default=1e-10, help="numerical tolerance (default 1e-10)")
    common.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")
    common.add_argument("--out", default=None, help="write output to this path instead of stdout")
    common.add_argument("--workers", type=int, default=1, help="sub-streams for shot loops (1 = reference)")

    parser = argparse.ArgumentParser(prog="meronome", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    state_input = argparse.ArgumentParser(add_help=False)
    state_input.add_argument("--state", required=True, help="re,im amplitude pairs; @file or - for stdin")
    state_input.add_argument("--split", required=True, help="bipartition as d1xd2")

    p = sub.add_parser("schmidt", parents=[common, state_input], help="Schmidt parameters of a state")
    p.set_defaults(handler=_cmd_schmidt)

    p = sub.add_parser("classify", parents=[common, state_input], help="entanglement class of a state")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("frame", parents=[common], help="frame-change unitaries")
    p.add_argument("kind", choices=("bell", "theta"))
    p.add_argument("--theta", type=float, default=None)
    p.set_defaults(handler=_cmd_frame)

    p = sub.add_parser("pauli-table", parents=[common], help="Bell-frame Pauli dictionary")
    p.set_defaults(handler=_cmd_pauli_table)

    p = sub.add_parser("twirl", parents=[common], help="Monte Carlo group twirl")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--split", default="2x2", help="bipartition as d1xd2 (default 2x2)")
    p.set_defaults(handler=_cmd_twirl)

    p = sub.add_parser("superdense", parents=[common], help="frame-independent one-bit signaling")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.set_defaults(handler=_cmd_superdense)

    p = sub.add_parser("lambda", parents=[common], help="Schmidt-parameter estimation from the invariant effect")
    p.add_argument("--lambda", type=float, required=True, help="smaller Schmidt parameter in [0, 0.5]")
    p.add_argument("--shots", type=int, required=True)
    p.set_defaults(handler=_cmd_lambda)

    p = sub.add_parser("refframe", parents=[common], help="symmetric-subspace reference measurement")
    p.add_argument("--n", type=int, required=True, help="number of reference copies")
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(handler=_cmd_refframe)

    p = sub.add_parser("ordering", parents=[common], help="pair-ordering discrimination signals")
    p.set_defaults(handler=_cmd_ordering)

    p = sub.add_parser("symspan", parents=[common], help="span of duplicated states in the symmetric subspace")
    p.add_argument("--samples", type=int, required=True)
    p.set_defaults(handler=_cmd_symspan)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("--suite", choices=tuple(_SUITES), required=True)
    p.add_argument("--trials", type=int, required=True)
    p.set_defaults(handler=_cmd_verify)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = RunConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)})
    except ValueError as exc:
        print(f"meronome: error: {exc}", file=sys.stderr)
        return 2

    echo = {k: v for k, v in vars(args).items() if k != "command" and not callable(v)}
    started = time.perf_counter()
    try:
        result, failed = args.handler(args, config)
    except ValueError as exc:
        print(parser.format_usage(), file=sys.stderr, end="")
        print(f"meronome: error: {exc}", file=sys.stderr)
        return 2
    elapsed_ms = (time.perf_counter() - started) * 1000.0

    payload = {
        "command": args.command,
        "config": _jsonify(echo),
        "result": _jsonify(result),
        "elapsed_ms": round(elapsed_ms, 3),
    }
    _emit(payload, config)
    return 1 if failed else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
