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
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import frames, linalg, protocols, sampling, theorems


def _json_default(value):
    """Enums by value, dataclasses by field, complex as [re, im], numpy through tolist()."""
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
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


def _render(payload: dict, fmt: str) -> str:
    """JSON, or key,value CSV rows flattened from that JSON; a non-finite float raises ValueError."""
    text = json.dumps(payload, indent=2, default=_json_default, allow_nan=False) + "\n"
    if fmt == "json":
        return text
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows([("key", "value"), *_flatten(json.loads(text))])
    return buf.getvalue()


def _read_state_text(spec: str) -> str:
    if spec == "-":
        return sys.stdin.read()
    if spec.startswith("@"):
        return Path(spec[1:]).read_text()
    return spec


def _parse_state(text: str) -> np.ndarray:
    amps = []
    for token in text.split():
        try:
            re_part, im_part = token.split(",")
            amps.append(complex(float(re_part), float(im_part)))
        except ValueError:
            raise ValueError(f"bad amplitude {token!r}; expected re,im") from None
    if not amps:
        raise ValueError("empty state")
    return np.array(amps, dtype=np.complex128)


def _parse_split(text: str) -> linalg.BipartiteSplit:
    match = re.fullmatch(r"(\d+)x(\d+)", text)
    if not match:
        raise ValueError(f"bad split {text!r}; expected d1xd2")
    return linalg.BipartiteSplit(int(match[1]), int(match[2]))


def _load_state(args) -> tuple[linalg.StateVector, linalg.BipartiteSplit, float]:
    split = _parse_split(args.split)
    amps = _parse_state(_read_state_text(args.state))
    if amps.shape[0] != split.dim:
        raise ValueError(f"state has {amps.shape[0]} amplitudes, split wants {split.dim}")
    with np.errstate(over="ignore"):
        norm = float(np.hypot.reduce(np.abs(amps)))  # no underflow; overflows only past the float range
    if math.isinf(norm) and np.isfinite(amps).all():
        raise ValueError(f"state norm exceeds the largest float ({sys.float_info.max:.6g}); rescale the amplitudes")
    return linalg.StateVector.normalized(amps), split, norm


# ---------------------------------------------------------------- handlers

def _cmd_schmidt(args):
    state, split, norm = _load_state(args)
    dec = frames.schmidt_decompose(state, split)
    err = float(np.linalg.norm(dec.reconstruct().amps - state.amps))
    return {"input_norm": norm, "params": dec.params, "reconstruction_error": err}, False


def _cmd_classify(args):
    state, split, norm = _load_state(args)
    dec = frames.schmidt_decompose(state, split)
    cls = frames.classify(state, split, args.tol)
    return {"input_norm": norm, "classification": cls, "params": dec.params}, False


def _cmd_frame(args):
    if args.kind == "bell":
        if args.theta is not None:
            raise ValueError("--theta applies only to frame theta")
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


def _cmd_pauli_table(args):
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


def _cmd_twirl(args):
    split = _parse_split(args.split)
    psi = linalg.StateVector(np.eye(split.d1, split.d2).reshape(-1) / math.sqrt(min(split.d1, split.d2)))
    rng = sampling.seeded(args.seed)
    # spawn(k) gives the first k children of spawn(workers): streams past the sample count would draw nothing
    streams = rng if args.workers == 1 else rng.spawn(min(args.workers, args.samples))
    est = sampling.twirl_monte_carlo(psi, split, args.samples, streams)
    est.flat[:: split.dim + 1] -= 1.0 / split.dim  # the exact twirl of every input is the maximally mixed 1/D
    return {
        "samples": args.samples,
        "split": f"{split.d1}x{split.d2}",
        "frobenius_distance_to_uniform": float(np.linalg.norm(est)),
    }, False


def _cmd_superdense(args):
    rng = sampling.seeded(args.seed)
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


def _cmd_lambda(args):
    lam = getattr(args, "lambda")
    est = protocols.sample_lambda_measurement(lam, args.shots, sampling.seeded(args.seed))
    expected = lam * (1.0 - lam)
    sigma = math.sqrt(expected * (1.0 - expected) / args.shots)
    return {
        "lambda": lam,
        "estimate": est,
        "expected_p": expected,
        "binomial_sigma": sigma,
    }, False


def _cmd_refframe(args):
    rng = sampling.seeded(args.seed)
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


def _cmd_ordering(args):
    tau, tau_prime = protocols.tau_states()
    overlap = float(np.trace(tau.entries @ tau_prime.entries).real)
    mixture = linalg.DensityOperator((tau.entries + tau_prime.entries) / 2.0)
    return {
        "tau_tau_prime_overlap": overlap,
        "tau_verdict": protocols.ordering_discriminate(tau),
        "tau_prime_verdict": protocols.ordering_discriminate(tau_prime),
        "mixture_verdict": protocols.ordering_discriminate(mixture),
    }, False


def _cmd_symspan(args):
    return protocols.sym_span_analysis(args.samples, sampling.seeded(args.seed)), False


_SUITES = {
    "thm1": theorems.check_theorem1_suite,
    "thm2": theorems.check_theorem2_suite,
    "lemmas": theorems.check_lemmas_suite,
}


def _cmd_verify(args):
    verdict = _SUITES[args.suite](args.trials, sampling.seeded(args.seed))
    result = {
        "suite": args.suite,
        "trials": args.trials,
        "passed": verdict.passed,
        "detail": verdict.detail,
        "witness": verdict.witness,
    }
    return result, not verdict.passed


# ---------------------------------------------------------------- parser

def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text}")
    return value


def _bounded_integer(minimum: int, maximum: float, text: str) -> int:
    value = int(text)
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {text}")
    if value > maximum:
        raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {text}")
    return value


def _seed(text: str) -> int:
    return _bounded_integer(0, math.inf, text)


def _count(text: str) -> int:
    return _bounded_integer(1, math.inf, text)


_DENSE_DIM_CAP = 1024  # rows of superdense's d x d and of twirl's D x D estimate
_TWIRL_FACTOR_CAP = math.isqrt(_DENSE_DIM_CAP)  # twirl's d1, d2: a chunk draws 4096 (d1^2 + d2^2) Ginibre entries
_WORKERS_CAP = 64  # twirl sub-streams: it bounds the spawned Philox states, one per stream; rho is factored once per run
_SYMSPAN_CAP = 50_000  # symspan samples: sym_span_analysis holds about 0.9 KB per sample, 83 MB at the cap


def _dimension(text: str) -> int:
    return _bounded_integer(2, _DENSE_DIM_CAP, text)


def _workers(text: str) -> int:
    return _bounded_integer(1, _WORKERS_CAP, text)


def _symspan_samples(text: str) -> int:
    return _bounded_integer(20, _SYMSPAN_CAP, text)


def _twirl_split(text: str) -> str:
    try:
        split = _parse_split(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if split.dim > _DENSE_DIM_CAP:
        raise argparse.ArgumentTypeError(f"d1*d2 must be at most {_DENSE_DIM_CAP}, got {text}")
    for name, d in (("d1", split.d1), ("d2", split.d2)):
        if d > _TWIRL_FACTOR_CAP:
            raise argparse.ArgumentTypeError(f"{name} must be at most {_TWIRL_FACTOR_CAP}, got {text}")
    return text


def build_parser() -> argparse.ArgumentParser:
    # Each option goes only on the subcommands that read it: config echoes no value that was never applied.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")
    output.add_argument("--out", default=None, help="write output to this path instead of stdout")
    seeded = argparse.ArgumentParser(add_help=False, parents=[output])
    seeded.add_argument("--seed", type=_seed, default=0, help="random seed, an integer >= 0 (default 0)")
    state_input = argparse.ArgumentParser(add_help=False, parents=[output])
    state_input.add_argument("--state", required=True, help="re,im amplitude pairs; @file or - for stdin")
    state_input.add_argument("--split", required=True, help="bipartition as d1xd2")

    parser = argparse.ArgumentParser(prog="meronome", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schmidt", parents=[state_input], help="Schmidt parameters of a state")
    p.set_defaults(handler=_cmd_schmidt)

    p = sub.add_parser("classify", parents=[state_input], help="entanglement class of a state")
    p.add_argument("--tol", type=_positive_float, default=linalg.TOL_ALGEBRA, help="tolerance (default %(default)g)")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("frame", parents=[output], help="frame-change unitaries")
    p.add_argument("kind", choices=("bell", "theta"))
    p.add_argument("--theta", type=_finite_float, default=None)
    p.set_defaults(handler=_cmd_frame)

    p = sub.add_parser("pauli-table", parents=[output], help="Bell-frame Pauli dictionary")
    p.set_defaults(handler=_cmd_pauli_table)

    p = sub.add_parser("twirl", parents=[seeded], help="Monte Carlo group twirl")
    p.add_argument("--workers", type=_workers, default=1, help=f"random sub-streams, at most {_WORKERS_CAP} (default 1)")
    p.add_argument("--samples", type=_count, required=True)
    p.add_argument("--split", type=_twirl_split, default="2x2",
                   help=f"bipartition as d1xd2, d1*d2 <= {_DENSE_DIM_CAP} and d1, d2 <= {_TWIRL_FACTOR_CAP} (default 2x2)")
    p.set_defaults(handler=_cmd_twirl)

    p = sub.add_parser("superdense", parents=[seeded], help="frame-independent one-bit signaling")
    p.add_argument("--dim", type=_dimension, required=True)
    p.add_argument("--trials", type=_count, required=True)
    p.set_defaults(handler=_cmd_superdense)

    p = sub.add_parser("lambda", parents=[seeded], help="Schmidt-parameter estimation from the invariant effect")
    p.add_argument("--lambda", type=float, required=True, help="smaller Schmidt parameter in [0, 0.5]")
    p.add_argument("--shots", type=_count, required=True)
    p.set_defaults(handler=_cmd_lambda)

    p = sub.add_parser("refframe", parents=[seeded], help="symmetric-subspace reference measurement")
    p.add_argument("--n", type=_count, required=True, help="number of reference copies")
    p.add_argument("--dim", type=_dimension, required=True)
    p.set_defaults(handler=_cmd_refframe)

    p = sub.add_parser("ordering", parents=[output], help="pair-ordering discrimination signals")
    p.set_defaults(handler=_cmd_ordering)

    p = sub.add_parser("symspan", parents=[seeded], help="span of duplicated states in the symmetric subspace")
    p.add_argument("--samples", type=_symspan_samples, required=True, help=f"at least 20, at most {_SYMSPAN_CAP}")
    p.set_defaults(handler=_cmd_symspan)

    p = sub.add_parser("verify", parents=[seeded], help="run a verification suite")
    p.add_argument("--suite", choices=tuple(_SUITES), required=True)
    p.add_argument("--trials", type=_count, required=True)
    p.set_defaults(handler=_cmd_verify)

    for p in sub.choices.values():  # argparse alone reads -1e3 and -inf as options, not values
        p._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    config = {k: v for k, v in vars(args).items() if k != "command" and not callable(v)}
    started = time.perf_counter()
    try:
        result, failed = args.handler(args)
        elapsed_ms = round((time.perf_counter() - started) * 1000.0, 3)
        text = _render({"command": args.command, "config": config, "result": result, "elapsed_ms": elapsed_ms}, args.fmt)
        if args.out:
            Path(args.out).write_text(text)
    except (ValueError, OSError) as exc:  # OSError: a --state @path that cannot be read, an --out that cannot be written
        message = f"{exc.filename}: {exc.strerror}" if isinstance(exc, OSError) and exc.filename else exc
        print(parser.format_usage(), file=sys.stderr, end="")
        print(f"meronome: error: {message}", file=sys.stderr)
        return 2
    if not args.out:
        sys.stdout.write(text)
    return 1 if failed else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
