"""Command-line driver: every experiment runnable with a seed and machine-readable output.

Output is one JSON object (or flattened CSV rows) on stdout or --out.  With a
fixed seed the payload is reproducible apart from the elapsed_ms field.  Every
value is parsed and checked once, a --split into a BipartiteSplit, before the handler runs.
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
    """Enums by value, a split as its d1xd2 text, dataclasses by field, complex as [re, im], numpy through tolist()."""
    if isinstance(value, linalg.BipartiteSplit):
        return str(value)
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


def _load_state(args) -> tuple[linalg.StateVector, float]:
    amps = _parse_state(_read_state_text(args.state))
    if amps.shape[0] != args.split.dim:
        raise ValueError(f"state has {amps.shape[0]} amplitudes, split wants {args.split.dim}")
    with np.errstate(over="ignore"):
        norm = float(np.hypot.reduce(np.abs(amps)))  # no underflow; overflows only past the float range
    if math.isinf(norm) and np.isfinite(amps).all():
        raise ValueError(f"state norm exceeds the largest float ({sys.float_info.max:.6g}); rescale the amplitudes")
    return linalg.StateVector.normalized(amps), norm


# ---------------------------------------------------------------- handlers

def _cmd_schmidt(args):
    state, norm = _load_state(args)
    dec = frames.schmidt_decompose(state, args.split)
    err = float(np.linalg.norm(dec.reconstruct().amps - state.amps))
    return {"input_norm": norm, "params": dec.params, "reconstruction_error": err}, False


def _cmd_classify(args):
    state, norm = _load_state(args)
    dec = frames.schmidt_decompose(state, args.split)
    cls = frames.classify(state, args.split, args.tol)
    return {"input_norm": norm, "classification": cls, "params": dec.params}, False


def _cmd_frame(args):
    if args.kind == "bell":
        u, result = frames.bell_frame_unitary(), {"kind": "bell"}
    else:
        u, result = frames.theta_frame_unitary(args.theta), {"kind": "theta", "theta": args.theta}
    result.update({"unitary": u.entries, "unitary_defect": linalg.unitary_defect(u.entries)})
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
    split = args.split
    psi = linalg.StateVector(np.eye(split.d1, split.d2).reshape(-1) / math.sqrt(min(split.d1, split.d2)))
    est = sampling.twirl_monte_carlo(psi, split, args.samples, sampling.seeded(args.seed), args.workers)
    est.flat[:: split.dim + 1] -= 1.0 / split.dim  # the exact twirl of every input is the maximally mixed 1/D
    return {
        "samples": args.samples,
        "split": split,
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
    protocols._sym_classes(args.dim, args.n + 1)  # raises at the joint dense cap before any draw; the table is cached
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

def _finite_float(minimum: float = -math.inf, maximum: float = math.inf):
    """argparse type for a finite float in [minimum, maximum]; argparse names the option in front of each message."""

    def finite_float(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan  # not a number: the same message as nan
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
        if not minimum <= value <= maximum:
            raise argparse.ArgumentTypeError(f"must lie in [{minimum:g}, {maximum:g}], got {text}")
        return value

    return finite_float


def _classify_tol(text: str) -> float:  # frames.classify takes a tol in the open interval (0, 1/4)
    value = _finite_float()(text)
    if not 0.0 < value < 0.25:
        raise argparse.ArgumentTypeError(f"must lie in (0, 0.25), got {text}")
    return value


def _integer(minimum: int, maximum: float = math.inf):
    """argparse type for an integer in [minimum, maximum]; argparse names the option in front of each message."""

    def integer(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {text}")
        if value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {text}")
        return value

    return integer


def _split(factor_cap: float = math.inf):
    """argparse type for a d1xd2 split with d1, d2 <= factor_cap: the one parse, into the BipartiteSplit handlers read."""

    def split(text: str) -> linalg.BipartiteSplit:
        match = re.fullmatch(r"(\d+)x(\d+)", text)
        try:
            if not match:
                raise ValueError(f"bad split {text!r}; expected d1xd2")
            parsed = linalg.BipartiteSplit(int(match[1]), int(match[2]))
        except ValueError as exc:  # a 0 factor: BipartiteSplit's own message
            raise argparse.ArgumentTypeError(str(exc)) from None
        for name, d in (("d1", parsed.d1), ("d2", parsed.d2)):
            if d > factor_cap:
                raise argparse.ArgumentTypeError(f"{name} must be at most {factor_cap}, got {text}")
        return parsed

    return split


_DENSE_DIM_CAP = 1024  # rows of superdense's d x d and of twirl's D x D estimate
_TWIRL_FACTOR_CAP = math.isqrt(_DENSE_DIM_CAP)  # twirl's d1, d2: a chunk draws 4096 (d1^2 + d2^2) Ginibre entries
_WORKERS_CAP = 64  # twirl sub-streams: it bounds the spawned Philox states, one per stream; rho is factored once per run
_SYMSPAN_CAP = 50_000  # symspan samples: sym_span_analysis holds about 0.9 KB per sample, 83 MB at the cap


def build_parser() -> argparse.ArgumentParser:
    # Each option goes only on the subcommands that read it: config echoes no value that was never applied.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")
    output.add_argument("--out", default=None, help="write output to this path instead of stdout")
    seeded = argparse.ArgumentParser(add_help=False, parents=[output])
    seeded.add_argument("--seed", type=_integer(0), default=0, help="random seed, an integer >= 0 (default 0)")
    state_input = argparse.ArgumentParser(add_help=False, parents=[output])
    state_input.add_argument("--state", required=True, help="re,im amplitude pairs; @file or - for stdin")
    state_input.add_argument("--split", type=_split(), required=True, help="bipartition as d1xd2")

    parser = argparse.ArgumentParser(prog="meronome", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schmidt", parents=[state_input], help="Schmidt parameters of a state")
    p.set_defaults(handler=_cmd_schmidt)

    p = sub.add_parser("classify", parents=[state_input], help="entanglement class of a state")
    p.add_argument("--tol", type=_classify_tol, default=linalg.TOL_ALGEBRA, help="tolerance in (0, 0.25) (default %(default)g)")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("frame", help="frame-change unitaries")
    p.set_defaults(handler=_cmd_frame)
    kinds = p.add_subparsers(dest="kind", required=True)  # kinds alone take --format/--out: their defaults overwrite frame's
    kinds.add_parser("bell", parents=[output], help="the Bell-basis frame")
    kinds.add_parser("theta", parents=[output], help="the theta family").add_argument(
        "--theta", type=_finite_float(), required=True)

    p = sub.add_parser("pauli-table", parents=[output], help="Bell-frame Pauli dictionary")
    p.set_defaults(handler=_cmd_pauli_table)

    p = sub.add_parser("twirl", parents=[seeded], help="Monte Carlo group twirl")
    p.add_argument("--workers", type=_integer(1, _WORKERS_CAP), default=1,
                   help=f"random sub-streams, at most {_WORKERS_CAP} (default 1)")
    p.add_argument("--samples", type=_integer(1), required=True)
    p.add_argument("--split", type=_split(_TWIRL_FACTOR_CAP), default="2x2",
                   help=f"bipartition as d1xd2, d1, d2 <= {_TWIRL_FACTOR_CAP} (default 2x2)")
    p.set_defaults(handler=_cmd_twirl)

    p = sub.add_parser("superdense", parents=[seeded], help="frame-independent one-bit signaling")
    p.add_argument("--dim", type=_integer(2, _DENSE_DIM_CAP), required=True)
    p.add_argument("--trials", type=_integer(1), required=True)
    p.set_defaults(handler=_cmd_superdense)

    p = sub.add_parser("lambda", parents=[seeded], help="Schmidt-parameter estimation from the invariant effect")
    p.add_argument("--lambda", type=_finite_float(0.0, 0.5), required=True, help="smaller Schmidt parameter in [0, 0.5]")
    p.add_argument("--shots", type=_integer(1), required=True)
    p.set_defaults(handler=_cmd_lambda)

    p = sub.add_parser("refframe", parents=[seeded], help="symmetric-subspace reference measurement")
    p.add_argument("--n", type=_integer(1), required=True, help="number of reference copies")
    p.add_argument("--dim", type=_integer(2, math.isqrt(protocols._DIM_CAP)), required=True)  # dim^(n+1) <= the cap at n = 1
    p.set_defaults(handler=_cmd_refframe)

    p = sub.add_parser("ordering", parents=[output], help="pair-ordering discrimination signals")
    p.set_defaults(handler=_cmd_ordering)

    p = sub.add_parser("symspan", parents=[seeded], help="span of duplicated states in the symmetric subspace")
    p.add_argument("--samples", type=_integer(20, _SYMSPAN_CAP), required=True, help=f"at least 20, at most {_SYMSPAN_CAP}")
    p.set_defaults(handler=_cmd_symspan)

    p = sub.add_parser("verify", parents=[seeded], help="run a verification suite")
    p.add_argument("--suite", choices=tuple(_SUITES), required=True)
    p.add_argument("--trials", type=_integer(1), required=True)
    p.set_defaults(handler=_cmd_verify)

    for p in [*sub.choices.values(), *kinds.choices.values()]:  # argparse alone reads -1e3 and -inf as options, not values
        p._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)
        p.set_defaults(error=p.error)  # leftover words and handler errors go out under the subcommand's usage
    return parser


def run(argv=None) -> int:
    try:
        args, leftover = build_parser().parse_known_args(argv)
        if leftover:
            args.error(f"unrecognized arguments: {' '.join(leftover)}")
        config = {k: v for k, v in vars(args).items() if k != "command" and not callable(v)}
        started = time.perf_counter()
        try:
            result, failed = args.handler(args)
            elapsed_ms = round((time.perf_counter() - started) * 1000.0, 3)
            text = _render({"command": args.command, "config": config, "result": result, "elapsed_ms": elapsed_ms}, args.fmt)
            if args.out:
                Path(args.out).write_text(text)
        except (ValueError, OSError) as exc:  # OSError: a --state @path that cannot be read, an --out that cannot be written
            args.error(f"{exc.filename}: {exc.strerror}" if isinstance(exc, OSError) and exc.filename else str(exc))
    except SystemExit as exc:  # argparse's exit: 0 after --help, 2 after an error message
        return int(exc.code or 0)
    if not args.out:
        sys.stdout.write(text)
    return 1 if failed else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
