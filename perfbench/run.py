"""Benchmark of the meronome command line: four workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload lambda --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 10     # every workload, one report

Each workload is one `python -m meronome.cli <subcommand>` command, run as
a child process with PYTHONPATH=src.  The loop is closed: one client, one
child at a time, the next spawned after the previous one is reaped, until
the next child would end after --seconds.  --seed is passed through to the
CLI unchanged; the program sees only the generated arguments.

With --trace 0 every child runs untraced and the end-to-end metrics are
medians over the children:

    wall_s       spawn to reap
    handler_s    payload elapsed_ms / 1000 (subcommand handler only)
    setup_s      wall_s - handler_s: interpreter start, imports, argparse,
                 emission and exit
    cpu_s        the child's ru_utime + ru_stime, from os.wait4
    peak_rss_mb  the child's own ru_maxrss / 1024, from os.wait4
    work_per_s   workload units (shots, samples, rounds or trials) / handler_s

failed_frac (children that exit non-zero, print an unparseable payload or
fail the workload's correctness check, over children attempted) is printed
in the report and carried by the result line's `failed` and `attempted`.

With --trace 1 untraced children alternate with traced ones
(perfbench/tracer.py), which wrap the public functions of linalg, frames,
sampling, protocols, theorems and cli from outside the package.  The
per-layer metrics come from the traced child whose handler time is the
median; trace.overhead_s is the traced median handler time minus the
untraced one.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from tracer import HANDLER, ROOT, TARGETS

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
CLI_SOURCE = REPO / "src" / "meronome" / "cli.py"
REFERENCE_DIGESTS = BENCH_DIR / "reference_digests.json"

# A child still running after this long is killed and counted as failed.
# With a 30 s window and at most two children started at its end, a run
# with hung children still reports and exits within three minutes.
CHILD_TIMEOUT_S = 60.0

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


# ---------------------------------------------------------------- workloads

def _check_lambda(result: dict) -> Optional[str]:
    deviation = abs(result["estimate"]["p_hat"] - result["expected_p"])
    limit = 5.0 * result["binomial_sigma"]
    if deviation > limit:
        return f"|p_hat - expected_p| = {deviation:.3g} exceeds 5 binomial sigma = {limit:.3g}"
    return None


def _check_twirl(result: dict) -> Optional[str]:
    # The Monte Carlo twirl of a pure state on a D-dimensional split has
    # E||estimate - 1/D||_F^2 = (1 - 1/D) / samples; allow twice its root.
    d1, d2 = (int(part) for part in result["split"].split("x"))
    distance = result["frobenius_distance_to_uniform"]
    limit = 2.0 * math.sqrt((1.0 - 1.0 / (d1 * d2)) / result["samples"])
    if not distance < limit:
        return f"distance to uniform {distance:.3g} is not below {limit:.3g}"
    return None


def _check_superdense(result: dict) -> Optional[str]:
    if result["all_success"] is not True:
        return f"{result['successes']} of {result['rounds']} rounds decoded"
    return None


def _check_verify(result: dict) -> Optional[str]:
    if result["passed"] is not True:
        return f"suite failed: {result['detail']}"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    # Where the result block holds the count work_per_s divides; its last
    # key names the unit.
    unit_path: tuple[str, ...]
    check: Callable[[dict], Optional[str]]
    # Traced functions that must record calls; a traced run without them
    # means the wrappers missed a namespace, and the run fails.
    expected: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lambda",
            ("lambda", "--lambda", "0.25", "--shots", "1000000"),
            ("estimate", "shots"),
            _check_lambda,
            ("protocols.sample_lambda_measurement", "sampling.haar_unitary_batch"),
        ),
        Workload(
            "twirl",
            ("twirl", "--samples", "200000", "--split", "3x3", "--workers", "2"),
            ("samples",),
            _check_twirl,
            ("sampling.twirl_monte_carlo", "sampling.haar_unitary_batch"),
        ),
        Workload(
            "superdense",
            ("superdense", "--dim", "16", "--trials", "300"),
            ("rounds",),
            _check_superdense,
            (
                "protocols.superdense_round",
                "sampling.random_maxent_state",
                "sampling.random_m_element",
                "sampling.haar_unitary_batch",
            ),
        ),
        Workload(
            "verify",
            ("verify", "--suite", "thm1", "--trials", "300"),
            ("trials",),
            _check_verify,
            (
                "theorems.check_theorem1_suite",
                "theorems.schmidt_preservation_check",
                "theorems.member_recognition_check",
                "theorems.nonmember_product_check",
                "frames.schmidt_decompose",
                "frames.classify",
                "frames.factor_as_local",
            ),
        ),
    )
}


# ---------------------------------------------------------------- metrics

END_TO_END = (
    ("wall_s", "s"),
    ("handler_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
)

# Unit and better direction of each tracer counter.  A *_ratio counter is
# summed per call and reported as a share of calls.
_COUNTERS = {
    "out_bytes": ("B", "lower"),
    "flops": ("flop", "lower"),
    "matrices": ("count", "lower"),
    "samples": ("count", "higher"),
    "shots": ("count", "higher"),
    "member_ratio": ("ratio", "higher"),
}


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for _, _, name, counter in TARGETS:
        spec += [(f"{name}.calls", "count", "lower"), (f"{name}.total_s", "s", "lower"), (f"{name}.self_s", "s", "lower")]
        if counter is not None:
            spec.append((f"{name}.{counter[0]}", *_COUNTERS[counter[0]]))
    spec += [
        ("cli.import_s", "s", "lower"),
        (f"{ROOT}.self_s", "s", "lower"),
        (f"{HANDLER}.self_s", "s", "lower"),
        ("cli.output_bytes", "B", "lower"),
        ("trace.handler_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return spec


def layer_metrics(record: dict, untraced_handler_s: float) -> dict[str, float]:
    """Per-layer values of one traced child, keyed as in per_layer_spec()."""
    layers, counters = record["layers"], record["counters"]
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    values: dict[str, float] = {}
    for _, _, name, counter in TARGETS:
        agg = layers.get(name, empty)
        for key in ("calls", "total_s", "self_s"):
            values[f"{name}.{key}"] = agg[key]
        if counter is not None:
            metric = f"{name}.{counter[0]}"
            amount = counters.get(metric, 0)
            if metric.endswith("_ratio"):
                amount = amount / agg["calls"] if agg["calls"] else 0.0
            values[metric] = amount
    handler_s = record["payload"]["elapsed_ms"] / 1000.0
    values["cli.import_s"] = record["import_s"]
    values[f"{ROOT}.self_s"] = layers[ROOT]["self_s"]
    values[f"{HANDLER}.self_s"] = layers[HANDLER]["self_s"]
    values["cli.output_bytes"] = record["output_bytes"]
    values["trace.handler_s"] = handler_s
    values["trace.overhead_s"] = handler_s - untraced_handler_s
    return values


# ---------------------------------------------------------------- children

def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd: list[str]):
    """Run cmd to completion; return (exit code, stdout, stderr, wall seconds, rusage).

    The child is reaped with os.wait4, so the rusage is its own, not the
    running maximum over every child that getrusage(RUSAGE_CHILDREN) gives.
    """
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=REPO, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            # The CLI writes stderr only for short error messages, so
            # reading stdout first cannot fill the stderr pipe.
            out = proc.stdout.read()
            err = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
    return proc.returncode, out, err, wall, usage


@dataclass
class Attempt:
    error: Optional[str]
    wall_s: float = 0.0
    handler_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    units: int = 0
    digest: str = ""
    record: Optional[dict] = None  # the tracer's output, for traced children

    @property
    def metrics(self) -> dict[str, float]:
        return {
            "wall_s": self.wall_s,
            "handler_s": self.handler_s,
            "setup_s": self.wall_s - self.handler_s,
            "cpu_s": self.cpu_s,
            "peak_rss_mb": self.peak_rss_mb,
            "work_per_s": self.units / self.handler_s,
        }


def digest(result: dict) -> str:
    canonical = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def attempt(workload: Workload, seed: int, traced: bool) -> Attempt:
    """One child run of the workload, checked for correctness."""
    argv = [*workload.argv, "--seed", str(seed)]
    entry = [str(BENCH_DIR / "tracer.py")] if traced else ["-m", "meronome.cli"]
    rc, out, err, wall, usage = spawn([sys.executable, *entry, *argv])
    if rc != 0:
        return Attempt(f"exit code {rc}: {err.decode(errors='replace').strip()[-300:]}")
    try:
        record = json.loads(out) if traced else None
        payload = record["payload"] if traced else json.loads(out)
        if traced and record["rc"] != 0:
            return Attempt(f"traced CLI exit code {record['rc']}")
        result = payload["result"]
        handler_s = payload["elapsed_ms"] / 1000.0
        units = result
        for key in workload.unit_path:
            units = units[key]
        error = workload.check(result)
    except (ValueError, KeyError, TypeError) as exc:
        return Attempt(f"unreadable payload: {exc!r}")
    if error is None and payload["config"].get("seed") != seed:
        error = f"payload echoes seed {payload['config'].get('seed')!r}, expected {seed}"
    return Attempt(
        error,
        wall_s=wall,
        handler_s=handler_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        units=int(units),
        digest=digest(result),
        record=record,
    )


def closed_loop(workload: Workload, seed: int, seconds: float, trace: bool) -> list[Attempt]:
    """Children back to back until the next would end after `seconds`.

    Untraced, every child is untraced.  Traced, untraced and traced
    children alternate, so both see the same machine state.
    """
    kinds = (False, True) if trace else (False,)
    deadline = time.perf_counter() + seconds
    attempts: list[Attempt] = []
    cycles: list[float] = []
    while not cycles or time.perf_counter() + statistics.median(cycles) <= deadline:
        began = time.perf_counter()
        attempts += [attempt(workload, seed, traced) for traced in kinds]
        cycles.append(time.perf_counter() - began)
    return attempts


# ---------------------------------------------------------------- reporting

def summary(values: list[float]) -> tuple[float, float, float]:
    """Median, first and third quartile (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def provenance() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown"
    if (REPO / ".git").exists():
        git = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or commit
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_thread_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def _reference_digest(workload: Workload, seed: int) -> Optional[str]:
    if not REFERENCE_DIGESTS.is_file():
        return None
    return json.loads(REFERENCE_DIGESTS.read_text()).get(workload.name, {}).get(str(seed))


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return its report: metrics, counts and digests."""
    attempts = closed_loop(workload, seed, seconds, trace)
    ok = [a for a in attempts if a.error is None]
    untraced = [a for a in ok if a.record is None]
    traced = [a for a in ok if a.record is not None]
    report = {
        "workload": workload.name,
        "argv": [*workload.argv, "--seed", str(seed)],
        "unit": workload.unit_path[-1],
        "attempted": len(attempts),
        "failed": len(attempts) - len(ok),
        "errors": sorted({a.error for a in attempts if a.error is not None}),
        "digests": sorted({a.digest for a in ok}),
        "reference_digest": _reference_digest(workload, seed),
        "stats": {},
        "metrics": {},
    }
    if not untraced or (trace and not traced):
        return report
    for name, unit in END_TO_END:
        median, q1, q3 = summary([a.metrics[name] for a in untraced])
        report["stats"][name] = {"median": median, "q1": q1, "q3": q3, "n": len(untraced), "unit": unit}
    if not trace:
        report["metrics"] = {name: (report["stats"][name]["median"], unit) for name, unit in END_TO_END}
        return report
    # The traced child with the median handler time (lower middle for an even
    # count) supplies every per-layer value, so that they add up within one run.
    middle = sorted(traced, key=lambda a: a.handler_s)[(len(traced) - 1) // 2]
    values = layer_metrics(middle.record, report["stats"]["handler_s"]["median"])
    missing = [name for name in workload.expected if values[f"{name}.calls"] == 0]
    if missing:
        raise SystemExit(f"perfbench: traced {workload.name} recorded no calls to {', '.join(missing)}")
    report["traced_runs"] = len(traced)
    report["metrics"] = {name: (values[name], unit) for name, unit, _ in per_layer_spec()}
    return report


def print_report(report: dict) -> None:
    print(f"workload {report['workload']}: meronome {' '.join(report['argv'])} (work unit: {report['unit']})")
    for name, s in report["stats"].items():
        print(f"  {name:<12} {s['median']:.6g} {s['unit']}  [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}]  n={s['n']}")
    failed_frac = report["failed"] / report["attempted"]
    print(f"  {'failed_frac':<12} {failed_frac:.6g} ratio  ({report['failed']} of {report['attempted']} runs)")
    for error in report["errors"]:
        print(f"  error: {error}")
    digests = report["digests"]
    if len(digests) > 1:
        print(f"  result digest CHANGED between repeats: {', '.join(digests)}")
    elif digests:
        reference = report["reference_digest"]
        verdict = "no reference" if reference is None else ("matches reference" if reference == digests[0] else f"DIFFERS from reference {reference}")
        print(f"  result digest {digests[0]} ({verdict})")
    if "traced_runs" in report:
        print(f"  per-layer values from the median of {report['traced_runs']} traced runs:")
        for name, (value, unit) in report["metrics"].items():
            print(f"    {name:<52} {value:.6g} {unit}")


def result_line(reports: list[dict], prefix: bool) -> dict:
    metrics = {}
    for report in reports:
        for name, (value, unit) in report["metrics"].items():
            metrics[f"{report['workload']}.{name}" if prefix else name] = {"value": value, "unit": unit}
    failed = sum(r["failed"] for r in reports)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not CLI_SOURCE.is_file():
        print(f"perfbench: {CLI_SOURCE.relative_to(REPO)} not found; run from a full checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    # One untimed call compiles the package and warms the file cache.
    warm = spawn([sys.executable, "-m", "meronome.cli", "--help"])
    if warm[0] != 0:
        print(f"perfbench: meronome.cli does not start: {warm[2].decode(errors='replace')}", file=sys.stderr)
        return 2

    reports = []
    for name in names:
        report = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print_report(report)
        if not report["metrics"]:
            print(f"perfbench: no successful run of {name}", file=sys.stderr)
            return 1
        reports.append(report)
    print("provenance " + json.dumps({"seed": args.seed, **provenance()}))
    print(json.dumps(result_line(reports, prefix=len(reports) > 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
