"""Traced run of one meronome CLI call, timed from outside the package.

Usage (from the repository root, with the package on the path):

    PYTHONPATH=src python perfbench/tracer.py <meronome subcommand and flags>

The script imports meronome.cli, wraps the public functions listed in
TARGETS in every meronome namespace that holds them, runs the command
in-process and prints one JSON line: the exit code, the payload the CLI
emitted, the import time and, per wrapped function, its call count, total
time, self time and computed counters.  Self time is a span's duration
minus the part of it covered by child spans; all spans stay in memory
until the command returns.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import sys
import time
from collections import defaultdict

_MEMBER_VERDICTS = ("Local", "SwapLocal")


# (module, attribute path, metric name, counter).  A counter is None or
# (suffix, function of (original function, args, kwargs, result) giving
# the amount to add to <metric name>.<suffix> per call).
TARGETS = (
    ("linalg", "kron", "linalg.kron",
     ("out_bytes", lambda fn, a, k, r: r.entries.nbytes)),
    ("linalg", "Operator.__matmul__", "linalg.Operator.matmul",
     ("flops", lambda fn, a, k, r: 8 * a[0].entries.shape[0] * a[0].entries.shape[1] * a[1].entries.shape[1])),
    ("linalg", "Operator.apply", "linalg.Operator.apply", None),
    ("linalg", "permutation_operator", "linalg.permutation_operator", None),
    ("frames", "MeronomicElement.to_operator", "frames.MeronomicElement.to_operator",
     ("out_bytes", lambda fn, a, k, r: r.entries.nbytes)),
    ("frames", "swap_operator", "frames.swap_operator", None),
    ("frames", "apply_element", "frames.apply_element", None),
    ("frames", "schmidt_decompose", "frames.schmidt_decompose", None),
    ("frames", "classify", "frames.classify", None),
    ("frames", "factor_as_local", "frames.factor_as_local",
     ("member_ratio", lambda fn, a, k, r: int(r.verdict.value in _MEMBER_VERDICTS))),
    ("sampling", "haar_unitary_batch", "sampling.haar_unitary_batch",
     ("matrices", lambda fn, a, k, r: r.shape[0])),
    ("sampling", "twirl_monte_carlo", "sampling.twirl_monte_carlo",
     ("samples", lambda fn, a, k, r: inspect.signature(fn).bind(*a, **k).arguments["n"])),
    ("sampling", "random_state", "sampling.random_state", None),
    ("sampling", "random_m_element", "sampling.random_m_element", None),
    ("sampling", "random_maxent_state", "sampling.random_maxent_state", None),
    ("protocols", "sample_lambda_measurement", "protocols.sample_lambda_measurement",
     ("shots", lambda fn, a, k, r: r.shots)),
    ("protocols", "superdense_round", "protocols.superdense_round", None),
    ("theorems", "check_theorem1_suite", "theorems.check_theorem1_suite", None),
    ("theorems", "schmidt_preservation_check", "theorems.schmidt_preservation_check", None),
    ("theorems", "member_recognition_check", "theorems.member_recognition_check", None),
    ("theorems", "nonmember_product_check", "theorems.nonmember_product_check", None),
)

# Every subcommand handler in cli is timed under one name, so that
# cli.run's self time is what the CLI does around the handler.
HANDLER = "cli.handler"
ROOT = "cli.run"


class Tracer:
    """Records (name, start, end, parent) spans for wrapped calls."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name, fn, counter=None):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counter is not None:
                suffix, amount = counter
                counters[f"{name}.{suffix}"] += amount(fn, args, kwargs, result)
            return result

        return traced

    def layers(self) -> dict[str, dict[str, float]]:
        """Per-name calls, total_s and self_s, summed over spans.

        Self time adds up the gaps between a span's children; spans are
        stored in start order, so each gap is a difference of ordered clock
        readings and never negative.
        """
        cursor = [start for _, start, _, _ in self.spans]
        self_s = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                self_s[parent] += start - cursor[parent]
                cursor[parent] = end
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += self_s[i] + (end - cursor[i])
        return out


def _replace_everywhere(modules, original, wrapper) -> int:
    """Point every module global (and module-level dict value) holding `original` at `wrapper`."""
    replaced = 0
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
                replaced += 1
            elif isinstance(value, dict):
                for dkey, dvalue in list(value.items()):
                    if dvalue is original:
                        value[dkey] = wrapper
                        replaced += 1
    return replaced


def install(tracer: Tracer, cli) -> None:
    """Wrap every TARGETS entry and every cli handler in all meronome namespaces."""
    modules = [m for n, m in sorted(sys.modules.items()) if n == "meronome" or n.startswith("meronome.")]
    for module_name, path, name, counter in TARGETS:
        owner = sys.modules[f"meronome.{module_name}"]
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        original = vars(owner)[attr]
        wrapper = tracer.wrap(name, original, counter)
        if classes:
            setattr(owner, attr, wrapper)
        elif _replace_everywhere(modules, original, wrapper) == 0:
            raise RuntimeError(f"{name} was not found in any meronome namespace")
    for key, value in list(vars(cli).items()):
        if key.startswith("_cmd_") and inspect.isfunction(value):
            setattr(cli, key, tracer.wrap(HANDLER, value))


def main(argv: list[str]) -> int:
    started = time.perf_counter()
    import meronome.cli as cli

    import_s = time.perf_counter() - started
    tracer = Tracer()
    install(tracer, cli)
    run = tracer.wrap(ROOT, cli.run)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        rc = run(argv)
    text = captured.getvalue()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        payload = None
    record = {
        "rc": rc,
        "payload": payload,
        "import_s": import_s,
        "output_bytes": len(text.encode()),
        "layers": tracer.layers(),
        "counters": tracer.counters,
    }
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
