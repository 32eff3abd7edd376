#!/usr/bin/env python
"""Run every verification suite of `meronome verify` across several seeds and report verdicts.

Exits nonzero if any suite fails, printing the failing detail and the
shape of the witness it returned.
"""
from __future__ import annotations

import argparse
import sys

from meronome.cli import _SUITES, _integer
from meronome.sampling import seeded


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=_integer(1), default=100)
    parser.add_argument("--seeds", type=_integer(0), nargs="+", default=[0, 1, 2])
    args = parser.parse_args()

    failures = 0
    for name, suite in _SUITES.items():
        for seed in args.seeds:
            verdict = suite(args.trials, seeded(seed))
            status = "ok" if verdict.passed else "FAIL"
            print(f"{name:<8} seed={seed:<4} {status}  {verdict.detail}")
            if not verdict.passed:
                failures += 1
                if verdict.witness is not None:
                    print(f"  witness shape: {verdict.witness.shape}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
