#!/usr/bin/env python
"""Estimate Schmidt parameters from the invariant-effect measurement.

For each lambda on a grid, runs the disguised two-copy measurement and
prints the hit rate against the predicted lambda*(1-lambda), plus the
inverted estimate of lambda itself.
"""
from __future__ import annotations

import argparse
import math

from meronome.protocols import sample_lambda_measurement
from meronome.sampling import seeded


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shots", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--points", type=int, default=11, help="grid points on [0, 0.5]")
    args = parser.parse_args()

    print(f"{'lambda':>8}  {'p = l(1-l)':>10}  {'p_hat':>10}  {'lambda_hat':>10}  {'pull':>6}")
    for i in range(args.points):
        lam = 0.5 * i / (args.points - 1)
        est = sample_lambda_measurement(lam, args.shots, seeded(args.seed + i))
        p = lam * (1 - lam)
        sigma = math.sqrt(p * (1 - p) / args.shots) if 0 < p < 1 else float("nan")
        pull = (est.p_hat - p) / sigma if sigma == sigma else 0.0
        print(f"{lam:>8.3f}  {p:>10.5f}  {est.p_hat:>10.5f}  {est.lambda_hat:>10.5f}  {pull:>6.2f}")


if __name__ == "__main__":
    main()
