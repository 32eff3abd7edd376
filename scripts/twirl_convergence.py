#!/usr/bin/env python
"""Convergence of the Monte Carlo group twirl toward the uniform mixture.

Prints Frobenius distance to 1/4 for a growing number of sampled group
elements, one row per sample count, averaged over a few seeds.
"""
from __future__ import annotations

import argparse

import numpy as np

from meronome.cli import _integer
from meronome.linalg import BipartiteSplit, StateVector
from meronome.sampling import seeded, twirl_monte_carlo


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=_integer(1), default=5, help="number of independent seeds")
    parser.add_argument(
        "--counts",
        type=_integer(1),
        nargs="+",
        default=[100, 1_000, 10_000, 100_000],
        help="sample counts to evaluate",
    )
    args = parser.parse_args()

    split = BipartiteSplit(2, 2)
    bell = StateVector.normalized(np.array([1, 0, 0, 1], dtype=complex))
    target = np.eye(split.dim) / split.dim  # the exact twirl of every input

    print(f"{'samples':>10}  {'mean distance':>14}  {'max distance':>14}")
    for count in args.counts:
        distances = []
        for seed in range(args.seeds):
            estimate = twirl_monte_carlo(bell, split, count, seeded(seed))
            distances.append(np.linalg.norm(estimate - target))
        print(f"{count:>10}  {np.mean(distances):>14.6f}  {np.max(distances):>14.6f}")


if __name__ == "__main__":
    main()
