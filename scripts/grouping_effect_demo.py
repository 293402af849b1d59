#!/usr/bin/env python3
"""Show how ridge coefficients of correlated columns converge as lam grows.

Generates highly correlated samples inside one subspace, solves the ridge
representation for several lam values, and prints the worst pairwise
coefficient gap against the theoretical bound sqrt(2(1-r)) / lam.
"""

import argparse

from lsrseg import datagen, metrics, solvers


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--correlation", type=float, default=0.95)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    spec = datagen.SubspaceSpec(
        ambient_dim=12,
        subspace_dims=(3, 3),
        samples_per_subspace=(15, 15),
        correlation=args.correlation,
        seed=args.seed,
        normalize_columns=True,
    )
    data, _ = datagen.generate(spec)

    print(f"{'lam':>8} {'max |z_i - z_j|':>16} {'max lhs/rhs':>12} {'bound holds':>12}")
    for lam in (0.01, 0.1, 1.0, 10.0):
        coeffs = solvers.lsr2(data, lam)
        summary = metrics.grouping_effect_stats(coeffs, data)
        print(
            f"{lam:>8.2f} {summary.max_row_gap:>16.6f} {summary.max_ratio:>12.6f} "
            f"{str(summary.bound_holds()):>12}"
        )


if __name__ == "__main__":
    main()
