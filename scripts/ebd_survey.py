#!/usr/bin/env python3
"""Survey which representation criteria enforce block-diagonal minimizers.

Runs the three structural condition checks (permutation invariance,
diagonal-block dominance, block additivity) over random trials for every
built-in criterion plus a few generalized power criteria.
"""

import argparse

from lsrseg import metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    cases = [(name, f, nonneg) for name, (f, nonneg, _) in metrics.EBD_TABLE.items()]
    cases += [
        ("sum |Z|^0.5", metrics.power_criterion(0.5), False),
        ("(sum |Z|^2)^0.5", metrics.power_criterion(2.0, 0.5), False),
    ]

    print(f"{'criterion':<18} {'permutation':>11} {'dominance':>9} {'additivity':>10}")
    for name, f, nonneg in cases:
        res = metrics.check_ebd(
            f, trials=args.trials, seed=args.seed, nonnegative=nonneg, name=name
        )
        print(
            f"{name:<18} {str(res.permutation_invariance_pass):>11} "
            f"{str(res.diagonal_dominance_pass):>9} {str(res.additivity_pass):>10}"
        )


if __name__ == "__main__":
    main()
