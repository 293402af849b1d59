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

    rows = [
        (row["criterion"], row["counterexamples"])
        for row in metrics.ebd_conditions_suite(args.trials, args.seed)["results"]
    ]
    rows += [
        (name, metrics.check_ebd(f, trials=args.trials, seed=args.seed))
        for name, f in (
            ("sum |Z|^0.5", metrics.power_criterion(0.5)),
            ("(sum |Z|^2)^0.5", metrics.power_criterion(2.0, 0.5)),
        )
    ]

    print(f"{'criterion':<18} {'permutation':>11} {'dominance':>9} {'additivity':>10}")
    for name, failed in rows:
        print(
            f"{name:<18} {str('permutation' not in failed):>11} "
            f"{str('dominance' not in failed):>9} {str('additivity' not in failed):>10}"
        )


if __name__ == "__main__":
    main()
