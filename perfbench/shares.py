#!/usr/bin/env python3
"""Compare the per-layer time shares of two traced runs, such as two seeds.

    python3 perfbench/shares.py .bench_work/results/verify-seed1-trace1.json \\
        .bench_work/results/verify-seed2-trace1.json

For every layer with a share in either run, prints both shares, their
difference and each run's pass-to-pass range of that share. A difference
no larger than the wider of the two ranges reads "same". Exits 1 when a
layer differs by more.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    runs = [json.loads(open(path).read()) for path in argv]
    differ = 0
    print(f"{'layer':34s} {'seed ' + str(runs[0]['seed']):>9s} {'seed ' + str(runs[1]['seed']):>9s}"
          f" {'diff':>7s} {'range':>7s}")
    for layer in runs[0]["shares"]:
        a, b = (run["shares"][layer] for run in runs)
        if max(a, b) == 0:
            continue
        spread = max(max(p) - min(p) for p in (run["share_passes"][layer] for run in runs))
        verdict = "same" if abs(a - b) <= spread else "DIFFERS"
        differ += verdict != "same"
        print(f"{layer:34s} {a:9.1%} {b:9.1%} {a - b:+7.1%} {spread:7.1%}  {verdict}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
