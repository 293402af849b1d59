#!/usr/bin/env python3
"""Sweep noise level x regularization weight on synthetic subspace unions.

Prints a table of mean segmentation error over seeds for each (sigma, lam)
cell, for both closed-form solvers.
"""

import argparse
import tempfile
from pathlib import Path

import numpy as np

from lsrseg import cli, datagen, ingest


def run_cell(sigma, lam, solver, seeds, spec_kwargs, workdir):
    """Mean error of `lsrseg segment` over seeds, each dataset written to a
    CSV in `workdir` and segmented with `solver` at weight `lam`."""
    path = Path(workdir) / "data.csv"
    errors = []
    for seed in seeds:
        spec = datagen.SubspaceSpec(
            noise_sigma=sigma, seed=seed, normalize_columns=sigma > 0, **spec_kwargs
        )
        data, _ = datagen.generate(spec)
        ingest.write_csv(data, path)
        cfg = cli.RunConfig("segment", input=str(path), solver=solver, lam=lam)
        errors.append(cli.run_segmentation(cfg).error_rate)
    return float(np.mean(errors))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sigmas", default="0,0.01,0.05,0.1")
    parser.add_argument("--lambdas", default="1e-4,1e-3,1e-2,1e-1")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--ambient-dim", type=int, default=10)
    parser.add_argument("--subspace-dim", type=int, default=2)
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument("--samples", type=int, default=20)
    args = parser.parse_args()

    sigmas = [float(v) for v in args.sigmas.split(",")]
    lambdas = [float(v) for v in args.lambdas.split(",")]
    seeds = range(args.seeds)
    spec_kwargs = dict(
        ambient_dim=args.ambient_dim,
        subspace_dims=(args.subspace_dim,) * args.k,
        samples_per_subspace=(args.samples,) * args.k,
        mode=datagen.INDEPENDENT,
    )

    with tempfile.TemporaryDirectory() as workdir:
        for solver in ("lsr1", "lsr2"):
            print(f"\n{solver}: mean segmentation error over {args.seeds} seeds")
            header = "sigma\\lam " + " ".join(f"{lam:>9.1e}" for lam in lambdas)
            print(header)
            for sigma in sigmas:
                row = [f"{sigma:<9.3f}"]
                for lam in lambdas:
                    err = run_cell(sigma, lam, solver, seeds, spec_kwargs, workdir)
                    row.append(f"{err:>9.4f}")
                print(" ".join(row))


if __name__ == "__main__":
    main()
