"""Command-line front end for reproducible segmentation runs.

Subcommands map to the moving parts: ``synth`` generates data, ``solve``
emits a coefficient matrix, ``segment`` runs the full pipeline, ``check``
machine-verifies the structural claims, ``bench`` times the solvers.

Every run writes its fully resolved configuration (defaults, presets and
seed included) next to the results; rerunning from that file reproduces
the outputs except for timings. Option resolution order is: explicit flag,
--config file, LSRSEG_* environment variable, preset, builtin default.
Exit codes: 0 ok, 1 I/O, 2 configuration, 3 numeric failure, 4 check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass, asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, datagen, ingest, linalg, metrics, solvers, spectral

ENV_PREFIX = "LSRSEG_"
EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CHECK = 4

SOLVER_NAMES = (solvers.CONSTRAINED, solvers.LSR1, solvers.LSR2)

PRESETS = {
    "hopkins-lsr1": {"solver": "lsr1", "lam": 4.8e-3, "pca_dim": 12},
    "hopkins-lsr2": {"solver": "lsr2", "lam": 4.6e-3, "pca_dim": 12},
    "yaleb5-lsr1": {"solver": "lsr1", "lam": 0.4, "pca_dim": 30},
    "yaleb5-lsr2": {"solver": "lsr2", "lam": 0.4, "pca_dim": 30},
    "yaleb10-lsr1": {"solver": "lsr1", "lam": 0.004, "pca_dim": 60},
    "yaleb10-lsr2": {"solver": "lsr2", "lam": 0.004, "pca_dim": 60},
}


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass
class RunConfig:
    """Fully resolved options for one run; serialized next to every output."""

    command: str
    input: str | None = None
    output: str | None = None
    solver: str = "lsr1"
    lam: float = 1e-2
    k: int | None = None
    pca_dim: int | None = None
    seed: int = 0
    restarts: int = 20
    normalize_columns: bool = False
    preset: str | None = None
    # synth-only
    ambient_dim: int | None = None
    dims: tuple[int, ...] | None = None
    samples: tuple[int, ...] | None = None
    mode: str = datagen.INDEPENDENT
    noise_sigma: float = 0.0
    correlation: float | None = None
    spec_file: str | None = None
    # check / bench
    trials: int = 200
    ebd_criterion: str | None = None
    sizes: tuple[int, ...] = (100, 200, 400)
    reps: int = 5
    # tolerance overrides
    tol_feasibility: float = 1e-8
    tol_sv: float = 1e-10
    tol_woodbury: float = 1e-8
    tol_grouping: float = 1e-9
    tol_block_diag: float = 1e-8
    tol_block_diag_orth: float = 1e-10

    def __post_init__(self):
        if self.solver not in SOLVER_NAMES:
            raise ConfigError(f"solver must be one of {SOLVER_NAMES}, got {self.solver!r}")
        if self.solver != solvers.CONSTRAINED and not self.lam > 0:
            raise ConfigError(f"lambda must be > 0 for {self.solver}, got {self.lam}")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.restarts < 1:
            raise ConfigError("restarts must be >= 1")
        if self.k is not None and self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.preset is not None and self.preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {self.preset!r}; available: {sorted(PRESETS)}"
            )

    def to_dict(self) -> dict:
        return asdict(self)


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in str(text).split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"expected a comma-separated integer list, got {text!r}")


def _parse_bool(text: str) -> bool:
    return str(text).strip().lower() in ("1", "true", "yes", "on")


# dest -> cast used when reading LSRSEG_<NAME> environment overrides
_ENV_CASTS = {
    "input": str,
    "output": str,
    "solver": str,
    "lam": float,
    "k": int,
    "pca_dim": int,
    "seed": int,
    "restarts": int,
    "normalize_columns": _parse_bool,
    "preset": str,
    "trials": int,
    "ebd_criterion": str,
    "reps": int,
    "sizes": _parse_int_list,
    "ambient_dim": int,
    "dims": _parse_int_list,
    "samples": _parse_int_list,
    "mode": str,
    "noise_sigma": float,
    "correlation": float,
    "spec_file": str,
    "tol_feasibility": float,
    "tol_sv": float,
    "tol_woodbury": float,
    "tol_grouping": float,
    "tol_block_diag": float,
    "tol_block_diag_orth": float,
}

# env var names follow the CLI flag spelling, e.g. --lambda -> LSRSEG_LAMBDA
_ENV_NAMES = {"lam": "LAMBDA"}


def _env_value(dest: str):
    return os.environ.get(ENV_PREFIX + _ENV_NAMES.get(dest, dest.upper()))


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    defaults = RunConfig(command=args.command)
    stored: dict = {}
    if getattr(args, "config", None):
        loaded = json.loads(Path(args.config).read_text())
        stored = loaded.get("config", loaded)
    preset_name = getattr(args, "preset", None)
    if preset_name is None:
        preset_name = stored.get("preset") or os.environ.get(ENV_PREFIX + "PRESET")
    preset_values = PRESETS.get(preset_name, {}) if preset_name else {}
    if preset_name and preset_name not in PRESETS:
        raise ConfigError(f"unknown preset {preset_name!r}; available: {sorted(PRESETS)}")

    resolved = {"command": args.command, "preset": preset_name}
    for dest, cast in _ENV_CASTS.items():
        if dest == "preset":
            continue
        value = getattr(args, dest, None)
        if value is None and dest in stored and stored[dest] is not None:
            value = stored[dest]
            if isinstance(value, list):
                value = tuple(value)
        if value is None:
            env = _env_value(dest)
            if env is not None:
                value = cast(env)
        if value is None and dest in preset_values:
            value = preset_values[dest]
        if value is None:
            value = getattr(defaults, dest, None)
        resolved[dest] = value
    return RunConfig(**resolved)


def _write_json(path, payload: dict) -> None:
    ingest.atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def _payload(cfg: RunConfig, **sections) -> dict:
    out = {
        "tool": "lsrseg",
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": cfg.to_dict(),
    }
    out.update(sections)
    return out


def _run_solver(cfg: RunConfig, data: datagen.DataMatrix) -> solvers.Coefficients:
    if cfg.solver == solvers.CONSTRAINED:
        return solvers.lsr_constrained(
            data, tol=cfg.tol_feasibility, sv_tol=cfg.tol_sv
        )
    if cfg.solver == solvers.LSR1:
        return solvers.lsr1(data, cfg.lam)
    return solvers.lsr2(data, cfg.lam)


def _load_input(cfg: RunConfig) -> tuple[datagen.DataMatrix, ingest.DatasetManifest | None]:
    if cfg.input is None:
        raise ConfigError("--input is required")
    if str(cfg.input).endswith(".json"):
        manifest = ingest.DatasetManifest.load(cfg.input)
        # A relative data path is relative to the manifest, not the cwd.
        manifest.path = str(Path(cfg.input).parent / manifest.path)
        return ingest.load_csv(manifest), manifest
    return ingest.load_csv(cfg.input), None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_synth(cfg: RunConfig) -> int:
    if cfg.output is None:
        raise ConfigError("--output is required for synth")
    if cfg.spec_file:
        spec = datagen.SubspaceSpec.load(cfg.spec_file)
    else:
        if cfg.ambient_dim is None or cfg.dims is None or cfg.samples is None:
            raise ConfigError("synth needs --spec-file or --ambient-dim/--dims/--samples")
        spec = datagen.SubspaceSpec(
            ambient_dim=cfg.ambient_dim,
            subspace_dims=cfg.dims,
            samples_per_subspace=cfg.samples,
            mode=cfg.mode,
            noise_sigma=cfg.noise_sigma,
            correlation=cfg.correlation,
            seed=cfg.seed,
            normalize_columns=cfg.normalize_columns,
        )
    data, bases = datagen.generate(spec)
    ingest.write_csv(data, cfg.output)
    spec_path = str(cfg.output) + ".spec.json"
    _write_json(
        spec_path,
        _payload(
            cfg,
            spec=spec.to_dict(),
            independent=datagen.is_independent(bases),
            orthogonal=datagen.is_orthogonal(bases),
        ),
    )
    print(
        f"wrote {data.ambient_dim}x{data.n_samples} dataset to {cfg.output} "
        f"(spec: {spec_path})"
    )
    return EXIT_OK


def cmd_solve(cfg: RunConfig) -> int:
    if cfg.output is None:
        raise ConfigError("--output is required for solve")
    data, manifest = _load_input(cfg)
    if cfg.normalize_columns or (manifest and manifest.normalize_columns):
        data = ingest.unit_columns(data)
    pca_dim = cfg.pca_dim or (manifest.pca_dim if manifest else None)
    if pca_dim:
        data = ingest.pca_project(data, pca_dim)
    coeffs = _run_solver(cfg, data)
    ingest.write_csv(coeffs.z, cfg.output)
    _write_json(
        str(cfg.output) + ".meta.json",
        _payload(cfg, variant=coeffs.variant, n=coeffs.n, lam=coeffs.lam),
    )
    print(f"wrote {coeffs.n}x{coeffs.n} coefficient matrix to {cfg.output}")
    return EXIT_OK


def run_segmentation(cfg: RunConfig) -> metrics.SegmentationReport:
    """The segment pipeline: load, preprocess, solve, cluster, score."""
    times: dict[str, float] = {}
    t0 = time.perf_counter()
    data, manifest = _load_input(cfg)
    times["load"] = time.perf_counter() - t0

    if cfg.normalize_columns or (manifest and manifest.normalize_columns):
        data = ingest.unit_columns(data)
    pca_dim = cfg.pca_dim or (manifest.pca_dim if manifest else None)
    if pca_dim:
        t0 = time.perf_counter()
        data = ingest.pca_project(data, pca_dim)
        times["pca"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    coeffs = _run_solver(cfg, data)
    times["solve"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    affinity = spectral.build_affinity(coeffs)
    times["affinity"] = time.perf_counter() - t0

    k = cfg.k
    if k is None and manifest and manifest.expected_k:
        k = manifest.expected_k
    if k is None and data.labels is not None:
        k = int(np.unique(data.labels).size)
    if k is None:
        raise ConfigError("--k is required when the dataset carries no labels")

    t0 = time.perf_counter()
    labeling = spectral.normalized_cuts(affinity, k, seed=cfg.seed, restarts=cfg.restarts)
    times["cluster"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if data.labels is not None:
        error_rate, mapping = metrics.align_clusters(labeling, data.labels)
        violation = metrics.block_diag_violation(coeffs, data.labels)
        truth_available = True
    else:
        error_rate, mapping = None, None
        violation = metrics.block_diag_violation(coeffs, labeling.labels)
        truth_available = False
    times["metrics"] = time.perf_counter() - t0

    return metrics.SegmentationReport(
        error_rate=error_rate,
        aligned_permutation=mapping,
        block_diag_violation=violation,
        wall_times=times,
        n_samples=data.n_samples,
        n_clusters=k,
        predicted_labels=[int(v) for v in labeling.labels],
        truth_available=truth_available,
        degenerate_affinity=labeling.degenerate,
        eigen_tie=labeling.eigen_tie,
        zero_degree=labeling.zero_degree,
    )


def cmd_segment(cfg: RunConfig) -> int:
    report = run_segmentation(cfg)
    payload = _payload(cfg, report=report.to_dict())
    if cfg.output:
        _write_json(cfg.output, payload)
    err = "n/a" if report.error_rate is None else f"{report.error_rate:.4f}"
    print(
        f"segment: n={report.n_samples} k={report.n_clusters} error={err} "
        f"block_diag_violation={report.block_diag_violation:.3e}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# check: machine verification of the structural claims
# ---------------------------------------------------------------------------

def _suite_ebd(trials: int, seed: int) -> dict:
    results, failures = [], []
    for name, (f, nonneg, expected) in metrics.EBD_TABLE.items():
        res = metrics.check_ebd(f, trials=trials, seed=seed, nonnegative=nonneg, name=name)
        actual = (
            res.permutation_invariance_pass,
            res.diagonal_dominance_pass,
            res.additivity_pass,
        )
        ok = actual == expected
        if name == "rank" and ok and "dominance" not in res.counterexamples:
            ok = False  # the expected failure must carry a witness
        results.append({"criterion": name, "expected": expected, "actual": actual, "ok": ok})
        if not ok:
            failures.append({"criterion": name, "result": res.to_dict()})
    return {
        "name": "ebd-conditions",
        "passed": not failures,
        "results": results,
        "witness": failures[0] if failures else None,
    }


def _suite_woodbury(trials: int, seed: int, tol: float) -> dict:
    rng = np.random.default_rng(seed)
    worst, witness = 0.0, None
    for trial in range(trials):
        d = int(rng.integers(2, 31))
        n = int(rng.integers(3, 81))
        lam = float(10 ** rng.uniform(-4, 1))
        x = rng.standard_normal((d, n))
        gap = float(
            np.max(np.abs(solvers.lsr1(x, lam).z - solvers.column_oracle_ridge(x, lam).z))
        )
        if gap > worst:
            worst = gap
            witness = {"trial": trial, "d": d, "n": n, "lam": lam, "gap": gap}
    return {
        "name": "woodbury-equivalence",
        "passed": worst <= tol,
        "max_gap": worst,
        "tolerance": tol,
        "witness": None if worst <= tol else witness,
    }


def _suite_grouping(trials: int, seed: int, tol: float) -> dict:
    rng = np.random.default_rng(seed)
    worst, witness = -np.inf, None
    for trial in range(trials):
        d = int(rng.integers(2, 16))
        n = int(rng.integers(2, 21))
        lam = float(rng.choice([0.01, 0.1, 1.0]))
        x = rng.standard_normal((d, n))
        x /= np.linalg.norm(x, axis=0)
        y = rng.standard_normal(d)
        report = solvers.grouping_bound_report(x, y, lam)
        violation = report.max_slack_violation
        if violation > worst:
            worst = violation
            witness = {"trial": trial, "d": d, "n": n, "lam": lam, "violation": violation}
    return {
        "name": "grouping-bound",
        "passed": worst <= tol,
        "max_violation": worst,
        "tolerance": tol,
        "witness": None if worst <= tol else witness,
    }


def _suite_block_diag(seed: int, tol_indep: float, tol_orth: float, specs: int = 10) -> dict:
    rng = np.random.default_rng(seed)
    worst_indep, worst_orth, witness = 0.0, 0.0, None
    for trial in range(specs):
        k = int(rng.choice([2, 3, 4]))
        dims = tuple(int(rng.integers(1, 4)) for _ in range(k))
        spec = datagen.SubspaceSpec(
            ambient_dim=sum(dims) + 2,
            subspace_dims=dims,
            samples_per_subspace=tuple(d + 3 for d in dims),
            mode=datagen.INDEPENDENT,
            seed=int(rng.integers(0, 2**31)),
        )
        data, _ = datagen.generate(spec)
        violation = metrics.block_diag_violation(
            solvers.lsr_constrained(data), data.labels
        )
        if violation > worst_indep:
            worst_indep = violation
            witness = {"case": "independent", "trial": trial, "violation": violation}
        # Insufficient sampling (n_i < d_i) on alternating trials; dims >= 3
        # there so every block keeps >= 2 samples and the relative violation
        # ratio has genuine within-block mass in its denominator.
        if trial % 2 == 0:
            odims = tuple(int(rng.integers(3, 5)) for _ in range(k))
            osamples = tuple(d - 1 for d in odims)
        else:
            odims = dims
            osamples = tuple(d + 2 for d in odims)
        ospec = datagen.SubspaceSpec(
            ambient_dim=sum(odims) + 2,
            subspace_dims=odims,
            samples_per_subspace=osamples,
            mode=datagen.ORTHOGONAL,
            seed=int(rng.integers(0, 2**31)),
        )
        odata, _ = datagen.generate(ospec)
        for solve in (solvers.lsr1, solvers.lsr2):
            violation = metrics.block_diag_violation(solve(odata, 0.1), odata.labels)
            if violation > worst_orth:
                worst_orth = violation
                witness = {"case": "orthogonal", "trial": trial, "violation": violation}
    passed = worst_indep <= tol_indep and worst_orth <= tol_orth
    return {
        "name": "block-diagonality",
        "passed": passed,
        "max_independent_violation": worst_indep,
        "max_orthogonal_violation": worst_orth,
        "tolerances": {"independent": tol_indep, "orthogonal": tol_orth},
        "witness": None if passed else witness,
    }


def cmd_check(cfg: RunConfig) -> int:
    if cfg.ebd_criterion:
        if cfg.ebd_criterion not in metrics.CRITERIA:
            raise ConfigError(
                f"unknown criterion {cfg.ebd_criterion!r}; available: "
                f"{sorted(metrics.CRITERIA)}"
            )
        res = metrics.check_ebd(
            metrics.CRITERIA[cfg.ebd_criterion],
            trials=cfg.trials,
            seed=cfg.seed,
            nonnegative=cfg.ebd_criterion in metrics.NONNEGATIVE_CRITERIA,
            name=cfg.ebd_criterion,
        )
        payload = _payload(cfg, result=res.to_dict())
        if cfg.output:
            _write_json(cfg.output, payload)
        ok = res.passes()
        print(
            f"ebd {cfg.ebd_criterion}: permutation={res.permutation_invariance_pass} "
            f"dominance={res.diagonal_dominance_pass} additivity={res.additivity_pass}"
        )
        if not ok:
            print(json.dumps(res.counterexamples, indent=2), file=sys.stderr)
        return EXIT_OK if ok else EXIT_CHECK

    suites = [
        _suite_ebd(cfg.trials, cfg.seed),
        _suite_woodbury(max(10, cfg.trials // 4), cfg.seed, cfg.tol_woodbury),
        _suite_grouping(max(10, cfg.trials // 2), cfg.seed, cfg.tol_grouping),
        _suite_block_diag(cfg.seed, cfg.tol_block_diag, cfg.tol_block_diag_orth),
    ]
    for suite in suites:
        print(f"check {suite['name']}: {'pass' if suite['passed'] else 'FAIL'}")
    payload = _payload(cfg, suites=suites)
    if cfg.output:
        _write_json(cfg.output, payload)
    failing = [s for s in suites if not s["passed"]]
    if failing:
        print(json.dumps(failing[0].get("witness"), indent=2), file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def cmd_bench(cfg: RunConfig) -> int:
    timed = {
        "lsr1": lambda x: solvers.lsr1(x, cfg.lam),
        "lsr2": lambda x: solvers.lsr2(x, cfg.lam),
        "column_oracle_ridge": lambda x: solvers.column_oracle_ridge(x, cfg.lam),
    }
    d = cfg.ambient_dim or 12
    rows = []
    for n in cfg.sizes:
        rng = np.random.default_rng([cfg.seed, n])
        x = rng.standard_normal((d, n))
        medians = {}
        for name, run in timed.items():
            samples = []
            for _ in range(cfg.reps):
                t0 = time.perf_counter()
                run(x)
                samples.append(time.perf_counter() - t0)
            medians[name] = statistics.median(samples)
        rows.append((n, medians))

    lines = ["n,solver,median_seconds"]
    for n, medians in rows:
        for name, seconds in medians.items():
            lines.append(f"{n},{name},{seconds:.6f}")
    table = "\n".join(lines) + "\n"
    if cfg.output:
        ingest.atomic_write_text(cfg.output, table)
        _write_json(str(cfg.output) + ".meta.json", _payload(cfg))
    print(table, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsrseg",
        description="Subspace segmentation via least squares regression.",
    )
    parser.add_argument("--version", action="version", version=f"lsrseg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON output of a previous run to rerun from")
        p.add_argument("--input")
        p.add_argument("--output")
        p.add_argument("--solver", choices=SOLVER_NAMES)
        p.add_argument("--lambda", dest="lam", type=float)
        p.add_argument("--k", type=int)
        p.add_argument("--pca-dim", dest="pca_dim", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--restarts", type=int)
        p.add_argument("--preset", choices=sorted(PRESETS))
        p.add_argument("--normalize-columns", dest="normalize_columns",
                       action="store_true", default=None)
        p.add_argument("--tol-feasibility", dest="tol_feasibility", type=float)
        p.add_argument("--tol-sv", dest="tol_sv", type=float)

    p_synth = sub.add_parser("synth", help="generate a synthetic union-of-subspaces dataset")
    common(p_synth)
    p_synth.add_argument("--spec-file", dest="spec_file")
    p_synth.add_argument("--ambient-dim", dest="ambient_dim", type=int)
    p_synth.add_argument("--dims", type=_parse_int_list)
    p_synth.add_argument("--samples", type=_parse_int_list)
    p_synth.add_argument("--mode", choices=(datagen.INDEPENDENT, datagen.ORTHOGONAL))
    p_synth.add_argument("--noise-sigma", dest="noise_sigma", type=float)
    p_synth.add_argument("--correlation", type=float)

    p_solve = sub.add_parser("solve", help="emit the coefficient matrix without clustering")
    common(p_solve)

    p_segment = sub.add_parser("segment", help="full pipeline: solve, affinity, cluster, score")
    common(p_segment)

    p_check = sub.add_parser("check", help="run the structural verification suites")
    common(p_check)
    p_check.add_argument("--trials", type=int)
    p_check.add_argument("--ebd-criterion", dest="ebd_criterion",
                         choices=sorted(metrics.CRITERIA))
    p_check.add_argument("--tol-woodbury", dest="tol_woodbury", type=float)
    p_check.add_argument("--tol-grouping", dest="tol_grouping", type=float)
    p_check.add_argument("--tol-block-diag", dest="tol_block_diag", type=float)
    p_check.add_argument("--tol-block-diag-orth", dest="tol_block_diag_orth", type=float)

    p_bench = sub.add_parser("bench", help="time the solvers over a size grid")
    common(p_bench)
    p_bench.add_argument("--sizes", type=_parse_int_list)
    p_bench.add_argument("--ambient-dim", dest="ambient_dim", type=int)
    p_bench.add_argument("--reps", type=int)

    return parser


DISPATCH = {
    "synth": cmd_synth,
    "solve": cmd_solve,
    "segment": cmd_segment,
    "check": cmd_check,
    "bench": cmd_bench,
}

_NUMERIC_ERRORS = (
    linalg.DimensionMismatch,
    linalg.NotPositiveDefinite,
    linalg.ConvergenceFailure,
    solvers.NonPositiveLambda,
    solvers.InfeasibleColumn,
    solvers.UnnormalizedColumn,
    ingest.DimensionError,
    metrics.LengthMismatch,
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return DISPATCH[args.command](cfg)
    except ingest.ParseError as exc:
        print(f"lsrseg: input error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"lsrseg: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except _NUMERIC_ERRORS as exc:
        print(f"lsrseg: numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, datagen.SpecInfeasible, ValueError) as exc:
        print(f"lsrseg: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
