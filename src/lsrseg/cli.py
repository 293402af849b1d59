"""Command-line front end for reproducible segmentation runs.

Subcommands map to the moving parts: ``synth`` generates data, ``solve``
emits a coefficient matrix, ``segment`` runs the full pipeline and ``check``
machine-verifies the structural claims.

Every option is one ``RunConfig`` field: its flag (``--pca-dim``), its
environment variable (``LSRSEG_PCA_DIM``), its --config key, its parser
(from the field's annotation), its range (choices or a lower bound) and
the subcommands that take it all derive from that field; ``lam`` is
spelled ``--lambda``/``LSRSEG_LAMBDA``. A subcommand reads the environment
variables and config keys of its own options only and ignores the rest.
Every run writes its fully resolved configuration (defaults, presets and
seed included) next to the results; rerunning from that file reproduces
the outputs except for timings. Option resolution order is: explicit flag,
--config file, LSRSEG_* environment variable, preset, builtin default.
``check`` runs the claim suites of ``metrics`` at their fixed tolerances,
the same functions the acceptance tests call.
Exit codes: 0 ok, 1 I/O, 2 configuration, 3 numeric failure, 4 check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import types
import typing
from dataclasses import asdict, dataclass, field, fields
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


def _option(default, *commands: str, choices: tuple | None = None, minimum: int | None = None):
    """A RunConfig field that is also an option of ``commands``: a flag, an
    LSRSEG_* environment variable and a --config key, all read with the cast
    of its annotation and held to ``choices`` and to ``minimum``."""
    metadata = {"commands": commands, "choices": choices, "minimum": minimum}
    return field(default=default, metadata=metadata)


@dataclass
class RunConfig:
    """Fully resolved options for one run; serialized next to every output."""

    command: str
    input: str | None = _option(None, "solve", "segment")
    output: str | None = _option(None, "synth", "solve", "segment", "check")
    solver: str = _option("lsr1", "solve", "segment", choices=SOLVER_NAMES)
    lam: float = _option(1e-2, "solve", "segment")
    k: int | None = _option(None, "segment", minimum=1)
    pca_dim: int | None = _option(None, "solve", "segment", minimum=1)
    seed: int = _option(0, "synth", "segment", "check", minimum=0)
    restarts: int = _option(20, "segment", minimum=1)
    normalize_columns: bool = _option(False, "synth", "solve", "segment")
    preset: str | None = _option(None, "solve", "segment", choices=tuple(sorted(PRESETS)))
    ambient_dim: int | None = _option(None, "synth", minimum=1)
    dims: tuple[int, ...] | None = _option(None, "synth")
    samples: tuple[int, ...] | None = _option(None, "synth")
    mode: str = _option(
        datagen.INDEPENDENT, "synth", choices=(datagen.INDEPENDENT, datagen.ORTHOGONAL)
    )
    noise_sigma: float = _option(0.0, "synth")
    correlation: float | None = _option(None, "synth")
    spec_file: str | None = _option(None, "synth")
    trials: int = _option(200, "check", minimum=1)
    ebd_criterion: str | None = _option(None, "check", choices=tuple(metrics.EBD_TABLE))

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            choices, minimum = f.metadata.get("choices"), f.metadata.get("minimum")
            if choices and value not in choices:
                raise ConfigError(f"{f.name} must be one of {choices}, got {value!r}")
            if minimum is not None and value < minimum:
                raise ConfigError(f"{f.name} must be >= {minimum}, got {value!r}")
        if not np.isfinite(self.lam):
            raise ConfigError(f"lambda must be finite, got {self.lam}")
        if self.solver != solvers.CONSTRAINED and not self.lam > 0:
            raise ConfigError(f"lambda must be > 0 for {self.solver}, got {self.lam}")

    def to_dict(self) -> dict:
        return asdict(self)


def _parse_int_list(value) -> tuple[int, ...]:
    parts = value if isinstance(value, list) else value.split(",")
    try:
        return tuple(int(str(part)) for part in parts if str(part).strip())
    except ValueError:
        raise ConfigError(f"expected a comma-separated integer list, got {value!r}")


def _parse_bool(text) -> bool:
    word = str(text).strip().lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected true/false, yes/no, on/off or 1/0, got {text!r}")


def _annotation_cast(hint):
    """The parser of one annotated RunConfig type, ``X | None`` read as X."""
    if isinstance(hint, types.UnionType):
        (hint,) = (arg for arg in typing.get_args(hint) if arg is not type(None))
    if typing.get_origin(hint) is tuple:
        return _parse_int_list
    return _parse_bool if hint is bool else hint


# option name -> cast; every RunConfig field but `command` is an option
_CASTS = {
    name: _annotation_cast(hint)
    for name, hint in typing.get_type_hints(RunConfig).items()
    if name != "command"
}


def _options(command: str) -> list:
    """The RunConfig fields that are options of ``command``, in field order."""
    return [f for f in fields(RunConfig) if command in f.metadata.get("commands", ())]


# Flags and env names spell the field name, except --lambda / LSRSEG_LAMBDA.
_RENAMED = {"lam": "lambda"}


def _flag(name: str) -> str:
    return "--" + _RENAMED.get(name, name).replace("_", "-")


def _env_value(name: str):
    return os.environ.get(ENV_PREFIX + _RENAMED.get(name, name).upper())


def _cast(name: str, raw):
    """Parse an env or --config value as its flag's text would be parsed;
    a JSON list is one integer list."""
    try:
        return _CASTS[name](raw if isinstance(raw, list) else str(raw))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name} value {raw!r}: {exc}") from None


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    stored: dict = {}
    if getattr(args, "config", None):
        loaded = json.loads(Path(args.config).read_text())
        stored = loaded.get("config", loaded) if isinstance(loaded, dict) else None
        if not isinstance(stored, dict):
            raise ConfigError(f"{args.config} holds no configuration object")

    def given(name: str):
        """The flag, else --config, else environment value of an option."""
        value = getattr(args, name, None)
        if value is not None:
            return value
        raw = stored.get(name)
        if raw is None:
            raw = _env_value(name)
        return None if raw is None else _cast(name, raw)

    values = {f.name: given(f.name) for f in _options(args.command)}
    preset = PRESETS.get(values.get("preset"), {})
    values = {name: preset.get(name) if v is None else v for name, v in values.items()}
    return RunConfig(args.command, **{n: v for n, v in values.items() if v is not None})


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
        return solvers.lsr_constrained(data)
    if cfg.solver == solvers.LSR1:
        return solvers.lsr1(data, cfg.lam)
    return solvers.lsr2(data, cfg.lam)


def _prepared_input(
    cfg: RunConfig, times: dict[str, float]
) -> tuple[datagen.DataMatrix, ingest.DatasetManifest | None]:
    """Load --input (CSV or manifest), then unit columns and PCA as the flags,
    else the manifest, ask; loading and PCA are timed into ``times``."""
    if cfg.input is None:
        raise ConfigError("--input is required")
    t0 = time.perf_counter()
    manifest = None
    if str(cfg.input).endswith(".json"):
        manifest = ingest.DatasetManifest.load(cfg.input)
        # A relative data path is relative to the manifest, not the cwd.
        manifest.path = str(Path(cfg.input).parent / manifest.path)
    data = ingest.load_csv(manifest or cfg.input)
    times["load"] = time.perf_counter() - t0

    if cfg.normalize_columns or (manifest and manifest.normalize_columns):
        data = ingest.unit_columns(data)
    pca_dim = cfg.pca_dim or (manifest and manifest.pca_dim)
    if pca_dim:
        t0 = time.perf_counter()
        data = ingest.pca_project(data, pca_dim)
        times["pca"] = time.perf_counter() - t0
    return data, manifest


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_synth(cfg: RunConfig) -> int:
    """generate a synthetic union-of-subspaces dataset"""
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
    """emit the coefficient matrix without clustering"""
    if cfg.output is None:
        raise ConfigError("--output is required for solve")
    data, _ = _prepared_input(cfg, {})
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
    data, manifest = _prepared_input(cfg, times)
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
    """full pipeline: solve, affinity, cluster, score"""
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

def cmd_check(cfg: RunConfig) -> int:
    """run the structural verification suites"""
    if cfg.ebd_criterion:
        f, nonneg, _ = metrics.EBD_TABLE[cfg.ebd_criterion]
        res = metrics.check_ebd(
            f, trials=cfg.trials, seed=cfg.seed, nonnegative=nonneg, name=cfg.ebd_criterion
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
        metrics.ebd_conditions_suite(cfg.trials, cfg.seed),
        metrics.oracle_equivalence_suite(max(10, cfg.trials // 4), cfg.seed, n_max=80),
        metrics.grouping_bound_suite(max(10, cfg.trials // 2), cfg.seed),
        metrics.block_diagonality_suite(10, cfg.seed),
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


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------

DISPATCH = {
    "synth": cmd_synth,
    "solve": cmd_solve,
    "segment": cmd_segment,
    "check": cmd_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsrseg",
        description="Subspace segmentation via least squares regression.",
    )
    parser.add_argument("--version", action="version", version=f"lsrseg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, run in DISPATCH.items():
        p = sub.add_parser(command, help=run.__doc__)
        p.add_argument("--config", help="JSON output of a previous run to rerun from")
        for f in _options(command):
            if _CASTS[f.name] is _parse_bool:
                p.add_argument(_flag(f.name), dest=f.name, action="store_true", default=None)
            else:
                p.add_argument(_flag(f.name), dest=f.name, type=_CASTS[f.name],
                               choices=f.metadata["choices"])
    return parser


_NUMERIC_ERRORS = (
    linalg.DimensionMismatch,
    linalg.NonFiniteMatrix,
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
