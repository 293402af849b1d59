#!/usr/bin/env python3
"""lsrseg benchmark: end-to-end metrics per workload, or per-layer metrics
from a traced run.

    python3 perfbench/run.py --workload segment-large --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 32 --trace 1

Run from the root of a source checkout; the program is imported from
``src/``. Every operation goes through ``lsrseg.cli.main`` in this process,
one after another (one client, closed loop). A pass runs every call of the
workload once; passes repeat until ``--seconds`` is used up. Inputs are
generated from ``--seed``; each call's output is checked, and a call that
exits nonzero or fails its check counts as failed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes, adds one tracemalloc pass for per-span memory,
and reports the per-layer metrics. ``--workload all`` runs every workload in
its own process. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; lines before it give the
environment and a readable table. Full results (environment, per-pass
times, layer shares, spans) go to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("segment-large", "paper-batch", "verify")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3

# (name, unit) of every end-to-end metric, reported with --trace 0.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("seg_accuracy", "frac"),
    ("ok_frac", "frac"),
)

# Per-layer metrics, reported with --trace 1. Times are per traced pass.
LAYER_S = (
    "ingest.load_csv", "ingest.pca_project", "solvers.lsr1", "linalg.solve_spd",
    "solvers.lsr2", "linalg.sym_eigen", "spectral.build_affinity", "spectral.kmeans",
    "solvers.lsr_constrained", "linalg.pseudo_inverse", "solvers.column_oracle_ridge",
    "solvers.grouping_bound_report", "metrics.check_ebd", "metrics.align_clusters",
    "metrics.block_diag_violation",
)
LAYER_SELF_S = ("spectral.normalized_cuts", "cli.main")
LAYER_CALLS = (
    "ingest.load_csv", "linalg.solve_spd", "linalg.as_matrix", "spectral.kmeans",
    "linalg.pseudo_inverse",
)
LAYER_PEAK = (
    "solvers.lsr1", "solvers.lsr2", "spectral.build_affinity", "spectral.normalized_cuts",
)
PER_LAYER = (
    [(f"{name}.s", "s") for name in LAYER_S]
    + [(f"{name}.self_s", "s") for name in LAYER_SELF_S]
    + [(f"{name}.calls", "count") for name in LAYER_CALLS]
    + [(f"{name}.peak_nxn", "nxn") for name in LAYER_PEAK]
    + [
        ("ingest.load_csv.mb_per_s", "MB/s"),
        ("linalg.solve_spd.gflop", "Gflop"),
        ("linalg.sym_eigen.eigpairs", "count"),
        ("linalg.sym_eigen.eigpairs_used", "count"),
        ("linalg.as_matrix.copy_mb", "MB"),
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)

# What each workload exists to show, checked against the layer shares.
DESIGN = {
    "segment-large": ("linalg.sym_eigen", "solvers.lsr1"),
    "paper-batch": ("ingest.load_csv",),
    "verify": ("solvers.lsr_constrained", "solvers.column_oracle_ridge", "metrics.check_ebd"),
}


def cap_threads() -> None:
    """Cap BLAS threads at the cores this process may use; call before numpy loads."""
    cores = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = cores


def import_program():
    """Import lsrseg from this checkout's ``src/``; exit nonzero when it is missing."""
    src = ROOT / "src"
    if not (src / "lsrseg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lsrseg sources under {src}")
    sys.path.insert(0, str(src))
    import lsrseg
    from lsrseg import cli, ingest, linalg, metrics, solvers, spectral

    if Path(lsrseg.__file__).resolve().parent != src / "lsrseg":
        sys.exit(f"perfbench: imported lsrseg from {lsrseg.__file__}, not from {src}")
    return {"ingest": ingest, "solvers": solvers, "linalg": linalg,
            "spectral": spectral, "metrics": metrics, "cli": cli}


IMPORT_PROBE = (
    "import sys, time; start = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
    "import lsrseg.cli, spans, workloads; print(time.perf_counter() - start)"
)


def time_import() -> float:
    """Seconds a fresh interpreter takes to import the program and this benchmark."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(HERE)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_pass(cli, calls) -> tuple[float, list]:
    """Run every call once; return the pass wall time and each call's outcome."""
    from workloads import Outcome, check_output

    codes = []
    start = time.perf_counter()
    for call in calls:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = cli.main(call.argv)
            except Exception as exc:  # a crash is a failed operation, not a dead benchmark
                code = f"{type(exc).__name__}: {exc}"
        codes.append((code, sink.getvalue()))
    wall = time.perf_counter() - start
    outcomes = []
    for call, (code, text) in zip(calls, codes):
        try:
            outcome = check_output(call, code)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            outcome = Outcome(False, f"unreadable output: {exc}")
        if not outcome.ok:
            outcome.reason += " | " + text.strip()[-300:]
        outcomes.append(outcome)
    return wall, outcomes


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def _tally(passes, calls) -> dict:
    """Count failures, check labels repeat across passes, score segment calls."""
    attempted = failed = 0
    errors, reasons = [], []
    reference = {}
    for _, outcomes in passes:
        for call, outcome in zip(calls, outcomes):
            attempted += 1
            if outcome.ok and outcome.labels is not None:
                first = reference.setdefault(call.name, outcome.labels)
                if outcome.labels != first:
                    outcome.ok, outcome.reason = False, "labels differ from the first pass"
            if outcome.error is not None:
                errors.append(outcome.error)
            if not outcome.ok:
                failed += 1
                reasons.append(f"{call.name}: {outcome.reason}")
    seg_error = statistics.fmean(errors) if errors else 1.0
    return {"attempted": attempted, "failed": failed, "seg_error": seg_error,
            "reasons": reasons[:20]}


def layer_metrics(tracer, memory_tracer, walls, traced_walls) -> dict:
    from spans import layer_totals, peak_nxn

    passes = len(tracer.pass_starts)
    inclusive, own = layer_totals(tracer.spans)
    counts = tracer.counters
    peaks = peak_nxn(memory_tracer.spans)
    out = {f"{n}.s": inclusive.get(n, 0.0) / passes for n in LAYER_S}
    out.update({f"{n}.self_s": own.get(n, 0.0) / passes for n in LAYER_SELF_S})
    out.update({f"{n}.calls": counts.get(f"{n}.calls", 0) / passes for n in LAYER_CALLS})
    out.update({f"{n}.peak_nxn": peaks.get(n, 0.0) for n in LAYER_PEAK})
    load_s = inclusive.get("ingest.load_csv", 0.0)
    out["ingest.load_csv.mb_per_s"] = (
        counts.get("ingest.load_csv.bytes", 0) / 1e6 / load_s if load_s else 0.0
    )
    out["linalg.solve_spd.gflop"] = counts.get("linalg.solve_spd.flops", 0) / 1e9 / passes
    for key in ("linalg.sym_eigen.eigpairs", "linalg.sym_eigen.eigpairs_used"):
        out[key] = counts.get(key, 0) / passes
    out["linalg.as_matrix.copy_mb"] = (
        counts.get("linalg.as_matrix.copy_bytes", 0) / 1e6 / passes
    )
    out["trace.wall_s"] = statistics.median(traced_walls)
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(walls)
    return out


def pass_shares(tracer, traced_walls) -> dict:
    """Per layer, its inclusive time as a share of each traced pass's wall time."""
    from spans import layer_totals

    bounds = tracer.pass_starts + [len(tracer.spans)]
    out = {name: [] for name in LAYER_S}
    for p, wall in enumerate(traced_walls):
        inclusive, _ = layer_totals(tracer.spans, range(bounds[p], bounds[p + 1]))
        for name in LAYER_S:
            out[name].append(inclusive.get(name, 0.0) / wall)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 program: dict, smoke: bool = False) -> dict:
    """Set up, measure and check one workload; return the full result."""
    from spans import Tracer
    from workloads import WORKLOADS

    cli = program["cli"]
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    setup_times = []

    def set_up():
        """Import in a fresh interpreter, then build and write the inputs."""
        import_s = time_import()
        start = time.perf_counter()
        calls = WORKLOADS[name](workdir, seed, smoke)
        setup_times.append(import_s + time.perf_counter() - start)
        return calls

    try:
        calls = set_up()
        result = {"workload": name, "seed": seed, "environment": environment()}
        passes, traced = [], []
        tracer = Tracer(program)
        # Machine speed drifts over tens of seconds, so the repeated set-ups
        # are spread between the passes; the window is extended by their time.
        end = time.perf_counter() + seconds
        resets = [end - seconds * i / SETUP_REPEATS for i in range(SETUP_REPEATS - 1, 0, -1)]
        while not passes or time.perf_counter() < end:
            passes.append(run_pass(cli, calls))
            if trace:
                with tracer:
                    traced.append(run_pass(cli, calls))
            if resets and time.perf_counter() >= resets[0]:
                resets.pop(0)
                calls = set_up()
                end += setup_times[-1]
        for _ in resets:
            calls = set_up()
        walls = [wall for wall, _ in passes]
        q1, median, q3 = _quartiles(walls)
        result["wall_passes"] = walls
        if trace:
            memory_tracer = Tracer(program, memory_layers=LAYER_PEAK)
            with memory_tracer:
                memory_pass = run_pass(cli, calls)
            tally = _tally(passes + traced + [memory_pass], calls)
            traced_walls = [wall for wall, _ in traced]
            metrics = layer_metrics(tracer, memory_tracer, walls, traced_walls)
            result["share_passes"] = pass_shares(tracer, traced_walls)
            result["shares"] = {
                name: metrics[f"{name}.s"] * len(traced) / sum(traced_walls)
                for name in LAYER_S
            }
            result["design"] = {
                "layers": DESIGN[name],
                "share": sum(result["shares"][layer] for layer in DESIGN[name]),
                "largest": max(result["shares"], key=result["shares"].get),
            }
            result["spans"] = [[s.name, s.start, s.end, s.parent] for s in tracer.spans]
            units = dict(PER_LAYER)
        else:
            tally = _tally(passes, calls)
            metrics = {
                "setup_s": statistics.median(setup_times),
                "wall_s": median,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                "seg_accuracy": 1.0 - tally["seg_error"],
                "ok_frac": 1.0 - tally["failed"] / tally["attempted"],
            }
            units = dict(END_TO_END)
        result.update(
            setup_passes=setup_times, wall_q1=q1, wall_q3=q3,
            seg_error=tally["seg_error"], failed_frac=tally["failed"] / tally["attempted"],
            failures=tally["reasons"],
            summary={
                "correct": tally["failed"] == 0,
                "attempted": tally["attempted"],
                "failed": tally["failed"],
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            },
        )
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def print_report(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']}")
    print("env " + json.dumps(result["environment"], sort_keys=True))
    summary = result["summary"]
    for key, metric in summary["metrics"].items():
        print(f"  {key:40s} {metric['value']:14.6g} {metric['unit']}")
    walls = result["wall_passes"]
    print(f"  untraced passes {len(walls)}: quartiles {result['wall_q1']:.4g} .. "
          f"{result['wall_q3']:.4g} s")
    print(f"  seg_error {result['seg_error']:.6g} frac, failed_frac "
          f"{result['failed_frac']:.6g} frac ({summary['failed']}/{summary['attempted']})")
    for reason in result["failures"]:
        print(f"  FAILED {reason}")
    if "shares" in result:
        for layer, share in sorted(result["shares"].items(), key=lambda kv: -kv[1]):
            if share > 0:
                print(f"  share {layer:36s} {share:8.1%}")
        design = result["design"]
        print(f"  design: {' + '.join(design['layers'])} = {design['share']:.1%} of "
              f"traced wall; largest layer {design['largest']}")


def write_results(result: dict, trace: bool) -> None:
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{result['workload']}-seed{result['seed']}-trace{int(trace)}.json"
    path.write_text(json.dumps(result) + "\n")


def run_all(args) -> int:
    """Run every workload in its own process and merge their summaries."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        summary = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and summary["correct"]
        merged["attempted"] += summary["attempted"]
        merged["failed"] += summary["failed"]
        for key, metric in summary["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        return run_all(args)

    cap_threads()
    program = import_program()
    sys.path.insert(0, str(HERE))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), program)
    write_results(result, bool(args.trace))
    print_report(result)
    print(json.dumps(result["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
