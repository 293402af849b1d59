"""The benchmark's workloads: seeded inputs, the CLI calls made on them, and
the checks applied to each call's output.

Every workload is a list of ``lsrseg`` command lines run one after another
(one client, closed loop). ``lsrseg.datagen`` builds the inputs during
set-up only, so its cost lands in ``setup_s`` and never in a timed pass.

* ``segment-large`` - one large ``segment`` call, where the n x n solve and
  the full eigendecomposition do almost all the work.
* ``paper-batch`` - synthetic stand-ins for the paper's motion and face
  benchmarks, many small ``segment`` calls dominated by CSV parsing, PCA,
  k-means restarts and per-call overhead; the only workload with ``lsr2``
  and PCA.
* ``verify`` - ``lsrseg check`` plus a ``constrained`` segment on a
  noise-free independent union: thousands of tiny solves and Python loops,
  no large eigenproblem.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from lsrseg import datagen, ingest

# Independent-subspace theorem: the constrained solution is block diagonal.
BLOCK_DIAG_TOL = 1e-8


@dataclass
class Call:
    """One CLI invocation and what its output must satisfy."""

    name: str
    argv: list[str]
    output: Path
    truth: np.ndarray | None = None  # ground-truth labels of a segment call
    max_error: float = 0.0
    check_block_diag: bool = False


def _dataset(workdir: Path, name: str, spec: datagen.SubspaceSpec) -> tuple[Path, np.ndarray]:
    data, _ = datagen.generate(spec)
    path = workdir / f"{name}.csv"
    ingest.write_csv(data, path)
    return path, data.labels


def _segment(workdir, name, spec, seed, options, max_error, check_block_diag=False) -> Call:
    path, truth = _dataset(workdir, name, spec)
    output = workdir / f"{name}.out.json"
    argv = ["segment", "--input", str(path), "--output", str(output), "--seed", str(seed)]
    return Call(name, argv + options, output, truth, max_error, check_block_diag)


def _child_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def segment_large(workdir: Path, seed: int, smoke: bool = False) -> list[Call]:
    per_class = 60 if smoke else 600
    spec = datagen.SubspaceSpec(
        ambient_dim=30,
        subspace_dims=(5,) * 5,
        samples_per_subspace=(per_class,) * 5,
        noise_sigma=0.05,
        seed=seed,
        normalize_columns=True,
    )
    options = ["--solver", "lsr1", "--lambda", "1e-2"]
    return [_segment(workdir, "large", spec, seed, options, max_error=0.02)]


def paper_batch(workdir: Path, seed: int, smoke: bool = False) -> list[Call]:
    # The sizes come from a fixed stream so every seed does the same work;
    # the seed only draws the data.
    layout = np.random.default_rng(0)
    rng = np.random.default_rng([seed, 1])
    calls = []
    for i in range(3 if smoke else 20):
        # Hopkins-155-like: 2F trajectory coordinates, 4-dim motion subspaces
        k = int(layout.choice([2, 3]))
        frames = int(layout.integers(20, 40))
        spec = datagen.SubspaceSpec(
            ambient_dim=2 * frames,
            subspace_dims=(4,) * k,
            samples_per_subspace=tuple(int(s) for s in layout.integers(40, 161, size=k)),
            noise_sigma=0.01,
            seed=_child_seed(rng),
        )
        calls.append(
            _segment(workdir, f"motion-{i:02d}", spec, seed, ["--preset", "hopkins-lsr1"], 0.1)
        )
    # Extended-Yale-B-like: 48 x 42 images, 9-dim illumination subspaces
    for k, preset in ((5, "yaleb5-lsr2"), (10, "yaleb10-lsr1")):
        spec = datagen.SubspaceSpec(
            ambient_dim=200 if smoke else 48 * 42,
            subspace_dims=(9,) * k,
            samples_per_subspace=(12 if smoke else 64,) * k,
            noise_sigma=0.01,
            seed=_child_seed(rng),
        )
        calls.append(_segment(workdir, f"faces-{k}", spec, seed, ["--preset", preset], 0.1))
    return calls


def verify(workdir: Path, seed: int, smoke: bool = False) -> list[Call]:
    output = workdir / "check.out.json"
    trials = 50 if smoke else 1000
    check = Call(
        "check",
        ["check", "--trials", str(trials), "--seed", str(seed), "--output", str(output)],
        output,
    )
    spec = datagen.SubspaceSpec(
        ambient_dim=30,
        subspace_dims=(4,) * 5,
        samples_per_subspace=(20 if smoke else 120,) * 5,
        seed=seed,
    )
    constrained = _segment(
        workdir, "constrained", spec, seed, ["--solver", "constrained"],
        max_error=0.0, check_block_diag=True,
    )
    return [check, constrained]


WORKLOADS = {
    "segment-large": segment_large,
    "paper-batch": paper_batch,
    "verify": verify,
}


def segmentation_error(pred: np.ndarray, truth: np.ndarray) -> float:
    """Misassigned fraction under the best one-to-one label matching."""
    _, p = np.unique(pred, return_inverse=True)
    _, t = np.unique(truth, return_inverse=True)
    confusion = np.zeros((p.max() + 1, t.max() + 1))
    np.add.at(confusion, (p, t), 1)
    rows, cols = linear_sum_assignment(confusion, maximize=True)
    return 1.0 - confusion[rows, cols].sum() / truth.size


@dataclass
class Outcome:
    """The checked result of one call."""

    ok: bool
    reason: str = ""
    error: float | None = None  # segmentation error, segment calls only
    labels: list[int] | None = None


def check_output(call: Call, code) -> Outcome:
    """Check one call's exit code and output file against the expectations."""
    if code != 0:
        return Outcome(False, f"exit {code}")
    payload = json.loads(call.output.read_text())
    if call.truth is None:
        failed = [s["name"] for s in payload["suites"] if not s["passed"]]
        return Outcome(not failed, f"suites failed: {failed}" if failed else "")
    report = payload["report"]
    labels = report["predicted_labels"]
    if len(labels) != call.truth.size:
        return Outcome(False, f"{len(labels)} labels for {call.truth.size} samples")
    error = segmentation_error(np.asarray(labels), call.truth)
    if abs(error - report["error_rate"]) > 1e-12:
        return Outcome(False, f"reported error {report['error_rate']} != {error}", error, labels)
    if error > call.max_error:
        return Outcome(False, f"error {error:.4f} > {call.max_error}", error, labels)
    violation = report["block_diag_violation"]
    if call.check_block_diag and not violation <= BLOCK_DIAG_TOL:
        return Outcome(False, f"block_diag_violation {violation:.3e}", error, labels)
    return Outcome(True, "", error, labels)
