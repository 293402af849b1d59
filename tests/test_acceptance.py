"""Acceptance gate: every structural and behavioral guarantee of the
toolkit, each at its pinned tolerance, one printed verdict line per
criterion. Run with ``pytest -v -s tests/test_acceptance.py``.
"""

import json
import os
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from lsrseg import cli, metrics, solvers
from lsrseg.metrics import (
    BLOCK_DIAG_ORTH_TOL,
    BLOCK_DIAG_TOL,
    DUPLICATE_GAP_TOL,
    GROUPING_SLACK_TOL,
    ORACLE_TOL,
)

TWO_LINES_X = np.array([[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 1.0, 2.0]])
TWO_LINES_LABELS = np.array([0, 0, 1, 1])
MIXING_FEASIBLE_Z = np.array(
    [
        [0.5, 1.0, 1.0, 2.0],
        [0.25, 0.5, -0.5, -1.0],
        [1.0, 2.0, 0.5, 1.0],
        [-0.5, -1.0, 0.25, 0.5],
    ]
)

HOPKINS_DIR = os.environ.get("LSRSEG_HOPKINS_DIR")


def verdict(name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_closed_form_equals_oracle():
    """lsr1 must match the per-column reference solver on 100 seeded
    instances (n <= 100), max-abs difference at most 1e-8, in under 30
    seconds."""
    started = time.perf_counter()
    suite = metrics.oracle_equivalence_suite(trials=100, seed=2024, n_max=100)
    elapsed = time.perf_counter() - started
    verdict(
        "criterion-1 closed-form/oracle equivalence",
        suite["max_gap"] <= ORACLE_TOL and elapsed < 30.0,
        f"max gap {suite['max_gap']:.3e}, {elapsed:.1f}s",
    )


def test_criterion_2_fixed_verification_case():
    """The handwritten mixing representation of the two-lines dataset is
    feasible but badly non-block-diagonal; the minimum-norm solver on the
    same data is block diagonal."""
    feasibility = float(np.linalg.norm(TWO_LINES_X @ MIXING_FEASIBLE_Z - TWO_LINES_X))
    violation = metrics.block_diag_violation(MIXING_FEASIBLE_Z, TWO_LINES_LABELS)
    # Off-block magnitude 2*(1+2+0.5+1) = 9; total 4.5+2.25+4.5+2.25 = 13.5.
    expected = 9.0 / 13.5
    solved = metrics.block_diag_violation(
        solvers.lsr_constrained(TWO_LINES_X), TWO_LINES_LABELS
    )
    verdict(
        "criterion-2 fixed verification case",
        feasibility <= 1e-12 and violation == expected and solved <= 1e-8,
        f"residual {feasibility:.1e}, violation {violation:.6f} "
        f"(expected {expected:.6f}), solved {solved:.1e}",
    )


def test_criterion_3_block_diagonality_independent():
    """50 seeded independent-subspace datasets (k in {2,3,4,5}, d_i in
    {1,2,3}, n_i = d_i + 3, noise-free): constrained solutions carry at
    most 1e-8 of their mass across blocks."""
    suite = metrics.block_diagonality_suite(trials=50, seed=7)
    worst = suite["max_independent_violation"]
    verdict(
        "criterion-3 block diagonality (independent)",
        worst <= BLOCK_DIAG_TOL,
        f"max violation {worst:.3e}",
    )


def test_criterion_4_block_diagonality_orthogonal():
    """50 seeded orthogonal datasets, half with insufficient sampling
    (n_i < d_i): both ridge solvers stay block diagonal to 1e-10."""
    suite = metrics.block_diagonality_suite(trials=50, seed=11)
    worst = suite["max_orthogonal_violation"]
    verdict(
        "criterion-4 block diagonality (orthogonal)",
        worst <= BLOCK_DIAG_ORTH_TOL and suite["insufficient_specs"] == 25,
        f"max violation {worst:.3e}, {suite['insufficient_specs']} insufficient specs",
    )


def test_criterion_5_grouping_bound():
    """1000 seeded unit-column instances: the pairwise coefficient bound
    holds with slack >= -1e-9 for every column of lsr2's and lsr1's Z, and
    duplicated columns receive equal rows of lsr2's Z to 1e-10."""
    suite = metrics.grouping_bound_suite(trials=1000, seed=23)
    worst_slack, worst_dup = suite["max_violation"], suite["max_duplicate_gap"]
    verdict(
        "criterion-5 grouping bound",
        worst_slack <= GROUPING_SLACK_TOL and worst_dup <= DUPLICATE_GAP_TOL,
        f"max slack violation {worst_slack:.3e}, max duplicate gap {worst_dup:.3e}",
    )


def _segment_synthetic(workdir: Path, seed: int, noise: float) -> float:
    """Write three 2-D subspaces in 10-D, 20 points each, with `lsrseg
    synth` (unit columns when noisy), run `lsrseg segment --solver lsr1
    --lambda 1e-3` on them and return the report's error rate."""
    data, report = workdir / f"union-{seed}-{noise}.csv", workdir / "report.json"
    argv = ["synth", "--output", str(data), "--ambient-dim", "10", "--dims", "2,2,2",
            "--samples", "20,20,20", "--noise-sigma", str(noise), "--seed", str(seed)]
    assert cli.main(argv + (["--normalize-columns"] if noise > 0 else [])) == cli.EXIT_OK
    assert cli.main(["segment", "--input", str(data), "--output", str(report),
                     "--solver", "lsr1", "--lambda", "1e-3"]) == cli.EXIT_OK
    return json.loads(report.read_text())["report"]["error_rate"]


def test_criterion_6_end_to_end_recovery(tmp_path):
    """Three 2-D subspaces in 10-D, 20 points each: zero error on ten
    consecutive noise-free seeds; mean error at most 5 percent with
    sigma = 0.05 noise after normalization."""
    clean = [_segment_synthetic(tmp_path, seed, 0.0) for seed in range(10)]
    noisy = [_segment_synthetic(tmp_path, seed, 0.05) for seed in range(10)]
    mean_noisy = float(np.mean(noisy))
    verdict(
        "criterion-6 end-to-end recovery",
        all(err == 0.0 for err in clean) and mean_noisy <= 0.05,
        f"clean errors {clean}, noisy mean {mean_noisy:.4f}",
    )


def test_criterion_7_ebd_condition_suite():
    """Every criterion fails exactly its expected conditions among
    permutation invariance, diagonal-block dominance and additivity on 200
    seeded trials; rank fails dominance and leaves a counterexample."""
    suite = metrics.ebd_conditions_suite(trials=200, seed=31)
    failures = [row["criterion"] for row in suite["results"] if not row["ok"]]
    verdict(
        "criterion-7 ebd condition suite",
        suite["passed"],
        f"unexpected failed conditions: {failures}",
    )


def test_criterion_8_efficiency_ordering():
    """At n = 400, d = 12, each closed-form solver must run at least five
    times faster than the per-column reference (median of 5 runs)."""
    rng = np.random.default_rng(41)
    x = rng.standard_normal((12, 400))
    lam = 0.01

    def median_time(fn):
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    t_lsr1 = median_time(lambda: solvers.lsr1(x, lam))
    t_lsr2 = median_time(lambda: solvers.lsr2(x, lam))
    t_oracle = median_time(lambda: solvers.column_oracle_ridge(x, lam))
    ok = t_oracle >= 5.0 * t_lsr1 and t_oracle >= 5.0 * t_lsr2
    verdict(
        "criterion-8 efficiency ordering",
        ok,
        f"lsr1 {t_lsr1:.4f}s, lsr2 {t_lsr2:.4f}s, oracle {t_oracle:.4f}s",
    )


def _motion_preset_verdict(name: str, directory: Path, workdir: Path) -> None:
    """Criterion 8b on one directory of labeled CSV exports: `lsrseg segment
    --preset hopkins-lsr1` on each file must reach mean segmentation error
    at most 3.5 percent."""
    paths = sorted(directory.glob("*.csv"))
    assert paths, f"no CSV files found in {directory}"
    errors = []
    for path in paths:
        report = workdir / f"{path.stem}.json"
        code = cli.main(["segment", "--input", str(path), "--preset", "hopkins-lsr1",
                         "--output", str(report)])
        assert code == cli.EXIT_OK, f"segment exited {code} on {path}"
        error = json.loads(report.read_text())["report"]["error_rate"]
        assert error is not None, f"{path} carries no ground-truth labels"
        errors.append(error)
    mean_error = float(np.mean(errors))
    verdict(name, mean_error <= 0.035,
            f"mean error {mean_error:.4f} over {len(errors)} sequences")


@pytest.mark.skipif(
    not HOPKINS_DIR,
    reason="external motion-trajectory data not supplied "
    "(set LSRSEG_HOPKINS_DIR to a directory of labeled CSV exports)",
)
def test_criterion_8b_motion_benchmark_preset(tmp_path):
    """With user-supplied motion-trajectory CSV exports, the hopkins-lsr1
    preset must reach mean segmentation error at most 3.5 percent."""
    _motion_preset_verdict("criterion-8b motion benchmark preset", Path(HOPKINS_DIR), tmp_path)


# Motion-like exports: (frames F, samples per motion); 2F trajectory
# coordinates, 4-dim motion subspaces, noise 0.01, as in perfbench's
# paper-batch workload.
SYNTHETIC_MOTIONS = [(24, (60, 45)), (31, (40, 90, 55)), (37, (120, 70)), (20, (50, 50, 40))]


def test_criterion_8b_preset_on_synthetic_motion_exports(tmp_path):
    """Criterion 8b's path on synthetic motion-like exports written by
    `lsrseg synth`: the same per-file `segment --preset hopkins-lsr1` runs,
    held to the same 3.5 percent bound."""
    exports = tmp_path / "exports"
    exports.mkdir()
    for seed, (frames, samples) in enumerate(SYNTHETIC_MOTIONS):
        argv = ["synth", "--output", str(exports / f"motion-{seed}.csv"),
                "--ambient-dim", str(2 * frames), "--dims", ",".join("4" for _ in samples),
                "--samples", ",".join(map(str, samples)), "--noise-sigma", "0.01",
                "--seed", str(seed)]
        assert cli.main(argv) == cli.EXIT_OK
    _motion_preset_verdict("criterion-8b motion preset on synthetic exports", exports, tmp_path)


def test_criterion_9_segment_determinism(tmp_path):
    """Two segment runs with identical configuration produce identical
    labels and reports, timing fields aside."""
    data_path = tmp_path / "data.csv"
    assert (
        cli.main(
            ["synth", "--output", str(data_path), "--ambient-dim", "10",
             "--dims", "2,2,2", "--samples", "20,20,20", "--seed", "17"]
        )
        == cli.EXIT_OK
    )
    payloads = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = cli.main(
            ["segment", "--input", str(data_path), "--output", str(out),
             "--solver", "lsr1", "--lambda", "1e-3", "--seed", "5"]
        )
        assert code == cli.EXIT_OK
        payload = json.loads(out.read_text())
        payload.pop("timestamp")
        payload["report"].pop("wall_times")
        payload["config"].pop("output")
        payloads.append(payload)
    verdict(
        "criterion-9 segment determinism",
        payloads[0] == payloads[1],
        "reports identical excluding timings",
    )
