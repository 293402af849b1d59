import contextlib
import dataclasses
import io
import json
import re
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lsrseg import cli, datagen, ingest, linalg, metrics, solvers, spectral
from test_solvers import LEVERAGE_ONE_X, near_duplicate_columns, relative_gap, ridge_reference

README = Path(__file__).resolve().parents[1] / "README.md"


def run(*args):
    return cli.main([str(a) for a in args])


SOLVER_ARGS = {
    "lsr1": ["--solver", "lsr1", "--lambda", 0.01],
    "lsr2": ["--solver", "lsr2", "--lambda", 0.01],
    "constrained": ["--solver", "constrained"],
}


@pytest.fixture()
def dataset(tmp_path):
    path = tmp_path / "data.csv"
    code = run(
        "synth", "--output", path, "--ambient-dim", 10, "--dims", "2,2,2",
        "--samples", "20,20,20", "--seed", 3,
    )
    assert code == cli.EXIT_OK
    return path


class TestSynth:
    def test_writes_data_and_spec(self, dataset):
        data = ingest.load_csv(dataset)
        assert data.x.shape == (10, 60)
        assert np.array_equal(np.unique(data.labels), [0, 1, 2])
        sidecar = json.loads((dataset.parent / "data.csv.spec.json").read_text())
        assert sidecar["independent"] is True
        assert sidecar["spec"]["seed"] == 3
        assert sidecar["config"]["seed"] == 3

    def test_sidecar_replays_with_config(self, dataset, tmp_path):
        # the spec sidecar holds the run's config: --config rewrites the CSV
        replay = tmp_path / "e.csv"
        assert run("synth", "--config", str(dataset) + ".spec.json",
                   "--output", replay) == cli.EXIT_OK
        assert replay.read_bytes() == dataset.read_bytes()
        sidecar = json.loads((tmp_path / "e.csv.spec.json").read_text())
        assert sidecar["config"]["output"] == str(replay)

    def test_spec_file_is_retired(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("synth", "--spec-file", tmp_path / "spec.json", "--output", tmp_path / "d.csv")
        assert exc.value.code == cli.EXIT_CONFIG

    def test_requires_output(self):
        assert run("synth", "--ambient-dim", 6, "--dims", "1,1",
                   "--samples", "3,3") == cli.EXIT_CONFIG

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_noise_sigma_is_config_error(self, sigma, tmp_path):
        out = tmp_path / "d.csv"
        assert run("synth", "--output", out, "--ambient-dim", 6, "--dims", "1,1",
                   "--samples", "3,3", "--noise-sigma", sigma) == cli.EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []


class TestSolve:
    def test_emits_square_matrix(self, dataset, tmp_path):
        out = tmp_path / "z.csv"
        code = run("solve", "--input", dataset, "--output", out,
                   "--solver", "lsr2", "--lambda", 0.01)
        assert code == cli.EXIT_OK
        z = ingest.load_csv(out).x
        assert z.shape == (60, 60)
        meta = json.loads((tmp_path / "z.csv.meta.json").read_text())
        assert meta["config"]["lam"] == 0.01
        assert meta["variant"] == "lsr2"

    def test_config_preprocessing(self, dataset, tmp_path):
        # unit columns and PCA from a bare config; a --pca-dim flag beats it
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"input": str(dataset), "normalize_columns": True,
                                    "pca_dim": 6}))
        unit = ingest.unit_columns(ingest.load_csv(dataset))
        for flags, dim in (([], 6), (["--pca-dim", 4], 4)):
            out = tmp_path / "z.csv"
            assert run("solve", "--config", path, "--output", out, "--solver", "lsr1",
                       "--lambda", 0.01, *flags) == cli.EXIT_OK
            expected = solvers.lsr1(ingest.pca_project(unit, dim), 0.01).z
            assert np.array_equal(ingest.load_csv(out).x, expected)


class TestSegment:
    def test_exact_recovery_and_report(self, dataset, tmp_path):
        out = tmp_path / "report.json"
        code = run("segment", "--input", dataset, "--output", out,
                   "--solver", "lsr1", "--lambda", 1e-3)
        assert code == cli.EXIT_OK
        payload = json.loads(out.read_text())
        report = payload["report"]
        assert report["error_rate"] == 0.0
        assert report["block_diag_violation"] <= 1e-3
        assert report["n_clusters"] == 3
        assert set(report["wall_times"]) >= {"load", "solve", "affinity", "cluster"}
        assert payload["config"]["lam"] == 1e-3
        assert payload["config"]["seed"] == 0
        assert report["lloyd_converged"] is True
        assert 1 <= report["lloyd_iterations"] < spectral.KMEANS_MAX_ITER
        assert 0.0 <= report["kmeans_objective"] < 1.0
        # three exactly recovered subspaces: lambda_3 ~ 0 < lambda_4
        assert report["eigengap"] > spectral.EIGEN_TIE_TOL and not report["eigen_tie"]

    def test_column_permutation_permutes_the_labels(self, tmp_path):
        # the permutation condition end to end: 210 samples (past the dense
        # cut, so Lanczos) segmented in a seeded column order score the same
        # and give the same partition; eigengap, a Lanczos bound here, may
        # move by rounding
        path, shuffled = tmp_path / "d.csv", tmp_path / "p.csv"
        assert run("synth", "--output", path, "--ambient-dim", 30, "--dims", "4,4,4",
                   "--samples", "70,70,70", "--noise-sigma", 0.02, "--seed", 3) == cli.EXIT_OK
        data = ingest.load_csv(path)
        perm = np.random.default_rng(3).permutation(data.n_samples)
        ingest.write_csv(datagen.DataMatrix(data.x[:, perm], labels=data.labels[perm]), shuffled)
        reports = []
        for csv in (path, shuffled):
            out = tmp_path / f"{csv.stem}.json"
            assert run("segment", "--input", csv, "--output", out) == cli.EXIT_OK
            reports.append(json.loads(out.read_text())["report"])
        plain, permuted = reports
        assert plain["n_samples"] == 210 > spectral.DENSE_EIGEN_MAX_N
        assert permuted["error_rate"] == plain["error_rate"]
        labels = np.array(plain["predicted_labels"])
        assert metrics.segmentation_error(permuted["predicted_labels"], labels[perm]) == 0.0

    def test_report_flags_lloyd_at_its_iteration_cap(self, dataset, tmp_path, monkeypatch):
        monkeypatch.setattr(spectral, "KMEANS_MAX_ITER", 1)
        out = tmp_path / "report.json"
        assert run("segment", "--input", dataset, "--output", out,
                   "--solver", "lsr1", "--lambda", 1e-3) == cli.EXIT_OK
        report = json.loads(out.read_text())["report"]
        assert (report["lloyd_iterations"], report["lloyd_converged"]) == (1, False)

    def test_orthogonal_dataset_tiny_violation(self, tmp_path):
        # orthogonal subspaces: the ridge solution is block diagonal up to
        # rounding, so the reported violation is far below 1e-6
        data_path = tmp_path / "orth.csv"
        assert run("synth", "--output", data_path, "--ambient-dim", 10,
                   "--dims", "2,2,2", "--samples", "8,8,8",
                   "--mode", "orthogonal", "--seed", 1) == cli.EXIT_OK
        out = tmp_path / "r.json"
        assert run("segment", "--input", data_path, "--output", out,
                   "--solver", "lsr1", "--lambda", 1e-3) == cli.EXIT_OK
        report = json.loads(out.read_text())["report"]
        assert report["error_rate"] == 0.0
        assert report["block_diag_violation"] <= 1e-6

    def test_k_one_single_cluster(self, dataset, tmp_path):
        out = tmp_path / "r1.json"
        code = run("segment", "--input", dataset, "--output", out,
                   "--solver", "lsr2", "--lambda", 0.01, "--k", 1)
        assert code == cli.EXIT_OK
        labels = json.loads(out.read_text())["report"]["predicted_labels"]
        assert set(labels) == {0}

    def test_k_one_on_all_zero_affinity(self, tmp_path):
        # orthonormal columns give lsr1 Z = 0; at n = 200 normalized cuts
        # would take the Lanczos path, which cannot start from W = 0
        data_path = tmp_path / "eye.csv"
        ingest.write_csv(np.eye(200), data_path)
        out = tmp_path / "r.json"
        assert run("segment", "--input", data_path, "--output", out, "--k", 1,
                   "--solver", "lsr1", "--lambda", 0.1) == cli.EXIT_OK
        report = json.loads(out.read_text())["report"]
        assert report["degenerate_affinity"] is True
        assert report["predicted_labels"] == [0] * 200
        # no k-means ran, and no eigenvalue was computed
        assert [report[key] for key in ("kmeans_objective", "lloyd_iterations",
                                        "lloyd_converged", "eigengap")] == [None] * 4

    def test_eigengap_is_null_at_k_equal_n(self, tmp_path):
        x = np.array([[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 1.0, 2.0]])
        path, out = tmp_path / "lines.csv", tmp_path / "r.json"
        ingest.write_csv(x, path)
        assert run("segment", "--input", path, "--output", out, "--k", 4,
                   "--solver", "lsr1", "--lambda", 0.1) == cli.EXIT_OK
        # no lambda_{k+1} exists: null in the JSON, never inf
        assert '"eigengap": null' in out.read_text()

    @pytest.mark.parametrize("spec, solver, lam, pca_dim, dense", [
        (datagen.SubspaceSpec(ambient_dim=300, subspace_dims=(9,) * 5,
                              samples_per_subspace=(20,) * 5, noise_sigma=0.01, seed=5),
         "lsr2", 0.4, 30, True),
        (datagen.SubspaceSpec(ambient_dim=30, subspace_dims=(4,) * 3,
                              samples_per_subspace=(70,) * 3, noise_sigma=0.05, seed=2),
         "lsr1", 1e-2, None, False),
    ], ids=["lsr2_pca_dense", "lsr1_lanczos"])
    def test_segment_run_leaves_numpy_eigh_alone(self, tmp_path, monkeypatch, spec,
                                                 solver, lam, pca_dim, dense):
        # every eigensolve of an lsr1/lsr2 run, PCA's included, runs on scipy's LAPACK
        path = tmp_path / "d.csv"
        ingest.write_csv(datagen.generate(spec)[0], path)

        def numpy_eigh(*args, **kwargs):
            raise AssertionError("numpy's eigh called")

        monkeypatch.setattr(np.linalg, "eigh", numpy_eigh)
        counts = []
        sym_eigen = linalg.sym_eigen

        def spy(a, count=None):
            counts.append(count)
            return sym_eigen(a, count=count)

        monkeypatch.setattr(linalg, "sym_eigen", spy)
        cfg = cli.RunConfig("segment", input=str(path), solver=solver, lam=lam, pca_dim=pca_dim)
        report = cli.run_segmentation(cfg)
        assert (counts[0] is None) is dense
        assert report.error_rate < 0.05

    @pytest.mark.parametrize("ambient_dim, samples, svds", [
        (30, (70,) * 3, [False]), (30, (7,) * 3, [False]), (20, (7,) * 3, [False, True]),
    ], ids=["thin", "full", "full_d_lt_n"])
    def test_constrained_run_leaves_numpy_svd_alone(self, tmp_path, monkeypatch, ambient_dim,
                                                    samples, svds):
        # both projector paths take their SVDs on scipy's LAPACK: 70 samples
        # per 4-dim subspace keep every leverage low, d_i + 3 do not. The full
        # path takes a second, full SVD only when d < n: at d = 30 >= n = 21
        # the thin V^T is all of V
        path = tmp_path / "d.csv"
        spec = datagen.SubspaceSpec(ambient_dim=ambient_dim, subspace_dims=(4,) * 3,
                                    samples_per_subspace=samples, seed=4)
        ingest.write_csv(datagen.generate(spec)[0], path)

        def numpy_svd(*args, **kwargs):
            raise AssertionError("numpy's svd called")

        flags, scipy_svd = [], scipy.linalg.svd

        def spy(a, full_matrices=True, **kwargs):
            flags.append(full_matrices)
            return scipy_svd(a, full_matrices=full_matrices, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", numpy_svd)
        monkeypatch.setattr(scipy.linalg, "svd", spy)
        report = cli.run_segmentation(cli.RunConfig("segment", input=str(path),
                                                    solver="constrained"))
        assert flags == svds
        assert report.error_rate == 0.0
        assert report.block_diag_violation <= 1e-8

    @pytest.mark.parametrize("solver", ["constrained", "lsr1", "lsr2"])
    def test_two_lines_violation_is_scored_on_w(self, solver, tmp_path):
        x = np.array([[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 1.0, 2.0]])
        labels = np.array([0, 0, 1, 1])
        path = tmp_path / "lines.csv"
        ingest.write_csv(datagen.DataMatrix(x, labels), path)
        cfg = cli.RunConfig("segment", input=str(path), solver=solver, lam=1e-2)
        report = cli.run_segmentation(cfg)
        on_z = metrics.block_diag_violation(cli._run_solver(cfg, ingest.load_csv(path)), labels)
        assert report.error_rate == 0.0
        assert report.block_diag_violation == pytest.approx(on_z, abs=1e-12)
        if solver == "constrained":
            # the null-space projector leaves ~1e-16 of rounding across the lines
            assert report.block_diag_violation <= 1e-8
        else:
            assert report.block_diag_violation == 0.0

    def test_deterministic_reruns(self, dataset, tmp_path):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out_a, out_b):
            assert run("segment", "--input", dataset, "--output", out,
                       "--solver", "lsr1", "--lambda", 1e-3, "--seed", 5) == cli.EXIT_OK
        a = json.loads(out_a.read_text())
        b = json.loads(out_b.read_text())
        for payload in (a, b):
            payload.pop("timestamp")
            payload["report"].pop("wall_times")
            payload["config"].pop("output")
        assert a == b

    def test_rerun_from_config_file(self, dataset, tmp_path):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("segment", "--input", dataset, "--output", out_a,
                   "--solver", "lsr1", "--lambda", 1e-3, "--pca-dim", 6) == cli.EXIT_OK
        assert run("segment", "--config", out_a, "--output", out_b) == cli.EXIT_OK
        a = json.loads(out_a.read_text())
        b = json.loads(out_b.read_text())
        assert a["report"]["predicted_labels"] == b["report"]["predicted_labels"]
        assert a["report"]["error_rate"] == b["report"]["error_rate"]
        assert b["config"]["pca_dim"] == 6

    def test_replay_is_fixed_by_the_file(self, dataset, tmp_path, monkeypatch):
        # k and pca_dim resolve to null; LSRSEG_* variables change neither
        # the replay of those nulls nor any exit code
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("segment", "--input", dataset, "--output", out_a,
                   "--solver", "lsr1", "--lambda", 0.01) == cli.EXIT_OK
        for name, value in {"K": "2", "PCA_DIM": "2", "LAMBDA": "0.5", "SEED": "7",
                            "SOLVER": "bogus"}.items():
            monkeypatch.setenv("LSRSEG_" + name, value)
        assert run("segment", "--config", out_a, "--output", out_b) == cli.EXIT_OK
        a = json.loads(out_a.read_text())
        b = json.loads(out_b.read_text())
        assert (a["config"]["k"], a["config"]["pca_dim"]) == (None, None)
        for payload in (a, b):
            payload["config"].pop("output")
        assert a["config"] == b["config"]
        assert a["report"]["predicted_labels"] == b["report"]["predicted_labels"]
        assert a["report"]["error_rate"] == b["report"]["error_rate"]
        # no --solver: the default lsr1 runs, whatever LSRSEG_SOLVER says
        assert run("segment", "--input", dataset, "--lambda", 0.01) == cli.EXIT_OK

    def test_bare_config_matches_flags(self, dataset, tmp_path):
        # a bare config gives the Z and labels of the same options as flags
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"input": str(dataset), "k": 3, "pca_dim": 6,
                                    "normalize_columns": True, "lam": 1e-3}))
        flags = ["--input", dataset, "--pca-dim", 6, "--normalize-columns", "--lambda", 1e-3]

        def outputs(name, solve_args, segment_args):
            z, report = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
            assert run("solve", *solve_args, "--output", z) == cli.EXIT_OK
            assert run("segment", *segment_args, "--output", report) == cli.EXIT_OK
            return ingest.load_csv(z).x, json.loads(report.read_text())["report"]

        z_config, config_report = outputs("config", ["--config", path], ["--config", path])
        z_flags, flags_report = outputs("flags", flags, flags + ["--k", 3])
        assert np.array_equal(z_config, z_flags)
        assert config_report["predicted_labels"] == flags_report["predicted_labels"]
        assert config_report["error_rate"] == flags_report["error_rate"] == 0.0

    def test_bare_config_input_is_relative_to_cwd(self, dataset, tmp_path, monkeypatch):
        # like every other `input`, a config's is read from the working
        # directory, not from the config file's
        sub = tmp_path / "sub"
        sub.mkdir()
        shutil.copy(dataset, sub / "points.csv")
        (sub / "run.json").write_text(json.dumps({"input": "sub/points.csv"}))
        monkeypatch.chdir(tmp_path)
        assert run("segment", "--config", "sub/run.json",
                   "--solver", "lsr1", "--lambda", 1e-3) == cli.EXIT_OK
        monkeypatch.chdir(sub)
        assert run("segment", "--config", "run.json",
                   "--solver", "lsr1", "--lambda", 1e-3) == cli.EXIT_IO


# The ten classes the CLI reports as numeric errors (exit 3), all derived
# from linalg.NumericError.
NUMERIC_ERROR_CLASSES = (
    linalg.DimensionMismatch, linalg.NonFiniteMatrix, linalg.NotPositiveDefinite,
    linalg.ConvergenceFailure, solvers.NonPositiveLambda, solvers.InfeasibleColumn,
    solvers.LambdaTooSmall, ingest.DimensionError, metrics.LengthMismatch,
    metrics.UnnormalizedColumn,
)
_ERROR_ARGS = {
    solvers.InfeasibleColumn: (3, 0.5),
    solvers.LambdaTooSmall: (3, 1e-17, 1e-16),
    metrics.UnnormalizedColumn: (3, 2.0),
}
# (error raised in the solve, exit code, stderr prefix)
EXIT_CODE_TABLE = [
    (cls(*_ERROR_ARGS.get(cls, ("failed",))), cli.EXIT_NUMERIC, "numeric error")
    for cls in NUMERIC_ERROR_CLASSES
] + [
    (np.linalg.LinAlgError("SVD did not converge"), cli.EXIT_NUMERIC, "numeric error"),
    (ingest.ParseError("bad cell", line=2, col=1), cli.EXIT_IO, "input error"),
    (ingest.RaggedRows("row has 1 cells, expected 2", line=2), cli.EXIT_IO, "input error"),
    (ingest.NonFiniteEntry("non-finite value 'nan'", line=1, col=2), cli.EXIT_IO, "input error"),
    (cli.ConfigError("--k is required"), cli.EXIT_CONFIG, "configuration error"),
    (datagen.SpecInfeasible("at least one subspace is required"), cli.EXIT_CONFIG,
     "configuration error"),
]


class TestExitCodes:
    @pytest.mark.parametrize("flags, message", [
        ([], "--k is required"), (["--k", 61], "need 1 <= k <= 60, got k=61"),
    ])
    def test_k_is_checked_before_the_solve(self, flags, message, dataset, tmp_path,
                                           monkeypatch, capsys):
        def no_solve(cfg, data):
            raise AssertionError("solver ran before k was checked")

        monkeypatch.setattr(cli, "_run_solver", no_solve)
        unlabeled = tmp_path / "unlabeled.csv"
        ingest.write_csv(ingest.load_csv(dataset).x, unlabeled)
        assert run("segment", "--input", unlabeled, *flags) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_missing_input_is_io_error(self, tmp_path):
        assert run("segment", "--input", tmp_path / "absent.csv",
                   "--solver", "lsr1", "--lambda", 0.1) == cli.EXIT_IO

    def test_malformed_csv_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3\n")
        assert run("solve", "--input", bad, "--output", tmp_path / "z.csv",
                   "--solver", "lsr1", "--lambda", 0.1) == cli.EXIT_IO

    @pytest.mark.parametrize("cell", ["1.5", "inf"])
    def test_non_integer_label_is_io_error(self, cell, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"1,0,1\n0,1,1\n#labels,0,{cell},1\n")
        assert run("segment", "--input", bad, "--solver", "lsr1",
                   "--lambda", 0.1) == cli.EXIT_IO

    @pytest.mark.parametrize("command, flags", [
        ("segment", ["--k", 1]), ("solve", ["--output", "z.csv"]),
    ], ids=["segment", "solve"])
    def test_undecodable_csv_is_io_error(self, command, flags, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("bad.csv").write_bytes(b"1,2\n3,\xff\n")
        assert run(command, "--input", "bad.csv", *flags) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert "input error" in err and "line 2" in err

    @pytest.mark.parametrize("error, code, kind", EXIT_CODE_TABLE,
                             ids=[type(e).__name__ for e, _, _ in EXIT_CODE_TABLE])
    def test_exit_code_follows_the_error_class(self, error, code, kind, dataset,
                                               monkeypatch, capsys):
        def fail(cfg, data):
            raise error

        monkeypatch.setattr(cli, "_run_solver", fail)
        assert run("segment", "--input", dataset, "--solver", "lsr1") == code
        assert f"lsrseg: {kind}: {error}" in capsys.readouterr().err

    def test_numeric_error_classes(self):
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        assert set(subclasses(linalg.NumericError)) == set(NUMERIC_ERROR_CLASSES)
        assert issubclass(linalg.ConvergenceFailure, RuntimeError)

    def test_bad_lambda_is_config_error(self, dataset, tmp_path):
        assert run("segment", "--input", dataset, "--output", tmp_path / "r.json",
                   "--solver", "lsr1", "--lambda", -1.0) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("solver, text", [
        ("lsr1", "inf"), ("constrained", "inf"), ("constrained", "nan"),
    ])
    def test_non_finite_lambda_names_lambda(self, solver, text, dataset, capsys):
        # constrained ignores lambda but records it in the run's JSON config
        assert run("segment", "--input", dataset, "--solver", solver,
                   "--lambda", text) == cli.EXIT_CONFIG
        assert "lambda" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_gram_matrix_is_numeric_error(self, tmp_path, capsys):
        # finite entries ~1e200 overflow the Gram matrix X X^T to inf inside the solve
        path = tmp_path / "huge.csv"
        rng = np.random.default_rng(0)
        ingest.write_csv(1e200 * rng.uniform(1.0, 2.0, (4, 8)), path)
        assert run("segment", "--input", path, "--k", 2) == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "Gram matrix" in err and "overflows" in err

    def test_lanczos_no_convergence_is_numeric_error(self, tmp_path, monkeypatch, capsys):
        def no_convergence(a, k, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence(
                "No convergence", np.empty(0), np.empty((a.shape[0], 0))
            )

        # 300 samples put normalized cuts on its Lanczos path
        path = tmp_path / "data.csv"
        assert run("synth", "--output", path, "--ambient-dim", 30, "--dims", "5,5,5",
                   "--samples", "100,100,100", "--noise-sigma", 0.05, "--seed", 0) == cli.EXIT_OK
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        assert run("segment", "--input", path, "--solver", "lsr1",
                   "--lambda", 0.01) == cli.EXIT_NUMERIC
        assert "Lanczos eigensolve: ARPACK error -1: No convergence" in capsys.readouterr().err

    def test_svd_no_convergence_is_numeric_error(self, dataset, monkeypatch, capsys):
        # LinAlgError (numpy's, which scipy raises too) is a ValueError, yet a
        # LAPACK failure, not a configuration error
        def no_convergence(*args, **kwargs):
            raise scipy.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(scipy.linalg, "svd", no_convergence)
        assert run("segment", "--input", dataset, "--solver", "constrained") == cli.EXIT_NUMERIC
        assert "numeric error: SVD did not converge" in capsys.readouterr().err

    def test_pca_eigh_failure_is_numeric_error(self, dataset, monkeypatch, capsys):
        def no_convergence(*args, **kwargs):
            raise scipy.linalg.LinAlgError("the algorithm failed to converge")

        monkeypatch.setattr(scipy.linalg, "eigh", no_convergence)
        assert run("segment", "--input", dataset, "--solver", "lsr1", "--lambda", 0.1,
                   "--pca-dim", 6) == cli.EXIT_NUMERIC
        assert "numeric error: the algorithm failed to converge" in capsys.readouterr().err

    def test_unknown_preset_is_config_error(self, dataset):
        with pytest.raises(SystemExit) as exc:
            run("segment", "--input", dataset, "--solver", "lsr1", "--lambda", 0.1,
                "--preset", "not-a-preset")
        assert exc.value.code == cli.EXIT_CONFIG

    def test_infeasible_data_is_numeric_error(self, tmp_path):
        # one sample in a 2-D subspace: constrained solver must refuse
        path = tmp_path / "thin.csv"
        assert run("synth", "--output", path, "--ambient-dim", 6,
                   "--dims", "2,2", "--samples", "1,5", "--seed", 0) == cli.EXIT_OK
        assert run("segment", "--input", path, "--output", tmp_path / "r.json",
                   "--solver", "constrained") == cli.EXIT_NUMERIC

    def test_pca_dim_too_large_is_numeric_error(self, dataset, tmp_path):
        assert run("segment", "--input", dataset, "--output", tmp_path / "r.json",
                   "--solver", "lsr1", "--lambda", 0.1,
                   "--pca-dim", 99) == cli.EXIT_NUMERIC


def _union(ambient_dim, samples, seed):
    return datagen.generate(datagen.SubspaceSpec(
        ambient_dim=ambient_dim, subspace_dims=(2, 2), samples_per_subspace=samples, seed=seed,
    ))[0]


def _column_edit(edit):
    """Two 2-dim subspaces in R^10, 8 samples each, with one column edited."""

    def build():
        data = _union(10, (8, 8), 2)
        x = data.x.copy()
        edit(x)
        return datagen.DataMatrix(x, data.labels)

    return build


def _gaussian(d, n):
    return lambda: datagen.DataMatrix(np.random.default_rng(4).standard_normal((d, n)))


def _coordinate_blocks(per):
    """Three 3-dim subspaces on disjoint coordinates, `per` samples each: X^T X,
    so every solver's Z, is exactly block diagonal, a W of three components."""

    def build():
        rng = np.random.default_rng(5)
        x = np.zeros((9, 3 * per))
        for b in range(3):
            x[3 * b:3 * b + 3, b * per:(b + 1) * per] = rng.standard_normal((3, per))
        return datagen.DataMatrix(x)

    return build


def _isolated_last(per):
    """Two subspaces of `per` samples each plus a last sample on an axis of
    its own: orthogonal to every other sample, an isolated node."""

    def build():
        x = _union(10, (per, per), 2).x
        n = x.shape[1]
        isolated = np.zeros((11, n + 1))
        isolated[:10, :n] = x
        isolated[10, n] = 1.0
        return datagen.DataMatrix(isolated)

    return build


def _labels_refine_components(per, report):
    # no predicted label spans two components, and every label is used
    labels = np.asarray(report["predicted_labels"])
    spans = [set(labels[b * per:(b + 1) * per]) for b in range(3)]
    return sum(map(len, spans)) == report["n_clusters"] == len(set(labels))


def _zero_column(x):
    x[:, 3] = 0.0


def _duplicate_column(x):
    x[:, 4] = x[:, 3]


NOT_REPRESENTABLE = "numeric error: column {} is not representable"

# case -> (data, flags, {solver: (exit code, stderr text, report check)})
ROBUSTNESS = {
    "d_ge_n_union": (lambda: _union(40, (6, 6), 1), [], {
        solver: (cli.EXIT_OK, "", lambda r: r["error_rate"] == 0.0)
        for solver in SOLVER_ARGS
    }),
    "d_ge_n_full_rank": (_gaussian(30, 20), ["--k", 2], {
        "lsr1": (cli.EXIT_OK, "", lambda r: r["n_samples"] == 20),
        "lsr2": (cli.EXIT_OK, "", lambda r: r["n_samples"] == 20),
        "constrained": (cli.EXIT_NUMERIC, NOT_REPRESENTABLE.format(0), None),
    }),
    "zero_column": (_column_edit(_zero_column), [], {
        "lsr1": (cli.EXIT_OK, "", lambda r: r["zero_degree"] == [3]),
        "lsr2": (cli.EXIT_OK, "", lambda r: r["zero_degree"] == [3]),
        "constrained": (cli.EXIT_OK, "", lambda r: r["zero_degree"] == [3]),
    }),
    "duplicated_columns": (_column_edit(_duplicate_column), [], {
        solver: (cli.EXIT_OK, "", lambda r: r["error_rate"] == 0.0) for solver in SOLVER_ARGS
    }),
    "k_above_components": (_coordinate_blocks(5), ["--k", 4], {
        solver: (cli.EXIT_OK, "", lambda r: _labels_refine_components(5, r))
        for solver in SOLVER_ARGS
    }),
    "k_above_components_lanczos": (_coordinate_blocks(70), ["--k", 5], {
        solver: (cli.EXIT_OK, "", lambda r: _labels_refine_components(70, r))
        for solver in ("lsr1", "lsr2")
    }),
    "isolated_node": (_isolated_last(8), ["--k", 2], {
        "lsr1": (cli.EXIT_OK, "", lambda r: r["zero_degree"] == [16]),
        # lsr2 keeps Z's diagonal: the node has a self-loop and is a cluster
        "lsr2": (cli.EXIT_OK, "", lambda r: r["zero_degree"] == []
                 and r["predicted_labels"].count(r["predicted_labels"][16]) == 1),
        "constrained": (cli.EXIT_NUMERIC, NOT_REPRESENTABLE.format(16), None),
    }),
    "isolated_node_lanczos": (_isolated_last(100), ["--k", 2], {
        "lsr1": (cli.EXIT_OK, "", lambda r: r["zero_degree"] == [200]),
    }),
}


class TestRobustnessMatrix:
    """Hostile segment inputs: each case's exit code, its diagnostic on
    stderr (none on success) and the report fields that explain it."""

    @pytest.mark.parametrize("case, solver", [
        (case, solver) for case, (_, _, expected) in ROBUSTNESS.items() for solver in expected
    ])
    def test_segment(self, case, solver, tmp_path, capsys):
        build, flags, expected = ROBUSTNESS[case]
        code, diagnostic, check = expected[solver]
        path, out = tmp_path / "data.csv", tmp_path / "report.json"
        ingest.write_csv(build(), path)
        capsys.readouterr()
        assert run("segment", "--input", path, "--output", out,
                   *SOLVER_ARGS[solver], *flags) == code
        err = capsys.readouterr().err
        if code == cli.EXIT_OK:
            assert err == ""
            assert check(json.loads(out.read_text())["report"])
        else:
            assert diagnostic in err and not out.exists()


class TestTinyLambda:
    """`solve` at tiny lambda against the 50-digit reference: either exit 0
    with a Z within 1e-8 relative of it, or exit 3 with the LambdaTooSmall
    diagnostic and no Z. Which of the two each case gives is pinned."""

    @pytest.mark.parametrize("x, lam, code", [
        (LEVERAGE_ONE_X, 1e-17, cli.EXIT_NUMERIC),
        (LEVERAGE_ONE_X, 1e-4, cli.EXIT_OK),
        (near_duplicate_columns(), 1e-8, cli.EXIT_OK),
    ], ids=["leverage_one_1e-17", "leverage_one_1e-4", "near_duplicates_1e-8"])
    @pytest.mark.parametrize("solver", ["lsr1", "lsr2"])
    def test_solve(self, solver, x, lam, code, tmp_path, capsys):
        path, out = tmp_path / "data.csv", tmp_path / "z.csv"
        ingest.write_csv(x, path)
        assert run("solve", "--input", path, "--output", out, "--solver", solver,
                   "--lambda", lam) == code
        if code == cli.EXIT_OK:
            reference = dict(zip(("lsr1", "lsr2"), ridge_reference(x, lam)))[solver]
            assert relative_gap(ingest.load_csv(out).x, reference) <= 1e-8
        else:
            err = capsys.readouterr().err
            assert "lambda is too small" in err and "column 0" in err
            assert not out.exists()


class TestHugeLambda:
    """`solve` at lambda = 1e300: the divisor check's rounding bound neither
    overflows nor calls such a lambda too small. X^T X is lost against lambda
    in float64, so Z is matched to the 50-digit reference to eps absolute,
    the rounding of its unit-scale entries."""

    @pytest.mark.parametrize("x", [
        np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]]),
        np.array([[1e-300], [5e-324]]),
    ], ids=["3x2", "tiny_2x1"])
    @pytest.mark.parametrize("solver", ["lsr1", "lsr2"])
    def test_solve(self, solver, x, tmp_path, capsys):
        path, out = tmp_path / "data.csv", tmp_path / "z.csv"
        ingest.write_csv(x, path)
        assert run("solve", "--input", path, "--output", out, "--solver", solver,
                   "--lambda", 1e300) == cli.EXIT_OK
        assert capsys.readouterr().err == ""
        reference = dict(zip(("lsr1", "lsr2"), ridge_reference(x, 1e300)))[solver]
        assert np.max(np.abs(ingest.load_csv(out).x - reference)) <= np.finfo(np.float64).eps


# cells of a hostile CSV: extremes of float64 and a few small numbers, then
# non-finite, unparsable and empty cells
NUMERIC_CELLS = ["1e300", "-1e300", "5e-324", "1e-170", "0", "1", "-2", "0.5", "3"]
HOSTILE_CELLS = NUMERIC_CELLS + ["nan", "inf", "bad", ""]
HOSTILE_LAMBDAS = ["1e-300", "1e-3", "1", "1e300"]


@st.composite
def hostile_csv(draw) -> str:
    """Up to 6 x 8 hostile cells, blank lines among the rows, and an
    optional label row that is either good or non-integral. Half the grids
    hold only numbers, so that they reach the solvers."""
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    cell = st.sampled_from(draw(st.sampled_from([NUMERIC_CELLS, HOSTILE_CELLS])))
    lines = []
    for _ in range(n_rows):
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
        cells = draw(st.lists(cell, min_size=n_cols, max_size=n_cols))
        lines.append(",".join(cells))
    label_row = draw(st.sampled_from([None, "good", "bad"]))
    if label_row == "good":
        lines.append(",".join(["#labels"] + [str(j % 2) for j in range(n_cols)]))
    elif label_row == "bad":
        lines.append("#labels,0,1.5")
    return "\n".join(lines) + "\n"


@st.composite
def hostile_options(draw) -> list[str]:
    """A subcommand and its options, --input and --output aside."""
    command = draw(st.sampled_from(["solve", "segment"]))
    options = [command, "--solver", draw(st.sampled_from(list(SOLVER_ARGS))),
               "--lambda", draw(st.sampled_from(HOSTILE_LAMBDAS))]
    if draw(st.booleans()):
        options.append("--normalize-columns")
    if draw(st.booleans()):
        options += ["--pca-dim", str(draw(st.integers(1, 8)))]
    if command == "segment":
        if draw(st.booleans()):
            options += ["--k", str(draw(st.integers(1, 8)))]
        if draw(st.booleans()):
            options += ["--restarts", str(draw(st.integers(1, 3)))]
    return options


@settings(max_examples=200, deadline=None)
@given(text=hostile_csv(), options=hostile_options())
# a column of 1e300 overflowed the --normalize-columns norm: a zeroed column
# and an exit 0 after a RuntimeWarning
@example(text="1e300,-1\n1,2\n3,0\n", options=["segment", "--normalize-columns", "--k", "1"])
# lambda = 1e300 overflowed the divisor check's rounding bound
@example(text="1,2\n3,4\n5,7\n", options=["solve", "--solver", "lsr1", "--lambda", "1e300"])
def test_hostile_input_exits_with_a_documented_code(text, options):
    """Any hostile CSV and options: no exception escapes ``cli.main``, the
    exit code is a documented one (argparse's exit 2 included), and a run
    that exits 0 raised no RuntimeWarning."""
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "data.csv"
        path.write_text(text)
        argv = options + ["--input", str(path), "--output", str(Path(workdir) / "out")]
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("always")
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (cli.EXIT_OK, cli.EXIT_IO, cli.EXIT_CONFIG, cli.EXIT_NUMERIC)
    if code == cli.EXIT_OK:
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestCheck:
    def test_default_suites_pass(self, tmp_path, capsys):
        out = tmp_path / "check.json"
        assert run("check", "--trials", 40, "--seed", 1, "--output", out) == cli.EXIT_OK
        stdout = capsys.readouterr().out
        assert stdout.count(": pass") == 4
        payload = json.loads(out.read_text())
        assert all(suite["passed"] for suite in payload["suites"])

    @pytest.fixture(scope="class")
    def ebd_rows(self, tmp_path_factory):
        """criterion -> its row of the ebd-conditions suite of one check run"""
        out = tmp_path_factory.mktemp("check") / "check.json"
        assert run("check", "--trials", 30, "--output", out) == cli.EXIT_OK
        (suite,) = [s for s in json.loads(out.read_text())["suites"]
                    if s["name"] == "ebd-conditions"]
        return {row["criterion"]: row for row in suite["results"]}

    def test_rank_criterion_fails_with_witness(self, ebd_rows):
        # rank's expected dominance failure is reported with its witness:
        # off-block mass that does not raise the rank
        rank = ebd_rows["rank"]
        assert rank["ok"] and rank["expected"] == ["dominance"]
        assert set(rank["counterexamples"]) == {"dominance"}
        witness = rank["counterexamples"]["dominance"]
        assert witness["f_z"] <= witness["f_zd"] + 1e-12
        assert np.abs(np.asarray(witness["z"])).sum() > 0

    def test_l1_criterion_passes(self, ebd_rows):
        l1 = ebd_rows["l1"]
        assert l1["ok"] and l1["expected"] == []
        assert l1["counterexamples"] == {}

    def test_frobenius_row_carries_additivity_witness(self, ebd_rows):
        assert set(ebd_rows["frobenius"]["counterexamples"]) == {"additivity"}

    def test_ebd_criterion_is_retired(self):
        # a single criterion's result is its ebd-conditions row
        with pytest.raises(SystemExit) as exc:
            run("check", "--ebd-criterion", "rank")
        assert exc.value.code == cli.EXIT_CONFIG

    def test_tampered_closed_form_detected(self):
        # mutation: skip the diagonal zeroing of the closed form; the
        # column-oracle equivalence gap must blow past the tolerance
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 12))
        lam = 0.1
        gram = x.T @ x
        d = np.linalg.solve(gram + lam * np.eye(12), np.eye(12))
        tampered = -d / np.diag(d)[np.newaxis, :]  # diagonal left at -1
        oracle = solvers.column_oracle_ridge(x, lam).z
        assert np.max(np.abs(tampered - oracle)) > 1e-8
        assert np.max(np.abs(solvers.lsr1(x, lam).z - oracle)) <= 1e-8


class TestPresets:
    """Presets, the layer under flags and --config."""

    def test_preset_sets_solver_lambda_pca(self):
        parser = cli.build_parser()
        args = parser.parse_args(["segment", "--input", "x.csv",
                                  "--preset", "hopkins-lsr1"])
        cfg = cli._resolve_config(args)
        assert (cfg.solver, cfg.lam, cfg.pca_dim) == ("lsr1", 4.8e-3, 12)

    def test_flag_beats_preset(self):
        parser = cli.build_parser()
        args = parser.parse_args(["segment", "--input", "x.csv",
                                  "--preset", "hopkins-lsr1", "--lambda", "0.9"])
        cfg = cli._resolve_config(args)
        assert cfg.lam == 0.9
        assert cfg.pca_dim == 12

    def test_preset_flag_beats_config_file(self, tmp_path):
        # a run recorded with hopkins-lsr1 replayed under another preset
        path = tmp_path / "face.csv"
        assert run("synth", "--output", path, "--ambient-dim", 40, "--dims", "3,3",
                   "--samples", "20,20", "--seed", 1) == cli.EXIT_OK
        first, second = tmp_path / "r.json", tmp_path / "replay.json"
        assert run("segment", "--input", path, "--preset", "hopkins-lsr1",
                   "--output", first) == cli.EXIT_OK
        assert run("segment", "--config", first, "--preset", "yaleb5-lsr2",
                   "--output", second) == cli.EXIT_OK
        replay = json.loads(second.read_text())
        config = replay["config"]
        assert (config["preset"], config["solver"], config["lam"], config["pca_dim"]) == (
            "yaleb5-lsr2", "lsr2", 0.4, 30)
        direct = tmp_path / "direct.json"
        assert run("segment", "--input", path, "--preset", "yaleb5-lsr2",
                   "--output", direct) == cli.EXIT_OK
        report = json.loads(direct.read_text())["report"]
        for key in ("predicted_labels", "block_diag_violation"):
            assert replay["report"][key] == report[key]
        # explicit per-field flags still beat the preset flag
        args = cli.build_parser().parse_args(
            ["segment", "--config", str(first), "--preset", "yaleb5-lsr2", "--pca-dim", "8"])
        cfg = cli._resolve_config(args)
        assert (cfg.input, cfg.solver, cfg.lam, cfg.pca_dim) == (str(path), "lsr2", 0.4, 8)


SUBCOMMAND_FLAGS = {
    "synth": {"--output", "--seed", "--normalize-columns", "--ambient-dim", "--dims",
              "--samples", "--mode", "--noise-sigma", "--correlation"},
    "solve": {"--input", "--output", "--solver", "--lambda", "--pca-dim",
              "--normalize-columns", "--preset"},
    "segment": {"--input", "--output", "--solver", "--lambda", "--k", "--pca-dim",
                "--seed", "--restarts", "--normalize-columns", "--preset"},
    "check": {"--output", "--seed", "--trials"},
}

# field -> (text of its flag or config value, resolved value); the value's
# type is the field's
OPTION_SAMPLES = {
    "input": ("in.csv", "in.csv"),
    "output": ("out.json", "out.json"),
    "solver": ("lsr2", "lsr2"),
    "lam": ("0.25", 0.25),
    "k": ("4", 4),
    "pca_dim": ("6", 6),
    "seed": ("9", 9),
    "restarts": ("3", 3),
    "normalize_columns": ("yes", True),
    "preset": ("yaleb5-lsr2", "yaleb5-lsr2"),
    "ambient_dim": ("7", 7),
    "dims": ("2,3", (2, 3)),
    "samples": ("4,5", (4, 5)),
    "mode": ("orthogonal", "orthogonal"),
    "noise_sigma": ("0.5", 0.5),
    "correlation": ("0.9", 0.9),
    "trials": ("12", 12),
}


def parser_flags():
    """subcommand -> the flags its parser takes, besides --help and --config"""
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    return {
        name: {flag for action in parser._actions for flag in action.option_strings}
        - {"-h", "--help", "--config"}
        for name, parser in sub.choices.items()
    }


def resolve(*argv):
    return cli._resolve_config(cli.build_parser().parse_args([str(a) for a in argv]))


def write_config(tmp_path, stored):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"config": stored}))
    return path


class TestOptionLayer:
    def test_subcommand_flag_sets(self):
        flags = parser_flags()
        assert flags == SUBCOMMAND_FLAGS
        assert sum(map(len, flags.values())) == 29

    def test_readme_flag_table_matches_parser(self):
        # README's `| subcommand | flags |` table lists each subcommand's
        # flags; `--config` is described beside it, not in it.
        lines = README.read_text().splitlines()
        start = lines.index("| subcommand | flags |") + 2
        table = {}
        for line in lines[start:]:
            row = re.fullmatch(r"\| `(\w+)` \| (.*) \|", line)
            if row is None:
                break
            table[row[1]] = set(re.findall(r"--[a-z][a-z-]*", row[2]))
        assert table == parser_flags()

    def test_every_option_has_a_sample(self):
        # every option has a sample in OPTION_SAMPLES
        names = [f.name for f in dataclasses.fields(cli.RunConfig) if f.name != "command"]
        assert sorted(OPTION_SAMPLES) == sorted(names)
        assert len(names) + 1 == 18

    @pytest.mark.parametrize("name", sorted(OPTION_SAMPLES))
    def test_flag_and_config_reach_field_with_its_type(self, name, monkeypatch, tmp_path):
        # The flag and the config value each reach the field with its type,
        # under every subcommand that takes the option; the environment
        # reaches no field.
        text, expected = OPTION_SAMPLES[name]
        flag = [cli._flag(name)] + ([] if expected is True else [text])
        config = write_config(tmp_path, {name: text})
        commands = [c for c, flags in SUBCOMMAND_FLAGS.items() if cli._flag(name) in flags]
        assert commands
        monkeypatch.setenv("LSRSEG_" + cli._flag(name)[2:].replace("-", "_").upper(), text)
        for command in commands:
            assert getattr(resolve(command), name) == getattr(cli.RunConfig(command), name)
            from_flag = getattr(resolve(command, *flag), name)
            from_config = getattr(resolve(command, "--config", config), name)
            for value in (from_flag, from_config):
                assert value == expected
                assert type(value) is type(expected)

    def test_config_file_values_are_cast(self, tmp_path):
        path = write_config(tmp_path, {
            "lam": "0.1", "k": "3", "dims": [2, 2], "normalize_columns": "on",
        })
        cfg = resolve("segment", "--config", path)
        assert (cfg.lam, cfg.k, cfg.normalize_columns) == (0.1, 3, True)
        assert cfg.dims is None  # not a segment option
        cfg = resolve("synth", "--config", path)
        assert (cfg.dims, cfg.normalize_columns) == ((2, 2), True)
        assert (cfg.lam, cfg.k) == (1e-2, None)  # not synth options

    @pytest.mark.parametrize("stored", [
        {"lam": "zero"}, {"lam": [0.1]}, {"k": "2.5"}, {"k": 2.5}, {"seed": True},
        {"dims": [2.5, 2]}, [], {"dims": [1, "", 1]},
    ])
    def test_bad_config_file_value_is_config_error(self, stored, tmp_path, capsys):
        # Run under a subcommand that takes the option. Without the bad
        # value segment exits 1, as its input is absent, while synth exits 2
        # for its missing dims; the message names the bad value.
        if "dims" in stored:
            args = ["synth", "--output", tmp_path / "absent" / "d.csv",
                    "--ambient-dim", 6, "--samples", "3,3"]
        else:
            args = ["segment", "--input", tmp_path / "absent.csv"]
        path = write_config(tmp_path, stored)
        assert run(*args, "--config", path) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        if stored:
            assert f"bad {next(iter(stored))} value" in err
        else:
            assert "holds no configuration object" in err

    @pytest.mark.parametrize("name, text", [
        ("dims", "1,,1"), ("samples", "3,3,"), ("dims", "1, ,1"),
    ])
    def test_empty_list_item_is_config_error(self, name, text, tmp_path):
        # Dropping the empty item would run synth on a shorter tuple, exit 0.
        lists = {"dims": "1,1", "samples": "3,3"}
        args = ["synth", "--output", tmp_path / "d.csv", "--ambient-dim", 6]
        for other, value in lists.items():
            if other != name:
                args += [cli._flag(other), value]
        with pytest.raises(SystemExit) as exc:
            run(*args, cli._flag(name), text)
        assert exc.value.code == cli.EXIT_CONFIG
        path = write_config(tmp_path, {name: text})
        assert run(*args, "--config", path) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("text", ["ture", "", "2"])
    def test_bad_config_bool_is_config_error(self, text, tmp_path):
        # a config boolean that does not parse; without it the run exits 1
        path = write_config(tmp_path, {"normalize_columns": text})
        assert run("segment", "--input", tmp_path / "absent.csv",
                   "--config", path) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("name, command", [
        ("solver", "segment"), ("mode", "synth"), ("preset", "solve"),
    ])
    def test_bad_choice_is_config_error(self, name, command, tmp_path):
        # Without the bad value these runs would exit 1 (segment, solve: no
        # such input) or 0 (synth).
        args = {
            "segment": ["--input", tmp_path / "absent.csv"],
            "solve": ["--input", tmp_path / "absent.csv", "--output", tmp_path / "z.csv"],
            "synth": ["--output", tmp_path / "d.csv", "--ambient-dim", 6,
                      "--dims", "1,1", "--samples", "3,3"],
        }[command]
        with pytest.raises(SystemExit) as exc:
            run(command, *args, "--" + name.replace("_", "-"), "bogus")
        assert exc.value.code == cli.EXIT_CONFIG
        path = write_config(tmp_path, {name: "bogus"})
        assert run(command, *args, "--config", path) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("command, name, text", [
        ("segment", "pca_dim", "0"), ("solve", "pca_dim", "0"),
        ("check", "trials", "0"), ("synth", "ambient_dim", "0"),
        ("segment", "k", "0"), ("segment", "restarts", "0"),
        ("check", "seed", "-1"), ("segment", "lam", "inf"),
    ])
    def test_out_of_range_is_config_error(self, command, name, text, tmp_path):
        # segment and solve would exit 1 without the bad value (no such
        # input), synth with a valid ambient dim in its place (no such
        # output directory); check would run.
        args = {
            "segment": ["--input", tmp_path / "absent.csv"],
            "solve": ["--input", tmp_path / "absent.csv", "--output", tmp_path / "z.csv"],
            "synth": ["--output", tmp_path / "absent" / "d.csv",
                      "--dims", "1,1", "--samples", "3,3"],
        }.get(command, [])
        if command == "synth":
            assert run(command, *args, "--ambient-dim", 6) == cli.EXIT_IO
        assert run(command, *args, cli._flag(name), text) == cli.EXIT_CONFIG
        path = write_config(tmp_path, {name: text})
        assert run(command, *args, "--config", path) == cli.EXIT_CONFIG

    def test_options_a_subcommand_does_not_take_are_ignored(self, dataset, tmp_path):
        path = write_config(tmp_path, {"lam": 0})
        assert run("check", "--trials", 10, "--config", path) == cli.EXIT_OK
        path = write_config(tmp_path, {"solver": "bogus"})
        assert run("synth", "--output", tmp_path / "d.csv", "--ambient-dim", 6,
                   "--dims", "1,1", "--samples", "3,3", "--config", path) == cli.EXIT_OK
        # a run written before the solver tolerances stopped being options
        path = write_config(tmp_path, {
            "command": "segment", "input": str(dataset), "solver": "lsr1", "lam": 1e-3,
            "tol_feasibility": 1e-6, "tol_sv": 1e-9,
        })
        assert run("segment", "--config", path) == cli.EXIT_OK

    def test_bench_is_retired(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("bench")
        assert exc.value.code == cli.EXIT_CONFIG
        with pytest.raises(SystemExit):
            run("--help")
        usage = capsys.readouterr().out.splitlines()[0]
        assert usage.endswith("{synth,solve,segment,check} ...")
        assert set(parser_flags()) == {"synth", "solve", "segment", "check"}

    def test_flag_of_another_subcommand_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("synth", "--output", tmp_path / "d.csv", "--ambient-dim", 6,
                "--dims", "1,1", "--samples", "3,3", "--k", 3)
        assert exc.value.code == cli.EXIT_CONFIG
