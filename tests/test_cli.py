import dataclasses
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg

from lsrseg import cli, ingest, solvers

README = Path(__file__).resolve().parents[1] / "README.md"


def run(*args):
    return cli.main([str(a) for a in args])


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

    def test_spec_file_input(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "ambient_dim": 6,
            "subspace_dims": [1, 1],
            "samples_per_subspace": [4, 4],
            "mode": "orthogonal",
            "noise_sigma": 0.0,
            "correlation": None,
            "seed": 7,
            "normalize_columns": False,
        }))
        out = tmp_path / "d.csv"
        assert run("synth", "--spec-file", spec_path, "--output", out) == cli.EXIT_OK
        assert ingest.load_csv(out).x.shape == (6, 8)

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

    def test_manifest_preprocessing(self, dataset, tmp_path):
        # unit columns and PCA from the manifest; a --pca-dim flag beats it
        manifest = ingest.DatasetManifest(path=str(dataset), normalize_columns=True,
                                          pca_dim=6)
        mpath = tmp_path / "m.json"
        manifest.save(mpath)
        unit = ingest.unit_columns(ingest.load_csv(dataset))
        for flags, dim in (([], 6), (["--pca-dim", 4], 4)):
            out = tmp_path / "z.csv"
            assert run("solve", "--input", mpath, "--output", out, "--solver", "lsr1",
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

    def test_manifest_input(self, dataset, tmp_path):
        manifest = ingest.DatasetManifest(
            path=str(dataset), format=ingest.CSV_WITH_LABELS, expected_k=3, pca_dim=6
        )
        mpath = tmp_path / "manifest.json"
        manifest.save(mpath)
        out = tmp_path / "rm.json"
        assert run("segment", "--input", mpath, "--output", out,
                   "--solver", "lsr1", "--lambda", 1e-3) == cli.EXIT_OK
        assert json.loads(out.read_text())["report"]["error_rate"] == 0.0

    def test_manifest_relative_path(self, dataset, tmp_path, monkeypatch):
        # A relative data path is read from the manifest's directory,
        # whatever the working directory.
        sub = tmp_path / "sub"
        sub.mkdir()
        shutil.copy(dataset, sub / "points.csv")
        (sub / "m.json").write_text(
            json.dumps({"path": "points.csv", "format": ingest.CSV_WITH_LABELS})
        )
        monkeypatch.chdir(tmp_path)
        assert run("segment", "--input", "sub/m.json",
                   "--solver", "lsr1", "--lambda", 1e-3) == cli.EXIT_OK
        monkeypatch.chdir(sub)
        assert run("segment", "--input", "m.json",
                   "--solver", "lsr1", "--lambda", 1e-3) == cli.EXIT_OK


class TestExitCodes:
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
        # finite entries ~1e200 overflow X^T X to inf inside the solve
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

    def test_unknown_preset_is_config_error(self, dataset, monkeypatch):
        monkeypatch.setenv("LSRSEG_PRESET", "not-a-preset")
        assert run("segment", "--input", dataset, "--solver", "lsr1",
                   "--lambda", 0.1) == cli.EXIT_CONFIG

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


class TestCheck:
    def test_default_suites_pass(self, tmp_path, capsys):
        out = tmp_path / "check.json"
        assert run("check", "--trials", 40, "--seed", 1, "--output", out) == cli.EXIT_OK
        stdout = capsys.readouterr().out
        assert stdout.count(": pass") == 4
        payload = json.loads(out.read_text())
        assert all(suite["passed"] for suite in payload["suites"])

    def test_rank_criterion_fails_with_witness(self, tmp_path, capsys):
        out = tmp_path / "rank.json"
        assert run("check", "--ebd-criterion", "rank", "--trials", 30,
                   "--output", out) == cli.EXIT_CHECK
        payload = json.loads(out.read_text())
        assert payload["result"]["diagonal_dominance_pass"] is False
        assert "dominance" in payload["result"]["counterexamples"]
        assert "dominance" in capsys.readouterr().err

    def test_l1_criterion_passes(self):
        assert run("check", "--ebd-criterion", "l1", "--trials", 30) == cli.EXIT_OK

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


class TestEnvOverrides:
    def test_lambda_env(self, dataset, tmp_path, monkeypatch):
        monkeypatch.setenv("LSRSEG_LAMBDA", "0.25")
        out = tmp_path / "z.csv"
        assert run("solve", "--input", dataset, "--output", out,
                   "--solver", "lsr2") == cli.EXIT_OK
        meta = json.loads((tmp_path / "z.csv.meta.json").read_text())
        assert meta["config"]["lam"] == 0.25

    def test_flag_beats_env(self, dataset, tmp_path, monkeypatch):
        monkeypatch.setenv("LSRSEG_LAMBDA", "0.25")
        out = tmp_path / "z.csv"
        assert run("solve", "--input", dataset, "--output", out,
                   "--solver", "lsr2", "--lambda", 0.5) == cli.EXIT_OK
        meta = json.loads((tmp_path / "z.csv.meta.json").read_text())
        assert meta["config"]["lam"] == 0.5

    def test_preset_sets_solver_lambda_pca(self, monkeypatch):
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


SUBCOMMAND_FLAGS = {
    "synth": {"--output", "--seed", "--normalize-columns", "--ambient-dim", "--dims",
              "--samples", "--mode", "--noise-sigma", "--correlation", "--spec-file"},
    "solve": {"--input", "--output", "--solver", "--lambda", "--pca-dim",
              "--normalize-columns", "--preset"},
    "segment": {"--input", "--output", "--solver", "--lambda", "--k", "--pca-dim",
                "--seed", "--restarts", "--normalize-columns", "--preset"},
    "check": {"--output", "--seed", "--trials", "--ebd-criterion"},
}

# field -> (text of its flag, LSRSEG_* variable or config value, resolved
# value); the value's type is the field's
ENV_SAMPLES = {
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
    "spec_file": ("spec.json", "spec.json"),
    "trials": ("12", 12),
    "ebd_criterion": ("nuclear", "nuclear"),
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


def env_name(name):
    return "LSRSEG_" + ("LAMBDA" if name == "lam" else name.upper())


def write_config(tmp_path, stored):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"config": stored}))
    return path


class TestOptionLayer:
    def test_subcommand_flag_sets(self):
        flags = parser_flags()
        assert flags == SUBCOMMAND_FLAGS
        assert sum(map(len, flags.values())) == 31

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

    def test_every_option_has_an_env_sample(self):
        names = [f.name for f in dataclasses.fields(cli.RunConfig) if f.name != "command"]
        assert sorted(ENV_SAMPLES) == sorted(names)
        assert len(names) + 1 == 20

    @pytest.mark.parametrize("name", sorted(ENV_SAMPLES))
    def test_env_reaches_config_with_field_type(self, name, monkeypatch, tmp_path):
        # The env variable, the flag and the config value each reach the
        # field with its type, under every subcommand that takes the option.
        text, expected = ENV_SAMPLES[name]
        flag = [cli._flag(name)] + ([] if expected is True else [text])
        config = write_config(tmp_path, {name: text})
        commands = [c for c, flags in SUBCOMMAND_FLAGS.items() if cli._flag(name) in flags]
        assert commands
        for command in commands:
            monkeypatch.setenv(env_name(name), text)
            from_env = getattr(resolve(command), name)
            monkeypatch.delenv(env_name(name))
            from_flag = getattr(resolve(command, *flag), name)
            from_config = getattr(resolve(command, "--config", config), name)
            for value in (from_env, from_flag, from_config):
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
        {"dims": [2.5, 2]}, [],
    ])
    def test_bad_config_file_value_is_config_error(self, stored, tmp_path):
        # Run under a subcommand that takes the option. Without the bad
        # value either run exits 1: its input is absent.
        if "dims" in stored:
            args = ["synth", "--spec-file", tmp_path / "absent.json",
                    "--output", tmp_path / "d.csv"]
        else:
            args = ["segment", "--input", tmp_path / "absent.csv"]
        path = write_config(tmp_path, stored)
        assert run(*args, "--config", path) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("text", ["ture", "", "2"])
    def test_bad_bool_env_is_config_error(self, text, monkeypatch, tmp_path):
        monkeypatch.setenv("LSRSEG_NORMALIZE_COLUMNS", text)
        assert run("segment", "--input", tmp_path / "absent.csv") == cli.EXIT_CONFIG

    @pytest.mark.parametrize("name, command", [
        ("solver", "segment"), ("mode", "synth"), ("ebd_criterion", "check"),
    ])
    def test_bad_choice_is_config_error(self, name, command, monkeypatch, tmp_path):
        # Without the bad value these runs would exit 1 (segment: no such
        # input) or 0 (synth, check).
        args = {
            "segment": ["--input", tmp_path / "absent.csv"],
            "synth": ["--output", tmp_path / "d.csv", "--ambient-dim", 6,
                      "--dims", "1,1", "--samples", "3,3"],
            "check": ["--trials", 10],
        }[command]
        with pytest.raises(SystemExit) as exc:
            run(command, *args, "--" + name.replace("_", "-"), "bogus")
        assert exc.value.code == cli.EXIT_CONFIG
        path = write_config(tmp_path, {name: "bogus"})
        assert run(command, *args, "--config", path) == cli.EXIT_CONFIG
        monkeypatch.setenv("LSRSEG_" + name.upper(), "bogus")
        assert run(command, *args) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("command, name, text", [
        ("segment", "pca_dim", "0"), ("solve", "pca_dim", "0"),
        ("check", "trials", "0"), ("synth", "ambient_dim", "0"),
        ("segment", "k", "0"), ("segment", "restarts", "0"),
        ("check", "seed", "-1"), ("segment", "lam", "inf"),
    ])
    def test_out_of_range_is_config_error(self, command, name, text, monkeypatch,
                                          tmp_path):
        # segment, solve and synth would exit 1 without the bad value (no
        # such input); check would run.
        args = {
            "segment": ["--input", tmp_path / "absent.csv"],
            "solve": ["--input", tmp_path / "absent.csv", "--output", tmp_path / "z.csv"],
            "synth": ["--spec-file", tmp_path / "absent.json", "--output", tmp_path / "d.csv"],
        }.get(command, [])
        assert run(command, *args, cli._flag(name), text) == cli.EXIT_CONFIG
        path = write_config(tmp_path, {name: text})
        assert run(command, *args, "--config", path) == cli.EXIT_CONFIG
        monkeypatch.setenv(env_name(name), text)
        assert run(command, *args) == cli.EXIT_CONFIG

    def test_options_a_subcommand_does_not_take_are_ignored(self, dataset, tmp_path,
                                                            monkeypatch):
        monkeypatch.setenv("LSRSEG_LAMBDA", "0")
        assert run("check", "--trials", 10) == cli.EXIT_OK
        monkeypatch.setenv("LSRSEG_SOLVER", "bogus")
        assert run("synth", "--output", tmp_path / "d.csv", "--ambient-dim", 6,
                   "--dims", "1,1", "--samples", "3,3") == cli.EXIT_OK
        monkeypatch.delenv("LSRSEG_SOLVER")
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
