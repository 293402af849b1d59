import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsrseg import metrics, solvers

MIXING_FEASIBLE_Z = np.array(
    [
        [0.5, 1.0, 1.0, 2.0],
        [0.25, 0.5, -0.5, -1.0],
        [1.0, 2.0, 0.5, 1.0],
        [-0.5, -1.0, 0.25, 0.5],
    ]
)


def run_script(name, monkeypatch, *argv):
    """Run scripts/<name>.py's main() with the given command line."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", [path.name, *argv])
    script.main()


class TestSegmentationError:
    def test_identical(self):
        assert metrics.segmentation_error([0, 0, 1, 1], [0, 0, 1, 1]) == 0.0

    def test_swapped_label_names(self):
        assert metrics.segmentation_error([1, 1, 0, 0], [0, 0, 1, 1]) == 0.0

    def test_single_flip(self):
        truth = [0] * 5 + [1] * 5
        pred = list(truth)
        pred[0] = 1
        assert metrics.segmentation_error(pred, truth) == pytest.approx(0.1)

    def test_length_mismatch(self):
        with pytest.raises(metrics.LengthMismatch):
            metrics.segmentation_error([0, 1], [0, 1, 1])

    def test_alignment_mapping(self):
        error, mapping = metrics.align_clusters([2, 2, 0, 0], [0, 0, 1, 1])
        assert error == 0.0
        assert mapping == {2: 0, 0: 1}

    def test_hungarian_path_matches_known_optimum(self):
        # 10 clusters of 4 points, predictions = truth under a known
        # permutation with 3 injected errors: optimum is 3/40.
        rng = np.random.default_rng(0)
        truth = np.repeat(np.arange(10), 4)
        perm = rng.permutation(10)
        pred = perm[truth]
        pred[0] = (pred[0] + 1) % 10
        pred[5] = (pred[5] + 3) % 10
        pred[11] = (pred[11] + 5) % 10
        assert metrics.segmentation_error(pred, truth) == pytest.approx(3 / 40)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30), k=st.integers(1, 5))
    def test_symmetric_and_zero_iff_same_partition(self, seed, n, k):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, k, size=n)
        b = rng.integers(0, k, size=n)
        ab = metrics.segmentation_error(a, b)
        ba = metrics.segmentation_error(b, a)
        assert ab == pytest.approx(ba)
        same_partition = len({(x, y) for x, y in zip(a, b)}) == len(set(a)) == len(set(b))
        assert (ab == 0.0) == same_partition

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_relabeling_invariance(self, seed):
        rng = np.random.default_rng(seed)
        truth = rng.integers(0, 4, size=20)
        pred = rng.integers(0, 4, size=20)
        shuffle = rng.permutation(4)
        assert metrics.segmentation_error(shuffle[pred], truth) == pytest.approx(
            metrics.segmentation_error(pred, truth)
        )


class TestBlockDiagViolation:
    def test_exact_block_diagonal(self):
        z = np.block(
            [[np.ones((2, 2)), np.zeros((2, 3))], [np.zeros((3, 2)), np.ones((3, 3))]]
        )
        assert metrics.block_diag_violation(z, [0, 0, 1, 1, 1]) == 0.0

    def test_mixing_feasible_matrix_fraction(self):
        # Off-block magnitudes: 1+2+0.5+1 (upper) + 1+2+0.5+1 (lower) = 9.
        # Total magnitude: 4.5 + 2.25 + 4.5 + 2.25 = 13.5.
        violation = metrics.block_diag_violation(MIXING_FEASIBLE_Z, [0, 0, 1, 1])
        assert violation == 9.0 / 13.5

    def test_zero_matrix(self):
        assert metrics.block_diag_violation(np.zeros((4, 4)), [0, 0, 1, 1]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(metrics.LengthMismatch):
            metrics.block_diag_violation(np.zeros((4, 4)), [0, 0, 1])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_simultaneous_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((8, 8))
        labels = rng.integers(0, 3, size=8)
        perm = rng.permutation(8)
        original = metrics.block_diag_violation(z, labels)
        permuted = metrics.block_diag_violation(z[np.ix_(perm, perm)], labels[perm])
        assert permuted == pytest.approx(original, abs=1e-12)


class TestEbdConditions:
    def test_l1_passes_all(self):
        res = metrics.check_ebd(metrics.l1_norm, trials=100, seed=0)
        assert res.passes()
        assert res.counterexamples == {}

    def test_frobenius_sq_passes_all(self):
        assert metrics.check_ebd(metrics.frobenius_norm_sq, trials=100, seed=1).passes()

    def test_nuclear_passes_all(self):
        assert metrics.check_ebd(metrics.nuclear_norm, trials=100, seed=2).passes()

    def test_msr_passes_all(self):
        assert metrics.check_ebd(metrics.msr_criterion(0.7), trials=100, seed=3).passes()

    def test_gram_l1_passes_on_nonnegative(self):
        res = metrics.check_ebd(metrics.gram_l1, trials=100, seed=4, nonnegative=True)
        assert res.passes()

    def test_frobenius_fails_only_additivity(self):
        res = metrics.check_ebd(metrics.frobenius_norm, trials=100, seed=5)
        assert res.permutation_invariance_pass
        assert res.diagonal_dominance_pass
        assert not res.additivity_pass
        assert "additivity" in res.counterexamples

    def test_rank_fails_dominance_with_witness(self):
        res = metrics.check_ebd(metrics.rank_criterion, trials=100, seed=6)
        assert res.permutation_invariance_pass
        assert not res.diagonal_dominance_pass
        assert res.additivity_pass
        witness = res.counterexamples["dominance"]
        z = np.asarray(witness["z"])
        # replay the witness: equal criterion values despite off-block mass
        n1 = next(
            i for i in range(1, z.shape[0]) if witness["f_zd"] == pytest.approx(
                metrics.rank_criterion(z[:i, :i]) + metrics.rank_criterion(z[i:, i:])
            )
        )
        assert np.abs(z[:n1, n1:]).sum() + np.abs(z[n1:, :n1]).sum() > 1e-6
        assert witness["f_z"] <= witness["f_zd"] + 1e-12

    def test_power_criterion_additivity_fails_for_sqrt(self):
        res = metrics.check_ebd(metrics.power_criterion(2.0, 0.5), trials=60, seed=7)
        assert res.permutation_invariance_pass
        assert res.diagonal_dominance_pass
        assert not res.additivity_pass

    def test_power_criterion_passes_when_unscaled(self):
        res = metrics.check_ebd(metrics.power_criterion(0.5), trials=60, seed=8)
        assert res.passes()

    def test_witness_is_json_serializable(self):
        res = metrics.check_ebd(metrics.rank_criterion, trials=20, seed=9)
        json.dumps(res.to_dict())

    def test_survey_script_smoke(self, monkeypatch, capsys):
        run_script("ebd_survey", monkeypatch, "--trials", "5")
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + len(metrics.EBD_TABLE) + 2
        assert lines[1].split()[0] == "l1"


class TestExperimentScripts:
    def test_recovery_sweep_smoke(self, monkeypatch, capsys):
        run_script("recovery_sweep", monkeypatch,
                   "--seeds", "1", "--sigmas", "0", "--lambdas", "1e-3")
        lines = capsys.readouterr().out.strip().splitlines()
        # per solver: title, header, one sigma row; noise-free data is exact
        rows = [line.split() for line in lines if line.startswith("0.000")]
        assert [line.split(":")[0] for line in lines if ":" in line] == ["lsr1", "lsr2"]
        assert rows == [["0.000", "0.0000"], ["0.000", "0.0000"]]

    def test_grouping_effect_demo_smoke(self, monkeypatch, capsys):
        run_script("grouping_effect_demo", monkeypatch)
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 4
        assert all(line.split()[-1] == "True" for line in lines[1:])


class TestGroupingEffectStats:
    def test_duplicated_columns_zero_difference(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 5))
        x[:, 1] = x[:, 0]
        x /= np.linalg.norm(x, axis=0)
        coeffs = solvers.lsr2(x, 0.5)
        summary = metrics.grouping_effect_stats(coeffs, x)
        pair = next(p for p in summary.pairs if (p[0], p[1]) == (0, 1))
        assert pair[2] == pytest.approx(1.0)
        assert pair[3] <= 1e-10
        assert summary.bound_holds()

    def test_high_correlation_bound_value(self):
        c = 0.99
        x = np.array([[1.0, c, 0.0], [0.0, np.sqrt(1 - c * c), 0.0], [0.0, 0.0, 1.0]])
        coeffs = solvers.lsr2(x, 0.1)
        summary = metrics.grouping_effect_stats(coeffs, x)
        # for the (0, 1) pair the bound is 10 * sqrt(2 * 0.01) ~ 1.4142
        bound = np.sqrt(2 * (1 - c)) / 0.1
        assert bound == pytest.approx(np.sqrt(0.02) * 10)
        assert summary.bound_holds()

    def test_anticorrelated_pair_sign_flip(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 4))
        x[:, 1] = -x[:, 0]  # r = -1, flipped copy
        x /= np.linalg.norm(x, axis=0)
        coeffs = solvers.lsr2(x, 0.3)
        summary = metrics.grouping_effect_stats(coeffs, x)
        pair = next(p for p in summary.pairs if (p[0], p[1]) == (0, 1))
        assert pair[2] == pytest.approx(-1.0)
        assert pair[3] <= 1e-10  # |row_0 + row_1| after the flip
        assert summary.bound_holds()

    def test_diag_constrained_skips_query_column_pairs(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((6, 5))
        x /= np.linalg.norm(x, axis=0)
        coeffs = solvers.lsr1(x, 0.2)
        summary = metrics.grouping_effect_stats(coeffs, x)
        n = 5
        n_pairs = n * (n - 1) // 2
        assert summary.n_checked == n_pairs * (n - 2)
        assert summary.bound_holds()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), lam=st.sampled_from([0.05, 0.5, 2.0]))
    def test_bound_fuzz(self, seed, lam):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((7, 9))
        x /= np.linalg.norm(x, axis=0)
        summary = metrics.grouping_effect_stats(solvers.lsr2(x, lam), x)
        assert summary.bound_holds()

    @pytest.mark.parametrize(
        "solve, n_checked, max_ratio, min_slack, row_diff_sum",
        [
            (solvers.lsr1, 102660, 0.018668909863203395, -5.412337245047638e-16,
             849.594910667109),
            (solvers.lsr2, 106200, 0.01570476499183347, -4.371503159461554e-16,
             767.1278199707257),
        ],
    )
    def test_seeded_case_pinned(self, solve, n_checked, max_ratio, min_slack, row_diff_sum):
        # Expected values pinned from a plain triple loop over (i, j, c).
        rng = np.random.default_rng(60)
        x = rng.standard_normal((8, 60))
        x[:, 1] = -x[:, 0]
        x /= np.linalg.norm(x, axis=0)
        summary = metrics.grouping_effect_stats(solve(x, 0.1), x)
        assert len(summary.pairs) == 60 * 59 // 2
        assert summary.pairs[0][:3] == (0, 1, -1.0)
        assert [p[:2] for p in summary.pairs] == [
            (i, j) for i in range(60) for j in range(i + 1, 60)
        ]
        assert sum(p[2] for p in summary.pairs) == pytest.approx(-5.779836609897763, rel=1e-12)
        assert sum(p[3] for p in summary.pairs) == pytest.approx(row_diff_sum, rel=1e-9)
        assert summary.n_checked == n_checked
        assert summary.max_ratio == pytest.approx(max_ratio, rel=1e-9)
        assert summary.min_slack == pytest.approx(min_slack, abs=1e-12)

    def test_requires_unit_columns(self):
        x = 2.0 * np.eye(3)
        coeffs = solvers.lsr2(x, 0.1)
        with pytest.raises(solvers.UnnormalizedColumn):
            metrics.grouping_effect_stats(coeffs, x)

    def test_requires_coefficients_object(self):
        with pytest.raises(TypeError):
            metrics.grouping_effect_stats(np.eye(3), np.eye(3))


class TestReportSerialization:
    def test_segmentation_report_round_trip(self):
        report = metrics.SegmentationReport(
            error_rate=0.05,
            aligned_permutation={0: 1, 1: 0},
            block_diag_violation=0.01,
            wall_times={"solve": 0.2},
            n_samples=40,
            n_clusters=2,
            predicted_labels=[0] * 20 + [1] * 20,
            truth_available=True,
        )
        payload = json.dumps(report.to_dict())
        assert json.loads(payload)["error_rate"] == 0.05


class TestClaimSuites:
    def test_oracle_suite_flags_a_perturbed_solver(self, monkeypatch):
        exact = solvers.lsr1
        monkeypatch.setattr(
            solvers, "lsr1",
            lambda x, lam: solvers.Coefficients(exact(x, lam).z + 1e-6, lam, "lsr1", False),
        )
        suite = metrics.oracle_equivalence_suite(trials=3, seed=0)
        assert not suite["passed"]
        assert suite["max_gap"] == pytest.approx(1e-6, rel=1e-3)
        assert suite["witness"]["trial"] == 0

    def test_grouping_suite_flags_unequal_duplicate_coefficients(self, monkeypatch):
        exact = solvers.grouping_bound_report

        def skewed(x, y, lam):
            report = exact(x, y, lam)
            report.coefficients[1] += 1e-9
            return report

        monkeypatch.setattr(solvers, "grouping_bound_report", skewed)
        suite = metrics.grouping_bound_suite(trials=4, seed=0)
        assert suite["max_violation"] <= metrics.GROUPING_SLACK_TOL
        assert not suite["passed"]
        assert suite["witness"]["trial"] == 0
        assert suite["witness"]["duplicate_gap"] > metrics.DUPLICATE_GAP_TOL

    def test_block_diag_suite_flags_a_dense_solution(self, monkeypatch):
        monkeypatch.setattr(
            solvers, "lsr_constrained",
            lambda data: solvers.Coefficients(
                np.ones((data.n_samples,) * 2), 0.0, "constrained", False
            ),
        )
        suite = metrics.block_diagonality_suite(trials=2, seed=0)
        assert not suite["passed"]
        assert suite["max_orthogonal_violation"] <= metrics.BLOCK_DIAG_ORTH_TOL
        assert suite["witness"]["trial"] == 0
        assert suite["witness"]["independent_violation"] > metrics.BLOCK_DIAG_TOL
        assert suite["insufficient_specs"] == 1
