import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from lsrseg import datagen, linalg, metrics, solvers, spectral

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


@st.composite
def labelings(draw):
    """A (pred, truth) pair over kp and kt clusters of 1 to 11 labels, drawn
    either at random or as every (predicted, true) pair `repeat` times, so
    that the confusion matrix is all tied."""
    kp, kt = draw(st.integers(1, 11)), draw(st.integers(1, 11))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        repeat = draw(st.integers(1, 3))
        pred, truth = np.divmod(np.repeat(np.arange(kp * kt), repeat), kt)
        order = rng.permutation(pred.size)
        pred, truth = pred[order], truth[order]
    else:
        n = draw(st.integers(1, 60))
        pred, truth = rng.integers(0, kp, n), rng.integers(0, kt, n)
    # label ids that are neither 0-based nor contiguous
    return 3 * pred + 7, 5 * truth - 2


def optimal_matches(pred, truth):
    """The most points any one-to-one label matching keeps, by scipy.optimize."""
    _, p = np.unique(pred, return_inverse=True)
    _, t = np.unique(truth, return_inverse=True)
    confusion = np.zeros((p.max() + 1, t.max() + 1), dtype=int)
    np.add.at(confusion, (p, t), 1)
    rows, cols = linear_sum_assignment(confusion, maximize=True)
    return int(confusion[rows, cols].sum())


class TestMatching:
    @settings(max_examples=200, deadline=None)
    @given(labelings())
    def test_mapping_is_a_maximum_matching(self, pair):
        # an injective map of min(kp, kt) labels that keeps as many points
        # as linear_sum_assignment does, and the error rate they give
        pred, truth = pair
        error, mapping = metrics.align_clusters(pred, truth)
        p_ids, t_ids = set(pred.tolist()), set(truth.tolist())
        assert len(mapping) == min(len(p_ids), len(t_ids))
        assert set(mapping) <= p_ids and set(mapping.values()) <= t_ids
        assert len(set(mapping.values())) == len(mapping)  # injective
        kept = sum(mapping.get(a) == b for a, b in zip(pred.tolist(), truth.tolist()))
        assert kept == optimal_matches(pred, truth)
        assert error == 1.0 - kept / pred.size

    @pytest.mark.parametrize("module", ["lsrseg", "lsrseg.cli"])
    def test_import_leaves_scipy_optimize_unloaded(self, module):
        # a one-shot lsrseg process should not pay for scipy.optimize's import
        src = str(Path(metrics.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = (f"import sys, {module}\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"


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

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), k=st.integers(1, 6))
    def test_equals_masked_sum_on_unsorted_labels(self, seed, n, k):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n, n))
        labels = rng.integers(0, k, size=n)
        magnitude = np.abs(z)
        cross = labels[:, np.newaxis] != labels[np.newaxis, :]
        expected = magnitude[cross].sum() / magnitude.sum()
        assert metrics.block_diag_violation(z, labels) == pytest.approx(expected, abs=1e-12)
        # zeroing the cross-label entries leaves exactly nothing to count
        z[cross] = 0.0
        assert metrics.block_diag_violation(z, labels) == 0.0


class TestViolationOnAffinity:
    """W = (|Z| + |Z^T|) / 2 has Z's cross-label share of the mass: the mirror
    (j, i) of a cross-label pair (i, j) is one too."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("solver", ["constrained", "lsr1", "lsr2"])
    def test_w_scores_as_z(self, solver, seed):
        spec = datagen.SubspaceSpec(
            ambient_dim=12,
            subspace_dims=(2, 3, 2),
            samples_per_subspace=(9, 12, 10),
            noise_sigma=0.0 if solver == "constrained" else 0.05,
            seed=seed,
        )
        data, _ = datagen.generate(spec)
        x = data.x.copy()
        x[:, 5] = 0.0  # a zero sample: an isolated node of the ridge solvers' Z and W
        if solver == "constrained":
            z = solvers.lsr_constrained(x).z
        else:
            z = getattr(solvers, solver)(x, 1e-2).z
            assert not z[5].any() and not z[:, 5].any()
        w = spectral.build_affinity(z).w
        if solver == "lsr2":
            assert np.diag(z).any()
        assert metrics.block_diag_violation(w, data.labels) == pytest.approx(
            metrics.block_diag_violation(z, data.labels), abs=1e-12
        )

    @pytest.mark.parametrize("build", ["build_affinity", "affinity_in_place"])
    def test_affinity_is_scored_as_its_array_without_rescan(self, build, monkeypatch):
        data, _ = datagen.generate(datagen.SubspaceSpec(
            ambient_dim=10, subspace_dims=(2, 3), samples_per_subspace=(8, 9),
            noise_sigma=0.05, seed=4,
        ))
        coeffs = solvers.lsr1(data, 1e-2)
        if build == "build_affinity":
            affinity = spectral.build_affinity(coeffs)
        else:
            affinity = spectral.affinity_in_place(coeffs)
        expected = metrics.block_diag_violation(affinity.w.copy(), data.labels)
        assert expected > 0

        def no_rescan(*args, **kwargs):
            raise AssertionError("an Affinity's W was re-validated")

        monkeypatch.setattr(metrics.linalg, "as_matrix", no_rescan)
        assert metrics.block_diag_violation(affinity, data.labels) == expected


class TestEbdConditions:
    def test_l1_passes_all(self):
        assert metrics.check_ebd(metrics.l1_norm, trials=100, seed=0) == {}

    def test_frobenius_sq_passes_all(self):
        assert metrics.check_ebd(metrics.frobenius_norm_sq, trials=100, seed=1) == {}

    def test_nuclear_passes_all(self):
        assert metrics.check_ebd(metrics.nuclear_norm, trials=100, seed=2) == {}

    def test_msr_passes_all(self):
        f, nonnegative, _ = metrics.EBD_TABLE["msr"]
        assert metrics.check_ebd(f, trials=100, seed=3, nonnegative=nonnegative) == {}

    def test_gram_l1_passes_on_nonnegative(self):
        assert metrics.check_ebd(metrics.gram_l1, trials=100, seed=4, nonnegative=True) == {}

    def test_frobenius_fails_only_additivity(self):
        found = metrics.check_ebd(metrics.frobenius_norm, trials=100, seed=5)
        assert set(found) == {"additivity"}

    def test_rank_fails_dominance_with_witness(self):
        found = metrics.check_ebd(metrics.rank_criterion, trials=100, seed=6)
        assert set(found) == {"dominance"}
        witness = found["dominance"]
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
        found = metrics.check_ebd(metrics.power_criterion(2.0, 0.5), trials=60, seed=7)
        assert set(found) == {"additivity"}

    def test_power_criterion_passes_when_unscaled(self):
        assert metrics.check_ebd(metrics.power_criterion(0.5), trials=60, seed=8) == {}

    def test_witness_is_json_serializable(self):
        found = metrics.check_ebd(metrics.rank_criterion, trials=20, seed=9)
        assert "dominance" in json.loads(json.dumps(found))

    def test_unexpected_row_is_the_suite_witness(self, monkeypatch):
        # expect l1 to fail additivity: its row is no longer ok, and the
        # suite fails with that row, empty counterexamples and all
        table = dict(metrics.EBD_TABLE)
        f, nonnegative, _ = table["l1"]
        table["l1"] = (f, nonnegative, ["additivity"])
        monkeypatch.setattr(metrics, "EBD_TABLE", table)
        suite = metrics.ebd_conditions_suite(trials=30, seed=0)
        assert not suite["passed"]
        assert [row["criterion"] for row in suite["results"] if not row["ok"]] == ["l1"]
        assert suite["witness"] == {"criterion": "l1", "expected": ["additivity"],
                                    "counterexamples": {}, "ok": False}

    def test_survey_script_smoke(self, monkeypatch, capsys):
        run_script("ebd_survey", monkeypatch, "--trials", "5")
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + len(metrics.EBD_TABLE) + 2
        assert lines[1].split()[0] == "l1"


# The criteria and the EBD check as they were written one matrix at a time,
# kept as the reference the stacked check must reproduce bit for bit.
def _reference_rank(z):
    s = np.linalg.svd(z, compute_uv=False)
    return 0 if s[0] <= 0.0 else int(np.count_nonzero(s > 1e-10 * s[0]))


def _reference_power(p, s=1.0):
    return lambda z: float(np.sum(np.abs(z) ** p) ** s)


REFERENCE_CRITERIA = {
    "l1": lambda z: float(np.abs(z).sum()),
    "frobenius": lambda z: float(np.linalg.norm(z, "fro")),
    "frobenius-sq": lambda z: float(np.sum(z * z)),
    "nuclear": lambda z: float(np.linalg.svd(z, compute_uv=False).sum()),
    "gram-l1": lambda z: float(np.abs(z.T @ z).sum()),
    "rank": lambda z: float(_reference_rank(z)),
    "msr": lambda z: float(np.abs(z).sum()) + float(np.linalg.svd(z, compute_uv=False).sum()),
}
EBD_CONDITIONS = {"permutation", "dominance", "additivity"}
POWER_CRITERIA = {"sum |Z|^0.5": (0.5, 1.0), "(sum |Z|^2)^0.5": (2.0, 0.5)}


def _reference_check_ebd(f, trials, seed, nonnegative=False):
    """The sequential check: one trial and one matrix at a time, the
    permutation drawn only while that condition is untested."""
    rng = np.random.default_rng(seed)
    found = {}
    for trial in range(trials):
        n1 = int(rng.integers(2, 6))
        n2 = int(rng.integers(2, 6))
        n = n1 + n2
        while True:
            full = rng.standard_normal((n, n))
            if nonnegative:
                full = np.abs(full)
            off_mass = np.abs(full[:n1, n1:]).sum() + np.abs(full[n1:, :n1]).sum()
            if off_mass >= 1e-6:
                break
        a = full[:n1, :n1]
        d = full[n1:, n1:]
        zd = np.zeros_like(full)
        zd[:n1, :n1] = a
        zd[n1:, n1:] = d
        fz = f(full)
        fzd = f(zd)
        scale = 1.0 + abs(fz)
        if "permutation" not in found:
            fzp = f(full[:, rng.permutation(n)])
            if abs(fz - fzp) > 1e-9 * scale:
                found["permutation"] = {"trial": trial, "z": full.tolist(),
                                        "f_z": float(fz), "f_zp": float(fzp)}
        if "dominance" not in found and (
            fz < fzd - 1e-9 * scale or fz - fzd <= 1e-7 * scale
        ):
            found["dominance"] = {"trial": trial, "z": full.tolist(),
                                  "f_z": float(fz), "f_zd": float(fzd)}
        if "additivity" not in found:
            fa, fd = f(a), f(d)
            if abs(fzd - (fa + fd)) > 1e-9 * (1.0 + abs(fzd)):
                found["additivity"] = {"trial": trial, "z": zd.tolist(), "f_zd": float(fzd),
                                       "f_a": float(fa), "f_d": float(fd)}
    return found


def _assert_same_counterexamples(found, reference):
    """The counterexamples, in order, up to the reference's first permutation
    failure, after which it stops drawing permutations and its trials
    differ. ZP is summed row by row, where the reference's z[:, perm] was
    summed column by column, so f_zp may differ in its last bits."""
    last = reference.get("permutation", {"trial": np.inf})["trial"]
    found, reference = ([(c, dict(w)) for c, w in witnesses.items() if w["trial"] <= last]
                        for witnesses in (found, reference))
    for (_, ours), (_, theirs) in zip(found, reference):
        if "f_zp" in ours:
            assert ours.pop("f_zp") == pytest.approx(theirs.pop("f_zp"), rel=1e-14, abs=0)
    assert json.dumps(found) == json.dumps(reference)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


class TestStackedEbdCheck:
    @pytest.mark.parametrize("seed", [0, 1, 31])
    def test_suite_equals_sequential_reference(self, seed):
        results = []
        for name, (_, nonnegative, expected) in metrics.EBD_TABLE.items():
            found = _reference_check_ebd(REFERENCE_CRITERIA[name], 500, seed, nonnegative)
            results.append({"criterion": name, "expected": expected, "counterexamples": found,
                            "ok": sorted(found) == sorted(expected)})
        suite = metrics.ebd_conditions_suite(500, seed)
        # json.dumps keeps key order and prints each float's shortest repr,
        # so equal dumps mean equal trials, matrices and criterion bits
        assert json.dumps(suite["results"]) == json.dumps(results)
        assert suite["passed"]

    def test_suite_takes_one_svd_per_stack(self, monkeypatch):
        # nuclear, rank and msr read the same singular values of each of a
        # shape group's five stacks
        calls = []
        singular_values = linalg.singular_values

        def spy(a):
            calls.append(a.shape)
            return singular_values(a)

        monkeypatch.setattr(linalg, "singular_values", spy)
        metrics.ebd_conditions_suite(200, 0)
        assert len(calls) == 5 * len(set(metrics._draw_ebd_trials(200, 0).shapes))

    @pytest.mark.parametrize("name", sorted(POWER_CRITERIA))
    @pytest.mark.parametrize("seed", [0, 1, 31])
    def test_power_criteria_equal_sequential_reference(self, name, seed):
        p, s = POWER_CRITERIA[name]
        found = metrics.check_ebd(metrics.power_criterion(p, s), trials=300, seed=seed)
        reference = _reference_check_ebd(_reference_power(p, s), 300, seed)
        assert json.dumps(found) == json.dumps(reference)
        assert set(found) == (set() if s == 1.0 else {"additivity"})

    @pytest.mark.parametrize("seed", [0, 1, 4])
    def test_permutation_failure_sits_on_the_reference_trial(self, seed):
        # l1 plus a flag on the corner entry: the flag moves with the first
        # column, so permutation fails, and additivity fails when D's corner
        # is flagged too, each on a later trial
        def flagged(z):
            return metrics.l1_norm(z) + (z[..., 0, 0] > 2.0)

        found = metrics.check_ebd(flagged, trials=200, seed=seed)
        reference = _reference_check_ebd(lambda z: float(flagged(z)), 200, seed)
        assert set(found) == {"permutation", "additivity"}
        assert found["permutation"]["trial"] == reference["permutation"]["trial"] > 0
        _assert_same_counterexamples(found, reference)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", ["additivity", "permutation", "dominance", "corner"])
    def test_tolerances_equal_sequential_reference(self, name, seed):
        # criteria whose condition gaps straddle the 1e-9 and 1e-7 bounds
        # from trial to trial, so the first failing trial pins each bound
        f = {
            "additivity": lambda z: metrics.l1_norm(z) + 1e-8 * metrics.frobenius_norm(z),
            "permutation": lambda z: metrics.l1_norm(z) + 4e-8 * z[..., 0, 0],
            "dominance": lambda z: 5e-9 * metrics.l1_norm(z),
            "corner": lambda z: z[..., 0, 0],
        }[name]
        found = metrics.check_ebd(f, trials=300, seed=seed)
        reference = _reference_check_ebd(lambda z: float(f(z)), 300, seed)
        assert name == "corner" or name in found
        _assert_same_counterexamples(found, reference)

    def test_power_criterion_takes_one_pow_per_matrix(self):
        # numpy's vectorized x ** 0.5 is a square root, which rounds
        # differently from the C pow a single matrix's total gets
        f = metrics.power_criterion(2.0, 0.5)
        stack = np.random.default_rng(12).standard_normal((4000, 2, 2))
        assert _bits(f(stack)) == _bits([_reference_power(2.0, 0.5)(z) for z in stack])

    @pytest.mark.parametrize("nonnegative", [False, True])
    @pytest.mark.parametrize("name", [*metrics.EBD_TABLE, *POWER_CRITERIA])
    def test_criterion_on_a_stack_equals_it_per_matrix(self, name, nonnegative):
        if name in POWER_CRITERIA:
            f = metrics.power_criterion(*POWER_CRITERIA[name])
            reference = _reference_power(*POWER_CRITERIA[name])
        else:
            f, reference = metrics.EBD_TABLE[name][0], REFERENCE_CRITERIA[name]
        rng = np.random.default_rng(11)
        for m in range(2, 11):
            stack = rng.standard_normal((6, m, m))
            stack[3] = 0.0
            if nonnegative:
                stack = np.abs(stack)
            values = f(stack)
            assert isinstance(values, np.ndarray) and values.shape == (6,)
            singles = [f(z) for z in stack]
            assert all(type(v) is float for v in singles)
            assert _bits(values) == _bits(singles) == _bits([reference(z) for z in stack])

    def test_witnesses_are_floats_and_serialize(self):
        found = {
            name: metrics.check_ebd(f, trials=40, seed=2)
            for name, f in (("rank", metrics.rank_criterion),
                            ("frobenius", metrics.frobenius_norm),
                            ("corner", lambda z: z[..., 0, 0]))
        }
        assert set(found["corner"]) == EBD_CONDITIONS
        for counterexamples in found.values():
            for witness in counterexamples.values():
                assert type(witness["trial"]) is int
                assert all(type(x) is float for row in witness["z"] for x in row)
                assert all(type(v) is float for k, v in witness.items() if k.startswith("f_"))
        assert json.loads(json.dumps(found)) == found

    def test_criterion_must_give_one_value_per_matrix(self):
        with pytest.raises(ValueError, match="one value per matrix"):
            metrics.check_ebd(lambda z: float(np.abs(z).sum()), trials=5)

    @pytest.mark.parametrize("seed", [0, 31])
    def test_nonnegative_trials_equal_sequential_reference(self, seed):
        # the SSQP domain takes |Z| of the same draws, witnesses included
        found = metrics.check_ebd(metrics.rank_criterion, trials=100, seed=seed, nonnegative=True)
        reference = _reference_check_ebd(REFERENCE_CRITERIA["rank"], 100, seed, nonnegative=True)
        assert json.dumps(found) == json.dumps(reference)
        assert set(found) == {"dominance"}
        corner = metrics.check_ebd(lambda z: z[..., 0, 0], trials=20, seed=seed, nonnegative=True)
        reference = _reference_check_ebd(lambda z: float(z[0, 0]), 20, seed, nonnegative=True)
        assert corner["permutation"] == reference["permutation"]
        assert min(min(row) for row in corner["permutation"]["z"]) >= 0.0


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
        # r = 1 makes the bound of pair (0, 1) zero, so its largest
        # coefficient gap is the only negative slack
        assert -1e-10 <= summary.min_slack <= 0.0
        assert summary.bound_holds()

    @pytest.mark.parametrize("c, bound", [(0.99, 10.0 * np.sqrt(0.02)), (0.98, 2.0)])
    def test_high_correlation_bound_value(self, c, bound):
        # at lam = 0.1 the bound sqrt(2(1 - r)) / lam of the only pair (0, 1)
        # is 10 * sqrt(0.02) for r = 0.99 and 10 * sqrt(0.04) = 2 for r = 0.98
        x = np.array([[1.0, c], [0.0, np.sqrt(1 - c * c)]])
        coeffs = solvers.lsr2(x, 0.1)
        summary = metrics.grouping_effect_stats(coeffs, x)
        lhs = np.max(np.abs(coeffs.z[0] - coeffs.z[1]))
        assert summary.max_row_gap == pytest.approx(np.linalg.norm(coeffs.z[0] - coeffs.z[1]))
        assert summary.min_slack == pytest.approx(bound - lhs, rel=1e-12)
        assert summary.max_ratio == pytest.approx(lhs / bound, rel=1e-12)
        assert summary.bound_holds()

    def test_anticorrelated_pair_sign_flip(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 4))
        x[:, 1] = -x[:, 0]  # r = -1, flipped copy
        x /= np.linalg.norm(x, axis=0)
        coeffs = solvers.lsr2(x, 0.3)
        summary = metrics.grouping_effect_stats(coeffs, x)
        # the bound of pair (0, 1) is zero, and its gap is |row_0 + row_1|
        # after the flip (|row_0 - row_1| = 2|row_0| without it)
        assert np.max(np.abs(coeffs.z[0])) > 1e-3
        assert -1e-10 <= summary.min_slack <= 0.0
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

    @pytest.mark.parametrize("solve", [solvers.lsr1, solvers.lsr2])
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), lam=st.sampled_from([0.01, 0.1, 1.0]))
    def test_bound_holds_on_random_instances(self, solve, seed, lam):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((8, 12))
        x /= np.linalg.norm(x, axis=0)
        assert metrics.grouping_effect_stats(solve(x, lam), x).bound_holds()

    @pytest.mark.parametrize(
        "solve, n_checked, max_ratio, min_slack, max_row_gap",
        [
            (solvers.lsr1, 102660, 0.018668909863203395, -5.412337245047638e-16,
             0.6294371944159757),
            (solvers.lsr2, 106200, 0.01570476499183347, -4.371503159461554e-16,
             0.5990976206409377),
        ],
    )
    def test_seeded_case_pinned(self, solve, n_checked, max_ratio, min_slack, max_row_gap):
        # Expected values pinned from a plain triple loop over (i, j, c).
        rng = np.random.default_rng(60)
        x = rng.standard_normal((8, 60))
        x[:, 1] = -x[:, 0]
        x /= np.linalg.norm(x, axis=0)
        z = solve(x, 0.1)
        summary = metrics.grouping_effect_stats(z, x)
        r = x.T @ x
        gaps = [
            np.linalg.norm(z.z[i] - np.sign(r[i, j]) * z.z[j])
            for i in range(60) for j in range(i + 1, 60)
        ]
        assert summary.max_row_gap == pytest.approx(max(gaps), rel=1e-12)
        assert summary.max_row_gap == pytest.approx(max_row_gap, rel=1e-12)
        assert summary.n_checked == n_checked
        assert summary.max_ratio == pytest.approx(max_ratio, rel=1e-9)
        assert summary.min_slack == pytest.approx(min_slack, abs=1e-12)

    @pytest.mark.parametrize("index", [0, 2])
    def test_requires_unit_columns(self, index):
        x = np.eye(3)
        x[index, index] = 2.0
        coeffs = solvers.lsr2(x, 0.1)
        with pytest.raises(metrics.UnnormalizedColumn) as err:
            metrics.grouping_effect_stats(coeffs, x)
        assert (err.value.index, err.value.norm) == (index, 2.0)

    def test_nothing_to_check(self):
        # lsr1 on two columns: the one pair touches every query column
        x = np.array([[1.0, 0.6], [0.0, 0.8]])
        z = solvers.lsr1(x, 0.1)
        summary = metrics.grouping_effect_stats(z, x)
        assert summary.max_row_gap == pytest.approx(np.linalg.norm(z.z[0] - z.z[1]))
        assert (summary.n_checked, summary.min_slack, summary.max_ratio) == (0, 0.0, 0.0)
        single = metrics.grouping_effect_stats(solvers.lsr2(x[:, :1], 0.1), x[:, :1])
        assert (single.max_row_gap, single.n_checked, single.min_slack) == (0.0, 0, 0.0)

    @pytest.mark.parametrize("solve", [solvers.lsr1, solvers.lsr2])
    def test_block_size_does_not_change_the_summary(self, solve, monkeypatch):
        # one pair per block splits every row of pairs across blocks
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 9))
        x /= np.linalg.norm(x, axis=0)
        z = solve(x, 0.1)
        whole = metrics.grouping_effect_stats(z, x)
        monkeypatch.setattr(metrics, "PAIR_BLOCK_ELEMENTS", 1)
        assert metrics.grouping_effect_stats(z, x) == whole

    def test_requires_coefficients_object(self):
        with pytest.raises(TypeError):
            metrics.grouping_effect_stats(np.eye(3), np.eye(3))

    @pytest.mark.parametrize("solve", [solvers.lsr1, solvers.lsr2])
    def test_peak_nxn_buffers(self, solve):
        # the Gram matrix X^T X plus one block of pairs; nothing per pair
        n = 300
        x = np.random.default_rng(4).standard_normal((30, n))
        x /= np.linalg.norm(x, axis=0)
        z = solve(x, 0.1)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            metrics.grouping_effect_stats(z, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak - start) / (8.0 * n**2) <= 2.0


class TestReportSerialization:
    def test_segmentation_report_round_trip(self):
        report = metrics.SegmentationReport(
            spectral.Labeling(np.array([0] * 20 + [1] * 20), 2),
            error_rate=0.05,
            aligned_permutation={0: 1, 1: 0},
            block_diag_violation=0.01,
            wall_times={"solve": 0.2},
        )
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["error_rate"] == 0.05
        assert payload["n_samples"] == 40
        assert payload["n_clusters"] == 2
        # whether truth was available is stated once, by error_rate
        assert "truth_available" not in payload

    @pytest.mark.parametrize("truth", [True, False])
    def test_to_dict_is_the_segment_json(self, truth):
        labeling = spectral.Labeling(
            np.array([0, 0, 1, 1, 0, 1]),
            2,
            zero_degree=(3, 4),
            kmeans_objective=2.5,
            lloyd_iterations=3,
            lloyd_converged=True,
            eigengap=0.75,
        )
        report = metrics.SegmentationReport(
            labeling,
            error_rate=0.25 if truth else None,
            aligned_permutation={0: 1, 1: 0} if truth else None,
            block_diag_violation=0.125,
            wall_times={"solve": 0.5, "total": 1.0},
        )
        expected = {
            "error_rate": 0.25 if truth else None,
            "aligned_permutation": {0: 1, 1: 0} if truth else None,
            "block_diag_violation": 0.125,
            "wall_times": {"solve": 0.5, "total": 1.0},
            "n_samples": 6,
            "n_clusters": 2,
            "predicted_labels": [0, 0, 1, 1, 0, 1],
            "degenerate_affinity": False,
            "eigen_tie": False,
            "zero_degree": [3, 4],
            "kmeans_objective": 2.5,
            "lloyd_iterations": 3,
            "lloyd_converged": True,
            "eigengap": 0.75,
        }
        d = report.to_dict()
        assert json.dumps(d, indent=2) == json.dumps(expected, indent=2)
        d["predicted_labels"].append(2)
        d["zero_degree"].append(5)
        d["wall_times"]["solve"] = 0.0
        if truth:
            d["aligned_permutation"][0] = 0
        assert report.to_dict() == expected


class TestClaimSuites:
    def test_oracle_suite_flags_a_perturbed_solver(self, monkeypatch):
        exact = solvers.lsr1

        def perturbed(x, lam):
            z = exact(x, lam).z
            z += 1e-6
            np.fill_diagonal(z, 0.0)
            return solvers.Coefficients(z, lam, solvers.LSR1)

        monkeypatch.setattr(solvers, "lsr1", perturbed)
        suite = metrics.oracle_equivalence_suite(trials=3, seed=0)
        assert not suite["passed"]
        assert suite["max_gap"] == pytest.approx(1e-6, rel=1e-3)
        assert suite["witness"]["trial"] == 0

    def test_grouping_suite_flags_unequal_duplicate_coefficients(self, monkeypatch):
        # row 1 of lsr2's Z moves by less than the slack tolerance, so only
        # the duplicate gap of trial 0 can trip
        exact = solvers.lsr2

        def skewed(x, lam):
            z = exact(x, lam).z
            z[1] += 0.5 * metrics.GROUPING_SLACK_TOL
            return solvers.Coefficients(z, lam, solvers.LSR2)

        monkeypatch.setattr(solvers, "lsr2", skewed)
        suite = metrics.grouping_bound_suite(trials=4, seed=0)
        assert suite["max_violation"] <= metrics.GROUPING_SLACK_TOL
        assert not suite["passed"]
        assert suite["witness"]["trial"] == 0
        assert suite["witness"]["solver"] == solvers.LSR2
        assert suite["witness"]["duplicate_gap"] > metrics.DUPLICATE_GAP_TOL

    def test_grouping_suite_checks_lsr1(self, monkeypatch):
        # lsr1's off-diagonal row 0 moves far past any bound sqrt(2(1-r))/lam
        exact = solvers.lsr1

        def broken(x, lam):
            z = exact(x, lam).z
            z[0, 1:] += 1e6
            return solvers.Coefficients(z, lam, solvers.LSR1)

        monkeypatch.setattr(solvers, "lsr1", broken)
        suite = metrics.grouping_bound_suite(trials=4, seed=0)
        assert not suite["passed"]
        assert suite["max_duplicate_gap"] <= metrics.DUPLICATE_GAP_TOL
        witness = suite["witness"]
        assert witness["solver"] == solvers.LSR1
        assert witness["violation"] > 1e5
        assert witness["duplicate_gap"] == 0.0

    def test_block_diag_suite_flags_a_dense_solution(self, monkeypatch):
        monkeypatch.setattr(
            solvers, "lsr_constrained",
            lambda data: solvers.Coefficients(
                1.0 - np.eye(data.n_samples), 0.0, solvers.CONSTRAINED
            ),
        )
        suite = metrics.block_diagonality_suite(trials=2, seed=0)
        assert not suite["passed"]
        assert suite["max_orthogonal_violation"] <= metrics.BLOCK_DIAG_ORTH_TOL
        assert suite["witness"]["trial"] == 0
        assert suite["witness"]["independent_violation"] > metrics.BLOCK_DIAG_TOL
        assert suite["insufficient_specs"] == 1
