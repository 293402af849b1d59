import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lsrseg import cli, datagen, linalg, metrics, solvers, spectral
from lsrseg.datagen import BasisSet, DataMatrix, SubspaceSpec


def spec_of(**overrides):
    base = dict(
        ambient_dim=10,
        subspace_dims=(2, 2, 2),
        samples_per_subspace=(20, 20, 20),
        mode=datagen.INDEPENDENT,
        seed=0,
    )
    base.update(overrides)
    return SubspaceSpec(**base)


class TestSubspaceSpec:
    def test_dims_exceed_ambient(self):
        with pytest.raises(datagen.SpecInfeasible):
            spec_of(ambient_dim=5)

    def test_length_mismatch(self):
        with pytest.raises(datagen.SpecInfeasible):
            spec_of(samples_per_subspace=(20, 20))

    def test_bad_mode(self):
        with pytest.raises(datagen.SpecInfeasible):
            spec_of(mode="affine")

    def test_bad_correlation(self):
        with pytest.raises(datagen.SpecInfeasible):
            spec_of(correlation=1.0)

    def test_zero_samples(self):
        with pytest.raises(datagen.SpecInfeasible):
            spec_of(samples_per_subspace=(0, 20, 20))

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -0.1])
    def test_noise_sigma_must_be_finite_and_nonnegative(self, sigma):
        with pytest.raises(datagen.SpecInfeasible, match="noise_sigma"):
            spec_of(noise_sigma=sigma)

    def test_sidecar_spec_replays_with_config(self, tmp_path):
        # synth's sidecar records spec.to_dict(); --config on it rebuilds the spec
        spec = spec_of(noise_sigma=0.05, correlation=0.3, normalize_columns=True)
        out, replay = tmp_path / "d.csv", tmp_path / "e.csv"
        assert cli.main(["synth", "--output", str(out), "--ambient-dim", "10",
                         "--dims", "2,2,2", "--samples", "20,20,20", "--noise-sigma", "0.05",
                         "--correlation", "0.3", "--normalize-columns"]) == cli.EXIT_OK
        assert cli.main(["synth", "--config", str(out) + ".spec.json",
                         "--output", str(replay)]) == cli.EXIT_OK
        for path in (out, replay):
            sidecar = json.loads(Path(str(path) + ".spec.json").read_text())
            assert SubspaceSpec(**sidecar["spec"]) == spec

    def test_null_correlation_sidecar_replays(self, tmp_path):
        # a sidecar written while correlation defaulted to None holds null there
        out, replay = tmp_path / "d.csv", tmp_path / "e.csv"
        assert cli.main(["synth", "--output", str(out), "--ambient-dim", "10",
                         "--dims", "2,2,2", "--samples", "20,20,20", "--seed", "3"]) == cli.EXIT_OK
        sidecar_path = Path(str(out) + ".spec.json")
        sidecar = json.loads(sidecar_path.read_text())
        assert sidecar["config"]["correlation"] == sidecar["spec"]["correlation"] == 0.0
        sidecar["config"]["correlation"] = sidecar["spec"]["correlation"] = None
        sidecar_path.write_text(json.dumps(sidecar))
        assert cli.main(["synth", "--config", str(sidecar_path),
                         "--output", str(replay)]) == cli.EXIT_OK
        assert replay.read_bytes() == out.read_bytes()


class TestGenerate:
    def test_shapes_and_labels(self):
        data, bases = datagen.generate(spec_of())
        assert data.x.shape == (10, 60)
        assert list(np.bincount(data.labels)) == [20, 20, 20]
        assert bases.dims == (2, 2, 2)

    def test_two_orthogonal_lines_fixed_coefficients(self):
        # Two 1-D orthogonal subspaces sampled at 1x and 2x the basis vector.
        spec = SubspaceSpec(
            ambient_dim=4,
            subspace_dims=(1, 1),
            samples_per_subspace=(2, 2),
            mode=datagen.ORTHOGONAL,
        )
        coeffs = [np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]])]
        data, bases = datagen.generate(spec, coefficients=coeffs)
        b0, b1 = bases.bases[0][:, 0], bases.bases[1][:, 0]
        assert abs(b0 @ b1) <= 1e-10
        assert np.allclose(data.x[:, 0], b0)
        assert np.allclose(data.x[:, 1], 2.0 * b0)
        assert np.allclose(data.x[:, 2], b1)
        assert np.allclose(data.x[:, 3], 2.0 * b1)
        assert datagen.is_orthogonal(bases)

    def test_rank_structure(self):
        data, _ = datagen.generate(spec_of())
        assert linalg.matrix_rank(data.x) == 6
        for i in range(3):
            block = data.x[:, data.labels == i]
            assert linalg.matrix_rank(block) == 2

    def test_insufficient_sampling_is_infeasible(self):
        # One sample in a 3-D subspace cannot be represented by the rest.
        spec = SubspaceSpec(
            ambient_dim=8,
            subspace_dims=(3, 2),
            samples_per_subspace=(1, 5),
            mode=datagen.INDEPENDENT,
            seed=1,
        )
        data, _ = datagen.generate(spec)
        with pytest.raises(solvers.InfeasibleColumn) as err:
            solvers.lsr_constrained(data)
        assert err.value.index == 0
        assert err.value.residual > 1e-8

    def test_sufficient_sampling_is_feasible(self):
        for seed in range(10):
            spec = SubspaceSpec(
                ambient_dim=9,
                subspace_dims=(1, 2, 3),
                samples_per_subspace=(2, 3, 4),  # n_i = d_i + 1
                seed=seed,
            )
            data, _ = datagen.generate(spec)
            coeffs = solvers.lsr_constrained(data)
            x = data.x
            assert np.linalg.norm(x - x @ coeffs.z) <= 1e-8 * np.linalg.norm(x)

    def test_seeded_determinism(self):
        a, _ = datagen.generate(spec_of(noise_sigma=0.1, correlation=0.4))
        b, _ = datagen.generate(spec_of(noise_sigma=0.1, correlation=0.4))
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.labels, b.labels)

    def test_noise_free_columns_lie_in_subspace(self):
        data, bases = datagen.generate(spec_of(seed=5))
        for i, basis in enumerate(bases.bases):
            block = data.x[:, data.labels == i]
            residual = block - basis @ (basis.T @ block)
            assert np.max(np.abs(residual)) <= 1e-10

    def test_normalize_columns(self):
        data, _ = datagen.generate(spec_of(normalize_columns=True))
        assert np.allclose(np.linalg.norm(data.x, axis=0), 1.0, atol=1e-12)

    def test_correlation_raises_pairwise_similarity(self):
        plain, _ = datagen.generate(spec_of(normalize_columns=True, seed=2))
        tight, _ = datagen.generate(
            spec_of(normalize_columns=True, seed=2, correlation=0.95)
        )

        def mean_within_corr(data):
            vals = []
            for i in range(3):
                block = data.x[:, data.labels == i]
                gram = np.abs(block.T @ block)
                vals.append(gram[np.triu_indices_from(gram, k=1)].mean())
            return np.mean(vals)

        assert mean_within_corr(tight) > mean_within_corr(plain)


def hstacked_generate(spec, coefficients=None):
    """X and labels as generate() first built them: one array per subspace,
    hstacked, then noise on and column norms of the whole matrix."""
    rng = np.random.default_rng(spec.seed)
    bases = datagen._draw_bases(spec, rng)
    columns, labels = [], []
    for i, (di, ni) in enumerate(zip(spec.subspace_dims, spec.samples_per_subspace)):
        if coefficients is not None:
            coeff = np.asarray(coefficients[i], dtype=np.float64)
        else:
            coeff = rng.standard_normal((di, ni))
            if spec.correlation:
                shared = rng.standard_normal((di, 1))
                coeff = spec.correlation * shared + (1.0 - spec.correlation) * coeff
        columns.append(bases[i] @ coeff)
        labels.extend([i] * ni)
    x = np.hstack(columns)
    if spec.noise_sigma > 0:
        x = x + spec.noise_sigma * rng.standard_normal(x.shape)
    if spec.normalize_columns:
        norms = np.linalg.norm(x, axis=0)
        x = x / np.where(norms > 0, norms, 1.0)
    return x, np.asarray(labels)


class TestOneArray:
    """generate() writes each block into one preallocated X, then adds noise
    and normalizes in pieces of about 2**16 elements, bit for bit as the
    hstacked form. The small cases fit in one piece; "tall" and "wide" take
    several noise chunks and column blocks of unequal widths, and the long
    columns several noise chunks."""

    CASES = {
        "plain": spec_of(),
        "noise": spec_of(noise_sigma=0.1, seed=1),
        "correlation": spec_of(correlation=0.9, noise_sigma=0.01, seed=2),
        "orthogonal": spec_of(mode=datagen.ORTHOGONAL, noise_sigma=0.05, seed=3),
        "normalize": spec_of(normalize_columns=True, seed=4),
        "tall": SubspaceSpec(ambient_dim=1000, subspace_dims=(9, 9, 9),
                             samples_per_subspace=(100, 100, 101), noise_sigma=0.01,
                             correlation=0.5, seed=5, normalize_columns=True),
        "wide": SubspaceSpec(ambient_dim=20, subspace_dims=(4,) * 4,
                             samples_per_subspace=(2001, 2000, 2000, 2000), noise_sigma=0.05,
                             seed=6, normalize_columns=True),
        "one_long_column": SubspaceSpec(ambient_dim=70000, subspace_dims=(2,),
                                        samples_per_subspace=(1,), noise_sigma=0.1, seed=7,
                                        normalize_columns=True),
        "three_long_columns": SubspaceSpec(ambient_dim=70000, subspace_dims=(2,),
                                           samples_per_subspace=(3,), noise_sigma=0.1, seed=8,
                                           normalize_columns=True),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bits_match_hstacked_form(self, name):
        spec = self.CASES[name]
        data, _ = datagen.generate(spec)
        x, labels = hstacked_generate(spec)
        assert data.x.tobytes() == x.tobytes()
        assert data.labels.dtype == labels.dtype and np.array_equal(data.labels, labels)

    def test_coefficients_override_matches_hstacked_form(self):
        spec = SubspaceSpec(ambient_dim=8, subspace_dims=(2, 3), samples_per_subspace=(4, 5),
                            noise_sigma=0.2, seed=4, normalize_columns=True)
        coeffs = [np.arange(8.0).reshape(2, 4), -np.arange(15.0).reshape(3, 5)]
        data, _ = datagen.generate(spec, coefficients=coeffs)
        assert data.x.tobytes() == hstacked_generate(spec, coeffs)[0].tobytes()

    @pytest.mark.parametrize("ambient_dim, dims, samples", [
        (2016, (9,) * 10, (64,) * 10),  # the paper-batch faces-10 shape
        (30, (5,) * 5, (2400,) * 5),
    ], ids=["tall", "wide"])
    def test_peak_is_about_the_output(self, ambient_dim, dims, samples):
        # 3.1x at both shapes with the hstack, the whole-matrix noise draw and
        # the normalized copy; 1.24 and 1.28 measured one array at a time
        spec = SubspaceSpec(ambient_dim=ambient_dim, subspace_dims=dims,
                            samples_per_subspace=samples, noise_sigma=0.01, seed=1,
                            normalize_columns=True)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            data, _ = datagen.generate(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start <= 1.5 * data.x.nbytes


class TestBasisPredicates:
    def test_orthogonal_partition_is_independent_and_orthogonal(self):
        _, bases = datagen.generate(spec_of(mode=datagen.ORTHOGONAL))
        assert datagen.is_orthogonal(bases)
        assert datagen.is_independent(bases)

    def test_duplicated_basis_not_independent(self):
        _, bases = datagen.generate(spec_of())
        doubled = BasisSet([bases.bases[0], bases.bases[0].copy()])
        assert not datagen.is_independent(doubled)

    def test_independent_draws_are_independent(self):
        for seed in range(100):
            _, bases = datagen.generate(
                spec_of(seed=seed, subspace_dims=(1, 2, 3), ambient_dim=8,
                        samples_per_subspace=(2, 3, 4))
            )
            assert datagen.is_independent(bases)

    def test_random_independent_bases_not_orthogonal(self):
        for seed in range(20):
            _, bases = datagen.generate(spec_of(seed=seed))
            assert not datagen.is_orthogonal(bases)

    def test_single_subspace_vacuously_orthogonal(self):
        _, bases = datagen.generate(
            SubspaceSpec(ambient_dim=5, subspace_dims=(2,), samples_per_subspace=(4,))
        )
        assert datagen.is_orthogonal(bases)

    def test_basis_set_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            BasisSet([np.ones((4, 2))])


class TestDataMatrix:
    def test_label_length_checked(self):
        with pytest.raises(ValueError, match="labels"):
            DataMatrix(np.zeros((3, 4)), labels=[0, 1])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            DataMatrix(np.array([[np.nan, 1.0]]))


# Every library entry point that takes labels, each fed the labels `v`.
LABEL_CONSUMERS = {
    "DataMatrix": lambda v: DataMatrix(np.ones((3, 2)), labels=v),
    "Labeling": lambda v: spectral.Labeling(v, k=2),
    "align_clusters_pred": lambda v: metrics.align_clusters(v, [0, 0]),
    "align_clusters_truth": lambda v: metrics.align_clusters([0, 0], v),
    "segmentation_error": lambda v: metrics.segmentation_error([0, 0], v),
    "block_diag_violation": lambda v: metrics.block_diag_violation(np.ones((2, 2)), v),
}
BAD_LABELS = {
    "non_integral": [0.5, 1],
    "inf": [np.inf, 0],
    "nan": [np.nan, 0],
    "two_to_63": [2**63, 0],
    "1e19": [1e19, 0],
    "uint64_max": np.array([2**64 - 1, 0], dtype=np.uint64),
    "two_d": [[0, 1], [1, 0]],
}
GOOD_LABELS = {
    "integral_floats": [2.0, 3.0],
    "bools": [True, False],
    "uint64_in_range": np.array([5, 0], dtype=np.uint64),
    "empty": [],
}


class TestLabelArray:
    @pytest.mark.parametrize("consumer", sorted(LABEL_CONSUMERS))
    @pytest.mark.parametrize("case", sorted(BAD_LABELS))
    def test_bad_labels_raise(self, case, consumer):
        # non-integral and out-of-range labels used to be truncated or wrapped,
        # and inf raised OverflowError
        with pytest.raises(ValueError):
            LABEL_CONSUMERS[consumer](BAD_LABELS[case])

    @pytest.mark.parametrize("case", sorted(GOOD_LABELS))
    def test_good_labels_convert(self, case):
        v = GOOD_LABELS[case]
        labels = datagen.label_array(v)
        assert labels.dtype == np.int64
        assert np.array_equal(labels, np.asarray(v).astype(np.int64))

    def test_int64_is_not_copied(self):
        labels = np.arange(4, dtype=np.int64)
        assert datagen.label_array(labels) is labels
        assert DataMatrix(np.ones((2, 4)), labels=labels).labels is labels


class TestBasisDictionary:
    def test_least_norm_basis_representation_is_block_diagonal(self):
        # Representing X against the concatenated subspace bases (instead of
        # against X itself) has a unique solution supported on the owning
        # block when the subspaces are independent.
        for seed in range(5):
            data, bases = datagen.generate(
                spec_of(seed=seed, subspace_dims=(2, 3), ambient_dim=9,
                        samples_per_subspace=(5, 6))
            )
            b = bases.concatenated()
            z = linalg.pseudo_inverse(b) @ data.x
            assert np.linalg.norm(b @ z - data.x) <= 1e-8 * np.linalg.norm(data.x)
            row_owner = np.repeat(np.arange(2), [2, 3])
            cross = row_owner[:, None] != data.labels[None, :]
            assert np.max(np.abs(z[cross])) <= 1e-10
