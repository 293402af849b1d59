import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsrseg import datagen, linalg, metrics, solvers, spectral


def block_affinity(sizes, seed=0):
    """Random affinity whose connected components are the given blocks."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    w = np.zeros((n, n))
    start = 0
    for size in sizes:
        block = rng.uniform(0.5, 1.0, size=(size, size))
        block = (block + block.T) / 2
        w[start : start + size, start : start + size] = block
        start += size
    return w, np.repeat(np.arange(len(sizes)), sizes)


class TestAffinity:
    def test_antisymmetric_coefficients(self):
        z = np.array([[0.0, 1.0], [-1.0, 0.0]])
        w = spectral.build_affinity(z).w
        assert np.array_equal(w, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_zero_coefficients(self):
        assert not spectral.build_affinity(np.zeros((3, 3))).w.any()

    def test_two_lines_constrained_affinity_is_block_diagonal(self):
        x = np.array([[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 1.0, 2.0]])
        w = spectral.build_affinity(solvers.lsr_constrained(x)).w
        assert np.max(np.abs(w[:2, 2:])) <= 1e-12
        assert w[:2, :2].any() and w[2:, 2:].any()

    def test_symmetry_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            spectral.Affinity(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_nonnegative_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            spectral.Affinity(np.array([[0.0, -1.0], [-1.0, 0.0]]))


class TestKmeans:
    def test_separated_clouds(self):
        rng = np.random.default_rng(0)
        pts = np.vstack([rng.normal(0.0, 0.1, (10, 2)), rng.normal(5.0, 0.1, (10, 2))])
        lab = spectral.kmeans(pts, 2, seed=1)
        assert metrics.segmentation_error(lab, np.repeat([0, 1], 10)) == 0.0

    def test_identical_points_degenerate(self):
        pts = np.ones((6, 3))
        lab = spectral.kmeans(pts, 2, seed=0)
        # objective is zero; one cluster may stay empty
        assert np.array_equal(lab.labels, lab.labels[0] * np.ones(6, dtype=int))

    def test_fixed_seed_reproducible(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((40, 3))
        a = spectral.kmeans(pts, 4, seed=9, restarts=8)
        b = spectral.kmeans(pts, 4, seed=9, restarts=8)
        assert np.array_equal(a.labels, b.labels)

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            spectral.kmeans(np.zeros((3, 2)), 4)


class TestNormalizedCuts:
    def test_two_components_recovered_for_every_seed(self):
        w, truth = block_affinity([5, 7], seed=2)
        for seed in range(6):
            lab = spectral.normalized_cuts(w, 2, seed=seed)
            assert metrics.segmentation_error(lab, truth) == 0.0

    def test_k_components_recovered(self):
        w, truth = block_affinity([4, 6, 5], seed=3)
        lab = spectral.normalized_cuts(w, 3, seed=0)
        assert metrics.segmentation_error(lab, truth) == 0.0

    def test_identity_affinity_gives_singletons(self):
        lab = spectral.normalized_cuts(np.eye(5), 5, seed=0)
        assert sorted(lab.labels) == list(range(5))

    def test_three_subspace_pipeline_exact(self):
        spec = datagen.SubspaceSpec(
            ambient_dim=10,
            subspace_dims=(2, 2, 2),
            samples_per_subspace=(20, 20, 20),
            seed=4,
        )
        data, _ = datagen.generate(spec)
        w = spectral.build_affinity(solvers.lsr1(data, 1e-3))
        lab = spectral.normalized_cuts(w, 3, seed=0)
        assert metrics.segmentation_error(lab, data.labels) == 0.0

    def test_determinism(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal((30, 30))
        w = spectral.build_affinity(z)
        a = spectral.normalized_cuts(w, 3, seed=2, restarts=10)
        b = spectral.normalized_cuts(w, 3, seed=2, restarts=10)
        assert np.array_equal(a.labels, b.labels)

    def test_permutation_equivariance(self):
        w, truth = block_affinity([6, 6, 8], seed=5)
        rng = np.random.default_rng(1)
        perm = rng.permutation(w.shape[0])
        lab = spectral.normalized_cuts(w, 3, seed=0)
        lab_perm = spectral.normalized_cuts(w[np.ix_(perm, perm)], 3, seed=0)
        assert metrics.segmentation_error(lab_perm, lab.labels[perm]) == 0.0

    def test_zero_degree_node_flagged_and_reassigned(self):
        w, _ = block_affinity([4, 4], seed=6)
        n = w.shape[0] + 1
        padded = np.zeros((n, n))
        padded[:-1, :-1] = w
        lab = spectral.normalized_cuts(padded, 2, seed=0)
        assert lab.zero_degree == (n - 1,)
        counts = np.bincount(lab.labels[:-1], minlength=2)
        assert lab.labels[-1] == counts.argmax()

    def test_all_zero_affinity_degenerate_blocks(self):
        lab = spectral.normalized_cuts(np.zeros((6, 6)), 3, seed=0)
        assert lab.degenerate
        assert np.array_equal(lab.labels, [0, 0, 1, 1, 2, 2])

    def test_k_one_single_cluster(self):
        w, _ = block_affinity([5], seed=7)
        lab = spectral.normalized_cuts(w, 1, seed=0)
        assert np.array_equal(lab.labels, np.zeros(5, dtype=int))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 25))
    def test_laplacian_positive_semidefinite(self, seed, n):
        rng = np.random.default_rng(seed)
        w = spectral.build_affinity(rng.standard_normal((n, n))).w
        degrees = w.sum(axis=1)
        inv = np.where(degrees > 0, 1.0 / np.sqrt(np.where(degrees > 0, degrees, 1.0)), 0.0)
        lap = np.eye(n) - inv[:, None] * w * inv[None, :]
        values = linalg.sym_eigen(lap).values
        assert values[0] >= -1e-10
        assert values[0] <= 1e-10


class TestPeakMemory:
    """Live n x n float64 buffers per layer call at n = 500, traced by tracemalloc.

    The ridge solvers hold X^T X + lam*I, its Cholesky factor, the identity
    right-hand side and the solution; the affinity |Z| and its symmetrized
    sum; normalized cuts the Laplacian, eigh's working copy and eigenvectors.
    """

    N = 500

    @pytest.fixture(scope="class")
    def pipeline(self):
        spec = datagen.SubspaceSpec(
            ambient_dim=30,
            subspace_dims=(5,) * 5,
            samples_per_subspace=(self.N // 5,) * 5,
            noise_sigma=0.05,
            normalize_columns=True,
        )
        data, _ = datagen.generate(spec)
        coeffs = solvers.lsr1(data, 1e-2)
        return {
            "lsr1": (solvers.lsr1, data, 1e-2),
            "lsr2": (solvers.lsr2, data, 1e-2),
            "build_affinity": (spectral.build_affinity, coeffs),
            "normalized_cuts": (spectral.normalized_cuts, spectral.build_affinity(coeffs), 5),
        }

    @pytest.mark.parametrize("layer, limit", [
        ("lsr1", 4.1), ("lsr2", 4.1), ("build_affinity", 2.2), ("normalized_cuts", 3.1),
    ])
    def test_peak_nxn_buffers(self, pipeline, layer, limit):
        func, *args = pipeline[layer]
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            func(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak - start) / (8.0 * self.N**2) <= limit


class TestLabeling:
    def test_range_validation(self):
        with pytest.raises(ValueError, match="range|lie"):
            spectral.Labeling(np.array([0, 3]), k=2)

    def test_k_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            spectral.Labeling(np.array([0]), k=0)
