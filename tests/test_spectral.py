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


def noisy_union_affinity(n):
    """lsr1 affinity of n noisy unit columns from five 5-dim subspaces of R^30."""
    spec = datagen.SubspaceSpec(
        ambient_dim=30,
        subspace_dims=(5,) * 5,
        samples_per_subspace=(n // 5,) * 5,
        noise_sigma=0.05,
        normalize_columns=True,
    )
    data, _ = datagen.generate(spec)
    return spectral.build_affinity(solvers.lsr1(data, 1e-2)).w


def with_isolated_nodes(w, count):
    n = w.shape[0] + count
    padded = np.zeros((n, n))
    padded[: w.shape[0], : w.shape[0]] = w
    return padded


def cluster_on_path(monkeypatch, w, k, dense_max_n):
    """normalized_cuts with DENSE_EIGEN_MAX_N set, plus the one sym_eigen call it made."""
    monkeypatch.setattr(spectral, "DENSE_EIGEN_MAX_N", dense_max_n)
    calls = []
    sym_eigen = linalg.sym_eigen

    def spy(a, count=None):
        result = sym_eigen(a, count=count)
        calls.append((count, result))
        return result

    monkeypatch.setattr(linalg, "sym_eigen", spy)
    labeling = spectral.normalized_cuts(w, k, seed=0)
    monkeypatch.setattr(linalg, "sym_eigen", sym_eigen)
    (call,) = calls
    return labeling, call


def bottom_laplacian_values(call, k):
    """The k+1 smallest Laplacian eigenvalues from a dense or a Lanczos sym_eigen call."""
    count, eigen = call
    if count is None:
        return eigen.values[: k + 1]
    return 1.0 - eigen.values[::-1]


class TestLanczosPath:
    """The Lanczos path of normalized_cuts against the dense eigh path."""

    @pytest.fixture(scope="class")
    def noisy_600(self):
        return noisy_union_affinity(600)

    def assert_paths_agree(self, monkeypatch, w, k):
        dense, dense_call = cluster_on_path(monkeypatch, w, k, dense_max_n=10**9)
        lanczos, lanczos_call = cluster_on_path(monkeypatch, w, k, dense_max_n=0)
        assert dense_call[0] is None and lanczos_call[0] == k + 1
        assert np.max(np.abs(
            bottom_laplacian_values(lanczos_call, k) - bottom_laplacian_values(dense_call, k)
        )) <= 1e-12
        assert lanczos.eigen_tie == dense.eigen_tie
        assert lanczos.zero_degree == dense.zero_degree
        return dense, lanczos

    def test_noisy_union(self, monkeypatch, noisy_600):
        dense, lanczos = self.assert_paths_agree(monkeypatch, noisy_600, 5)
        assert metrics.segmentation_error(lanczos, dense.labels) == 0.0
        assert not lanczos.eigen_tie

    @pytest.mark.parametrize("w, k", [
        (block_affinity([40, 50, 30, 45, 35], seed=1)[0], 5),
        (np.kron(np.eye(5), np.ones((40, 40))), 5),
        (with_isolated_nodes(block_affinity([50, 60, 40, 55], seed=2)[0], 3), 4),
    ], ids=["block_diagonal", "equal_cliques", "isolated_nodes"])
    def test_k_components(self, monkeypatch, w, k):
        # a repeated eigenvalue 1 of D^{-1/2} W D^{-1/2}, one copy per component
        dense, lanczos = self.assert_paths_agree(monkeypatch, w, k)
        assert metrics.segmentation_error(lanczos, dense.labels) == 0.0
        assert not lanczos.eigen_tie

    def test_more_components_than_k(self, monkeypatch):
        # The k+1 eigenvalues at the cut are all 0, so the spectrum does not
        # fix the partition (eigen_tie): either path may pick any k of the 7
        # components' indicators, but neither may split a component.
        w, components = block_affinity([30] * 7, seed=3)
        dense, lanczos = self.assert_paths_agree(monkeypatch, w, 5)
        assert dense.eigen_tie and lanczos.eigen_tie
        for labeling in (dense, lanczos):
            for c in range(7):
                assert np.unique(labeling.labels[components == c]).size == 1

    @pytest.mark.parametrize("k", [3, 20])
    def test_each_side_of_the_cut(self, monkeypatch, noisy_600, k):
        cut = max(spectral.DENSE_EIGEN_MAX_N, spectral.DENSE_EIGEN_N_PER_PAIR * (k + 1))
        dense_max_n = spectral.DENSE_EIGEN_MAX_N
        for n, expected_count in ((cut, None), (cut + 1, k + 1)):
            _, (count, _) = cluster_on_path(monkeypatch, noisy_600[:n, :n], k, dense_max_n)
            assert count == expected_count
        w = noisy_600[: cut + 1, : cut + 1]
        dense, lanczos = self.assert_paths_agree(monkeypatch, w, k)
        assert metrics.segmentation_error(lanczos, dense.labels) == 0.0

    @pytest.mark.parametrize("k", [9, 10])
    def test_k_plus_one_at_least_n_stays_dense(self, monkeypatch, k):
        w, _ = block_affinity([5, 5], seed=4)
        labeling, (count, eigen) = cluster_on_path(monkeypatch, w, k, dense_max_n=0)
        assert count is None and eigen.values.size == 10
        assert labeling.n == 10


class TestPeakMemory:
    """Live n x n float64 buffers per layer call at n = 500, traced by tracemalloc.

    The ridge solvers hold X^T X + lam*I, its Cholesky factor, the identity
    right-hand side and the solution; the affinity |Z| and its symmetrized
    sum. Normalized cuts forms no n x n buffer: the Lanczos basis and work
    vectors of length n are all it adds to its input affinity (0.16 here).
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
        ("lsr1", 4.1), ("lsr2", 4.1), ("build_affinity", 2.2), ("normalized_cuts", 0.2),
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
