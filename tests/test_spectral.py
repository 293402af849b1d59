import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsrseg import cli, datagen, ingest, linalg, metrics, solvers, spectral


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

    def test_non_square_coefficients(self):
        # used to fail on numpy's broadcast inside _symmetrize_in_place
        with pytest.raises(ValueError, match="coefficient matrix must be square"):
            spectral.build_affinity(np.ones((3, 4)))

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

    @pytest.mark.parametrize("w, message", [
        ([[0.0, 1.0], [0.5, 0.0]], "symmetric"), ([[0.0, -1.0], [-1.0, 0.0]], "nonnegative"),
    ])
    def test_normalized_cuts_checks_plain_arrays(self, w, message):
        with pytest.raises(ValueError, match=message):
            spectral.normalized_cuts(np.array(w), 1)

    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 773])
    def test_tiles_equal_dense_reference(self, n):
        # signed entries, exact zeros and repeated values across the diagonal
        rng = np.random.default_rng(n)
        z = rng.standard_normal((n, n))
        z[rng.random((n, n)) < 0.2] = 0.0
        picks = rng.random((n, n)) < 0.2
        z[picks] = -z.T[picks]
        z[:, n // 2] = z[:, 0]
        original = z.copy()
        reference = (np.abs(z) + np.abs(z).T) / 2.0
        assert np.array_equal(spectral.build_affinity(z).w, reference)
        assert np.array_equal(z, original)
        coeffs = solvers.Coefficients(z, lam=0.0, variant=solvers.LSR2)
        affinity = spectral.affinity_in_place(coeffs)
        assert affinity.w is z and np.array_equal(z, reference)

    def test_overflowing_sum_is_non_finite(self):
        big = np.finfo(np.float64).max
        with pytest.raises(linalg.NonFiniteMatrix, match="affinity"):
            spectral.build_affinity(np.array([[0.0, big], [-big, 0.0]]))


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

    @pytest.mark.parametrize("restarts", [0, -3, 2.5])
    def test_restarts_must_be_a_positive_integer(self, restarts):
        # 0 and -3 used to run one restart
        with pytest.raises(ValueError, match="restarts"):
            spectral.kmeans(np.arange(5.0), 2, restarts=restarts)
        with pytest.raises(ValueError, match="restarts"):
            spectral.normalized_cuts(block_affinity([2, 3])[0], 2, restarts=restarts)

    def test_non_integral_k(self):
        with pytest.raises(ValueError, match="k=2.5"):
            spectral.kmeans(np.arange(5.0), 2.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected_before_any_restart(self, monkeypatch, bad):
        def no_restart(*args):
            raise AssertionError("a restart ran")

        monkeypatch.setattr(spectral, "_lloyd", no_restart)
        with pytest.raises(linalg.NonFiniteMatrix, match=r"rows: 0 \(1 of 4\)"):
            spectral.kmeans(np.array([[bad], [1.0], [2.0], [3.0]]), 2)
        pts = np.zeros((30, 2))
        pts[3:30:2, 1] = bad
        with pytest.raises(linalg.NonFiniteMatrix, match=r"rows: 3, 5, .*21, \.\.\. \(14 of 30\)"):
            spectral.kmeans(pts, 2)

    def test_reports_the_winning_restart(self):
        rng = np.random.default_rng(0)
        pts = np.vstack([rng.normal(0.0, 0.1, (10, 2)), rng.normal(5.0, 0.1, (10, 2))])
        lab = spectral.kmeans(pts, 2, seed=1)
        assert lab.lloyd_converged is True
        assert 1 <= lab.lloyd_iterations < spectral.KMEANS_MAX_ITER
        centers = np.array([pts[lab.labels == j].mean(axis=0) for j in range(2)])
        expected = np.sum((pts - centers[lab.labels]) ** 2)
        assert lab.kmeans_objective == pytest.approx(expected, rel=1e-12)
        runs = [
            spectral._lloyd(pts, spectral._kmeans_pp_init(pts, 2, np.random.default_rng([1, r])))
            for r in range(20)
        ]
        assert lab.kmeans_objective == min(run.objective for run in runs)

    def test_iteration_cap_reports_not_converged(self, monkeypatch):
        pts = np.random.default_rng(3).standard_normal((200, 2))
        converged = spectral.kmeans(pts, 4, seed=0)
        assert converged.lloyd_converged and converged.lloyd_iterations > 1
        monkeypatch.setattr(spectral, "KMEANS_MAX_ITER", 1)
        capped = spectral.kmeans(pts, 4, seed=0)
        assert capped.lloyd_converged is False
        assert capped.lloyd_iterations == 1
        assert capped.kmeans_objective > converged.kmeans_objective


def broadcast_sq_dists(points, centers):
    """The n x m x d broadcast that _sq_dists replaced, kept as its reference."""
    return ((points[:, np.newaxis, :] - centers[np.newaxis, :, :]) ** 2).sum(axis=2)


def within_ulps(a, b, ulps):
    return np.all(np.abs(a - b) <= ulps * np.spacing(np.maximum(np.abs(a), np.abs(b))))


def seeded_clouds(seed, d, n=300):
    """n points around d random means in R^d."""
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, 2.0, (d, d))
    return means[rng.integers(d, size=n)] + rng.normal(0.0, 0.5, (n, d))


def half_duplicated(seed, d):
    points = seeded_clouds(seed, d, n=150)
    return np.vstack([points, points[::-1]])


class TestSqDists:
    """_sq_dists adds coordinates in order from zero: numpy's own sum below 8
    terms, its pairwise sum (which may round differently) from 8 up."""

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 7])
    def test_bit_identical_below_eight_coordinates(self, d):
        rng = np.random.default_rng(d)
        points = rng.standard_normal((500, d))
        for centers in (points[rng.integers(500, size=d)], points[:1], rng.normal(size=(3, d))):
            assert np.array_equal(spectral._sq_dists(points, centers),
                                  broadcast_sq_dists(points, centers))

    # Two orders of adding d nonnegative terms differ by at most (d - 1) eps
    # relative, 2 (d - 1) ulps. Up to d = 10 no pair was seen more than 4 ulps
    # apart; at d = 24 up to 6 were (500 x 24 normal points, 20 seeds).
    @pytest.mark.parametrize("d, ulps", [(8, 4), (10, 4), (24, 2 * 23)])
    def test_within_a_few_ulps_from_eight_coordinates(self, d, ulps):
        rng = np.random.default_rng(d)
        points = rng.standard_normal((500, d))
        centers = points[rng.integers(500, size=d)]
        assert within_ulps(spectral._sq_dists(points, centers),
                           broadcast_sq_dists(points, centers), ulps)

    @pytest.mark.parametrize("points, k", [
        (seeded_clouds(0, 2), 2), (seeded_clouds(1, 3), 3), (seeded_clouds(2, 5), 5),
        (seeded_clouds(3, 7), 7), (np.round(seeded_clouds(4, 3)), 3),
        (np.round(seeded_clouds(5, 5), 1), 5),
        (half_duplicated(6, 5), 5),
        # three distinct points for four centres: every restart re-seeds one
        (np.repeat(np.eye(3), 10, axis=0), 4),
    ], ids=["clouds_2", "clouds_3", "clouds_5", "clouds_7", "ties_3", "ties_5",
            "half_duplicated", "empty_cluster_reseed"])
    def test_kmeans_equals_broadcast_reference(self, monkeypatch, points, k):
        ours = spectral.kmeans(points, k, seed=7)
        monkeypatch.setattr(spectral, "_sq_dists", broadcast_sq_dists)
        reference = spectral.kmeans(points, k, seed=7)
        assert np.array_equal(ours.labels, reference.labels)
        assert ours.kmeans_objective == reference.kmeans_objective
        assert ours.lloyd_iterations == reference.lloyd_iterations


def per_cluster_centers(points, labels, k, own_d2):
    """The centre update as it was before np.bincount: one boolean mask and
    mean per cluster, re-seeding empty ones in the same loop."""
    centers = np.empty((k, points.shape[1]))
    for j in range(k):
        members = labels == j
        if members.any():
            centers[j] = points[members].mean(axis=0)
        else:  # re-seed from the point farthest from its center
            far = int(own_d2.argmax())
            centers[j] = points[far]
            own_d2[far] = 0.0
    return centers


def per_cluster_lloyd(points, centers):
    """_lloyd with per_cluster_centers, and each point's own distance by a
    second min."""

    def assign(centers):
        dist2 = spectral._sq_dists(points, centers)
        return dist2.argmin(axis=1), dist2.min(axis=1)

    labels, own_d2 = assign(centers)
    objective = float(own_d2.sum())
    for iteration in range(1, spectral.KMEANS_MAX_ITER + 1):
        centers = per_cluster_centers(points, labels, centers.shape[0], own_d2)
        labels, own_d2 = assign(centers)
        new_objective = float(own_d2.sum())
        if new_objective == 0.0 or (
            objective > 0 and (objective - new_objective) / objective <= spectral.KMEANS_REL_TOL
        ):
            return spectral._Lloyd(labels, new_objective, iteration, True)
        objective = new_objective
    return spectral._Lloyd(labels, objective, spectral.KMEANS_MAX_ITER, False)


def sphere_rows(seed, k, n=600):
    """Row-normalized noisy cluster indicators: a normalized-cuts embedding."""
    rng = np.random.default_rng(seed)
    rows = np.eye(k)[rng.integers(k, size=n)] + rng.normal(0.0, 0.3, (n, k))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


KMEANS_CASES = {
    "clouds_2": (seeded_clouds(0, 2), 2),
    "clouds_5": (seeded_clouds(2, 5), 5),
    "clouds_7": (seeded_clouds(3, 7), 7),
    "ties_3": (np.round(seeded_clouds(4, 3)), 3),
    "ties_5": (np.round(seeded_clouds(5, 5), 1), 5),
    "half_duplicated": (half_duplicated(6, 5), 5),
    "sphere_5": (sphere_rows(7, 5), 5),
    "sphere_10": (sphere_rows(8, 10), 10),
    # three distinct points for four centres: every restart re-seeds one
    "empty_cluster_reseed": (np.repeat(np.eye(3), 10, axis=0), 4),
    # two distinct points for four centres: two re-seeds per update, in order
    "two_empty_clusters": (np.repeat(np.eye(2), 10, axis=0), 4),
}


class TestCentreUpdate:
    """_lloyd's np.bincount centres against the per-cluster loop it replaced."""

    @staticmethod
    def assert_restarts_equal(points, k, seed=7, restarts=20):
        for restart in range(restarts):
            start = spectral._kmeans_pp_init(points, k, np.random.default_rng([seed, restart]))
            ours = spectral._lloyd(points, start.copy())
            reference = per_cluster_lloyd(points, start.copy())
            assert np.array_equal(ours.labels, reference.labels)
            assert ours.objective == reference.objective
            assert (ours.iterations, ours.converged) == (reference.iterations, reference.converged)

    @pytest.mark.parametrize("case", list(KMEANS_CASES))
    def test_bit_equal_to_per_cluster_means(self, case):
        self.assert_restarts_equal(*KMEANS_CASES[case])

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_bit_equal_at_the_iteration_cap(self, monkeypatch, cap):
        monkeypatch.setattr(spectral, "KMEANS_MAX_ITER", cap)
        for case in ("clouds_7", "sphere_10", "two_empty_clusters"):
            self.assert_restarts_equal(*KMEANS_CASES[case])

    def test_empty_clusters_reseed_in_cluster_order(self):
        # clusters 1 and 3 are empty: 1 takes the farthest point, 3 the next
        points = np.random.default_rng(11).standard_normal((12, 3))
        labels = np.array([0, 2, 4] * 4)
        own_d2 = np.arange(12.0) % 5
        ours, reference = own_d2.copy(), own_d2.copy()
        centers = spectral._centers(points, labels, 5, ours)
        assert np.array_equal(centers, per_cluster_centers(points, labels, 5, reference))
        assert np.array_equal(ours, reference)
        assert np.array_equal(centers[[1, 3]], points[[4, 9]])

    def test_one_coordinate_sums_in_point_order(self):
        # numpy's mean of one coordinate sums pairwise, so only the last bits
        # of the centres, and of the objective, may differ
        points = seeded_clouds(9, 1)
        for restart in range(20):
            start = spectral._kmeans_pp_init(points, 3, np.random.default_rng([7, restart]))
            ours = spectral._lloyd(points, start.copy())
            reference = per_cluster_lloyd(points, start.copy())
            assert np.array_equal(ours.labels, reference.labels)
            assert ours.iterations == reference.iterations
            assert ours.objective == pytest.approx(reference.objective, rel=1e-12)


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
        # n = 200 is past the dense cutoff: Lanczos cannot start from W = 0
        for n, k, expected in [
            (6, 3, [0, 0, 1, 1, 2, 2]), (6, 1, [0] * 6), (200, 1, [0] * 200),
        ]:
            lab = spectral.normalized_cuts(np.zeros((n, n)), k, seed=0)
            assert lab.degenerate
            assert np.array_equal(lab.labels, expected)

    def test_k_one_single_cluster(self):
        w, _ = block_affinity([5], seed=7)
        lab = spectral.normalized_cuts(w, 1, seed=0)
        assert np.array_equal(lab.labels, np.zeros(5, dtype=int))

    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_eigengap_is_the_laplacian_gap(self, k):
        w = spectral.build_affinity(np.random.default_rng(10).standard_normal((40, 40))).w
        inv = 1.0 / np.sqrt(w.sum(axis=1))
        values = np.linalg.eigvalsh(np.eye(40) - inv[:, None] * w * inv[None, :])
        lab = spectral.normalized_cuts(w, k, seed=0)
        assert lab.eigengap == pytest.approx(values[k] - values[k - 1], abs=1e-12)
        assert lab.eigen_tie == (lab.eigengap < spectral.EIGEN_TIE_TOL)

    def test_eigengap_null_without_a_next_eigenvalue(self):
        at_k_equal_n = spectral.normalized_cuts(np.eye(5), 5, seed=0)
        assert at_k_equal_n.eigengap is None and not at_k_equal_n.eigen_tie
        assert spectral.normalized_cuts(np.zeros((6, 6)), 3, seed=0).eigengap is None

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
    """normalized_cuts with DENSE_EIGEN_MAX_N set, the (count, result) of each
    sym_eigen call it made, and the (k bottom pairs, next value) it clustered on."""
    monkeypatch.setattr(spectral, "DENSE_EIGEN_MAX_N", dense_max_n)
    calls, bottom = [], []
    sym_eigen = linalg.sym_eigen
    bottom_eigen = spectral._bottom_laplacian_eigen

    def spy(a, count=None):
        result = sym_eigen(a, count=count)
        calls.append((count, result))
        return result

    def bottom_spy(*args):
        bottom.append(bottom_eigen(*args))
        return bottom[-1]

    monkeypatch.setattr(linalg, "sym_eigen", spy)
    monkeypatch.setattr(spectral, "_bottom_laplacian_eigen", bottom_spy)
    labeling = spectral.normalized_cuts(w, k, seed=0)
    monkeypatch.setattr(linalg, "sym_eigen", sym_eigen)
    monkeypatch.setattr(spectral, "_bottom_laplacian_eigen", bottom_eigen)
    (result,) = bottom
    return labeling, calls, result


def weak_link_affinity(weight):
    """Six random blocks of 60, the first two joined by one edge of ``weight``.

    At k = 5 the joined pair is one cluster: the Laplacian's 5th and 6th
    eigenvalues are 0 and about 7.4e-4 * weight. At weight 1e-8, ARPACK asked
    for only the top 5 of D^{-1/2} W D^{-1/2} converges to the wrong five.
    """
    w, _ = block_affinity([60] * 6, seed=0)
    w[0, 60] = w[60, 0] = weight
    return w


def ring_affinity(n, reach):
    """A regular graph: each of n nodes on a cycle joined to its 2 * reach nearest."""
    w = np.zeros((n, n))
    for step in range(1, reach + 1):
        for i in range(n):
            w[i, (i + step) % n] = w[(i + step) % n, i] = 1.0
    return w


class TestLanczosPath:
    """The Lanczos path of normalized_cuts against the dense eigh path."""

    @pytest.fixture(scope="class")
    def noisy_600(self):
        return noisy_union_affinity(600)

    def assert_paths_agree(self, monkeypatch, w, k, counts=None):
        """Both paths' labelings, and the Lanczos bound on lambda_{k+1} minus its exact value."""
        dense, dense_calls, (dense_eigen, exact) = cluster_on_path(monkeypatch, w, k, 10**9)
        lanczos, lanczos_calls, (lanczos_eigen, bound) = cluster_on_path(monkeypatch, w, k, 0)
        assert [count for count, _ in dense_calls] == [None]
        assert [count for count, _ in lanczos_calls] == (counts or [k])
        assert np.max(np.abs(lanczos_eigen.values - dense_eigen.values)) <= 1e-12
        # 1 - bound is a Ritz value of D^{-1/2} W D^{-1/2}, at most its mu_{k+1}
        assert bound >= exact - 1e-12
        assert lanczos.eigen_tie == dense.eigen_tie
        assert lanczos.zero_degree == dense.zero_degree
        for labeling in (dense, lanczos):
            assert labeling.eigen_tie == (labeling.eigengap < spectral.EIGEN_TIE_TOL)
        # the Lanczos gap reads 1 - theta >= lambda_{k+1} for lambda_{k+1}
        assert lanczos.eigengap >= dense.eigengap - 1e-12
        return dense, lanczos, bound - exact

    def test_noisy_union(self, monkeypatch, noisy_600):
        dense, lanczos, _ = self.assert_paths_agree(monkeypatch, noisy_600, 5)
        assert metrics.segmentation_error(lanczos, dense.labels) == 0.0
        assert not lanczos.eigen_tie

    @pytest.mark.parametrize("w, k, exact", [
        (block_affinity([40, 50, 30, 45, 35], seed=1)[0], 5, False),
        (np.kron(np.eye(5), np.ones((40, 40))), 5, True),
        (with_isolated_nodes(block_affinity([50, 60, 40, 55], seed=2)[0], 3), 4, False),
    ], ids=["block_diagonal", "equal_cliques", "isolated_nodes"])
    def test_k_components(self, monkeypatch, w, k, exact):
        # a repeated eigenvalue 1 of D^{-1/2} W D^{-1/2}, one copy per component.
        # mu_{k+1} tops a random bulk for random blocks, which the bound steps
        # approach only to within 1e-6; equal cliques have M = 0 off the top k,
        # so the bound steps break down at once on the exact mu_{k+1} = 0.
        dense, lanczos, excess = self.assert_paths_agree(monkeypatch, w, k)
        assert metrics.segmentation_error(lanczos, dense.labels) == 0.0
        assert not lanczos.eigen_tie
        if exact:
            assert abs(excess) <= 1e-12

    def test_more_components_than_k(self, monkeypatch):
        # The k+1 eigenvalues at the cut are all 0, so the spectrum does not
        # fix the partition (eigen_tie): either path may pick any k of the 7
        # components' indicators, but neither may split a component.
        w, components = block_affinity([30] * 7, seed=3)
        dense, lanczos, excess = self.assert_paths_agree(monkeypatch, w, 5)
        assert abs(excess) <= 1e-12
        assert dense.eigen_tie and lanczos.eigen_tie
        for labeling in (dense, lanczos):
            for c in range(7):
                assert np.unique(labeling.labels[components == c]).size == 1

    @pytest.mark.parametrize("weight, tie", [(1e-8, False), (1e-10, True)],
                             ids=["gap_above_tol", "gap_below_tol"])
    def test_weak_link_near_tie(self, monkeypatch, weight, tie):
        # The top-5 Lanczos from the seeded start finds all five eigenvalues
        # 1, so no recompute is needed (from ones(n) it missed one above the
        # tolerance); below the tolerance the bound proves the tie.
        w = weak_link_affinity(weight)
        dense, lanczos, _ = self.assert_paths_agree(monkeypatch, w, 5, [5])
        assert dense.eigen_tie is tie
        assert metrics.segmentation_error(lanczos, dense.labels) == 0.0

    @pytest.mark.parametrize("w", [
        weak_link_affinity(1e-8), block_affinity([40, 50, 30, 45, 35], seed=1)[0],
    ], ids=["weak_link", "block_diagonal"])
    def test_missed_eigenvalue_is_recomputed(self, monkeypatch, w):
        # An ARPACK run that misses the top eigenvalue of the top 5: the bound
        # exposes it (theta > mu_5 + EIGEN_TIE_TOL), and the top 6 are
        # computed instead.
        sym_eigen = linalg.sym_eigen

        def drop_top(a, count=None):
            if count != 5:
                return sym_eigen(a, count=count)
            six = sym_eigen(a, count=6)
            return linalg.SymEigen(six.values[:5], six.vectors[:, :5])

        monkeypatch.setattr(linalg, "sym_eigen", drop_top)
        dense, lanczos, _ = self.assert_paths_agree(monkeypatch, w, 5, [5, 6])
        assert not dense.eigen_tie
        assert metrics.segmentation_error(lanczos, dense.labels) == 0.0

    @pytest.mark.parametrize("w, k", [
        (np.kron(np.eye(5), np.ones((40, 40))), 5), (ring_affinity(200, 3), 1),
    ], ids=["equal_cliques", "regular_k1"])
    def test_seeded_start(self, monkeypatch, w, k):
        # ones(n) lies in the span of the top k eigenvectors of D^{-1/2} W D^{-1/2};
        # ARPACK and the bound steps both start from linalg.lanczos_start
        starts = []
        seeded = linalg.lanczos_start

        def spy(n):
            starts.append(n)
            return seeded(n)

        monkeypatch.setattr(linalg, "lanczos_start", spy)
        self.assert_paths_agree(monkeypatch, w, k)
        assert starts == [w.shape[0]] * 2
        monkeypatch.setattr(spectral, "DENSE_EIGEN_MAX_N", 0)
        first, second = (spectral.normalized_cuts(w, k, seed=0) for _ in range(2))
        assert starts == [w.shape[0]] * 6
        assert np.array_equal(first.labels, second.labels)
        assert (first.eigen_tie, first.zero_degree) == (second.eigen_tie, second.zero_degree)

    @pytest.mark.parametrize("k", [3, 20])
    def test_each_side_of_the_cut(self, monkeypatch, noisy_600, k):
        cut = max(spectral.DENSE_EIGEN_MAX_N, spectral.DENSE_EIGEN_N_PER_PAIR * (k + 1))
        dense_max_n = spectral.DENSE_EIGEN_MAX_N
        for n, expected_count in ((cut, None), (cut + 1, k)):
            _, ((count, _),), _ = cluster_on_path(monkeypatch, noisy_600[:n, :n], k, dense_max_n)
            assert count == expected_count
        w = noisy_600[: cut + 1, : cut + 1]
        dense, lanczos, _ = self.assert_paths_agree(monkeypatch, w, k)
        assert metrics.segmentation_error(lanczos, dense.labels) == 0.0

    @pytest.mark.parametrize("k", [9, 10])
    def test_k_plus_one_at_least_n_stays_dense(self, monkeypatch, k):
        w, _ = block_affinity([5, 5], seed=4)
        labeling, ((count, eigen),), _ = cluster_on_path(monkeypatch, w, k, dense_max_n=0)
        assert count is None and eigen.values.size == 10
        assert labeling.n == 10


class TestPeakMemory:
    """Live n x n float64 buffers per layer call, traced by tracemalloc.

    At n = 500, with d = 30 < n each ridge solver holds only X^T Y, rescaled
    or returned in place (1.07 here; 1.13 while the finiteness check of Z
    built an n x n boolean). The affinity is one |Z| copy symmetrized in
    place, tile by tile (1.13 with the tile temporaries). Normalized cuts
    forms no n x n buffer: the Lanczos basis and work vectors of length n are
    all it adds to its input affinity (0.11 here). The block-diagonality
    score holds |Z| of one block of metrics.VIOLATION_BLOCK_ROWS rows at a
    time (0.14).

    A whole ``segment`` run at n = 1000 builds W over the solver's Z, so after
    the solve it holds W and little more (1.08; was 3.16): the score reads
    W's rows in place.
    """

    N = 500
    RUN_N = 1000

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
            "block_diag_violation": (metrics.block_diag_violation, coeffs, data.labels),
        }

    @staticmethod
    def traced_nxn(n, func, *args):
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            func(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return (peak - start) / (8.0 * n**2)

    @pytest.mark.parametrize("layer, limit", [
        ("lsr1", 1.1), ("lsr2", 1.1), ("build_affinity", 1.2), ("normalized_cuts", 0.2),
        ("block_diag_violation", 0.25),
    ])
    def test_peak_nxn_buffers(self, pipeline, layer, limit):
        assert self.traced_nxn(self.N, *pipeline[layer]) <= limit

    @pytest.mark.parametrize("solver", ["lsr1", "lsr2"])
    def test_run_segmentation_peak(self, solver, tmp_path):
        spec = datagen.SubspaceSpec(
            ambient_dim=30,
            subspace_dims=(5,) * 5,
            samples_per_subspace=(self.RUN_N // 5,) * 5,
            noise_sigma=0.05,
            normalize_columns=True,
        )
        path = tmp_path / "d.csv"
        ingest.write_csv(datagen.generate(spec)[0], path)
        cfg = cli.RunConfig("segment", input=str(path), solver=solver, lam=1e-2)
        assert self.traced_nxn(self.RUN_N, cli.run_segmentation, cfg) <= 1.2


class TestLabeling:
    def test_range_validation(self):
        with pytest.raises(ValueError, match="range|lie"):
            spectral.Labeling(np.array([0, 3]), k=2)

    def test_k_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            spectral.Labeling(np.array([0]), k=0)

    def test_non_integral_k(self):
        with pytest.raises(ValueError, match="integer"):
            spectral.Labeling(np.array([0, 1]), k=2.5)
