"""Affinity construction and normalized-cuts spectral clustering.

The clustering realization is the symmetric-normalized-Laplacian variant:
embed with the k bottom eigenvectors of I - D^{-1/2} W D^{-1/2}, row-
normalize, then run seeded k-means++ with restarts. Above a small size those
eigenvectors are the top ones of M = D^{-1/2} W D^{-1/2}, found by Lanczos
from products with W alone, so neither the Laplacian nor a full
eigendecomposition is ever formed. Everything is deterministic given
(affinity, k, seed, restarts).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg

from . import linalg
from .solvers import Coefficients

KMEANS_MAX_ITER = 300
KMEANS_REL_TOL = 1e-9
EIGEN_TIE_TOL = 1e-12
# Dense eigh beats Lanczos up to max(DENSE_EIGEN_MAX_N, DENSE_EIGEN_N_PER_PAIR * (k+1))
# nodes (measured on a 2-core OpenBLAS VM for k = 2..40); the second term also
# keeps Lanczos away from k + 1 >= n - 1, which ARPACK cannot solve.
DENSE_EIGEN_MAX_N = 160
DENSE_EIGEN_N_PER_PAIR = 12


@dataclass
class Affinity:
    """Symmetric nonnegative similarity matrix."""

    w: np.ndarray

    def __post_init__(self):
        self.w = linalg.as_matrix(self.w, name="affinity")
        if self.w.shape[0] != self.w.shape[1]:
            raise ValueError(f"affinity must be square, got {self.w.shape}")
        if not np.array_equal(self.w, self.w.T):
            raise ValueError("affinity must be exactly symmetric")
        if np.any(self.w < 0):
            raise ValueError("affinity entries must be nonnegative")

    @property
    def n(self) -> int:
        return self.w.shape[0]


@dataclass
class Labeling:
    """Cluster assignment for n points, indices in [0, k).

    ``degenerate`` flags an all-zero affinity fallback, ``eigen_tie`` a
    near-degenerate spectral gap at the cut, and ``zero_degree`` lists
    isolated nodes that were force-assigned to the largest cluster.
    """

    labels: np.ndarray
    k: int
    degenerate: bool = False
    eigen_tie: bool = False
    zero_degree: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=int)
        if self.labels.ndim != 1:
            raise ValueError("labels must be 1-D")
        if self.k < 1:
            raise ValueError("cluster count must be >= 1")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.k):
            raise ValueError("label indices must lie in [0, k)")

    @property
    def n(self) -> int:
        return self.labels.shape[0]


def _affinity_array(w) -> np.ndarray:
    if isinstance(w, Affinity):
        return w.w
    return Affinity(w).w


def build_affinity(z) -> Affinity:
    """Symmetrized absolute coefficients, W_ij = (|Z_ij| + |Z_ji|) / 2."""
    mat = z.z if isinstance(z, Coefficients) else linalg.as_matrix(z, name="coefficients")
    a = np.abs(mat)
    return Affinity((a + a.T) / 2.0)


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centers[c] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centers[c]) ** 2, axis=1))
    return centers


def _assign(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    dist2 = ((points[:, np.newaxis, :] - centers[np.newaxis, :, :]) ** 2).sum(axis=2)
    labels = dist2.argmin(axis=1)
    return labels, dist2


def _lloyd(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, float]:
    k = centers.shape[0]
    labels, dist2 = _assign(points, centers)
    objective = float(dist2[np.arange(len(labels)), labels].sum())
    for _ in range(KMEANS_MAX_ITER):
        new_centers = centers.copy()
        for j in range(k):
            members = labels == j
            if members.any():
                new_centers[j] = points[members].mean(axis=0)
        # Re-seed empty clusters from the point farthest from its center.
        own_d2 = dist2[np.arange(len(labels)), labels].copy()
        for j in range(k):
            if not np.any(labels == j):
                far = int(own_d2.argmax())
                new_centers[j] = points[far]
                own_d2[far] = 0.0
        centers = new_centers
        labels, dist2 = _assign(points, centers)
        new_objective = float(dist2[np.arange(len(labels)), labels].sum())
        if new_objective == 0.0 or (
            objective > 0 and (objective - new_objective) / objective <= KMEANS_REL_TOL
        ):
            objective = new_objective
            break
        objective = new_objective
    return labels, objective


def kmeans(points, k: int, seed: int = 0, restarts: int = 20) -> Labeling:
    """Seeded k-means++ with Lloyd refinement, best of ``restarts`` runs.

    The winner is chosen by (objective, restart index), so identical seeds
    give bit-identical labels.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, np.newaxis]
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got k={k}")
    best_labels, best_obj = None, np.inf
    for restart in range(max(1, restarts)):
        rng = np.random.default_rng([seed, restart])
        centers = _kmeans_pp_init(pts, k, rng)
        labels, objective = _lloyd(pts, centers)
        if objective < best_obj:
            best_labels, best_obj = labels, objective
    return Labeling(best_labels, k)


def _bottom_laplacian_eigen(mat: np.ndarray, inv_sqrt: np.ndarray, k: int) -> linalg.SymEigen:
    """The bottom eigenpairs of L = I - M, M = D^{-1/2} W D^{-1/2}, ascending.

    Up to the crossover all n, by a dense ``eigh`` of L; above it only the
    k+1 that normalized cuts uses: the top k+1 of M by Lanczos on
    v -> s * (W (s * v)), s = diag(D^{-1/2}), mapped to 1 - lambda(M).
    """
    n = mat.shape[0]
    if n <= max(DENSE_EIGEN_MAX_N, DENSE_EIGEN_N_PER_PAIR * (k + 1)):
        return linalg.sym_eigen(np.eye(n) - inv_sqrt[:, np.newaxis] * mat * inv_sqrt)
    op = scipy.sparse.linalg.LinearOperator(
        (n, n), matvec=lambda v: inv_sqrt * (mat @ (inv_sqrt * v.ravel())), dtype=np.float64
    )
    top = linalg.sym_eigen(op, count=k + 1)
    return linalg.SymEigen(1.0 - top.values[::-1], top.vectors[:, ::-1])


def normalized_cuts(w, k: int, seed: int = 0, restarts: int = 20) -> Labeling:
    """Spectral clustering on the symmetric normalized Laplacian.

    Parameters
    ----------
    w : Affinity or symmetric nonnegative array
    k : number of clusters, 1 <= k <= n
    seed, restarts : k-means seeding configuration

    Only the k+1 bottom eigenpairs of the Laplacian are used: k for the
    embedding and one for the ``eigen_tie`` gap check. Above the dense
    crossover (DENSE_EIGEN_MAX_N nodes, more for large k) they are the top
    k+1 eigenpairs of D^{-1/2} W D^{-1/2}, computed by Lanczos from
    products with W, so no Laplacian is formed; below it a dense ``eigh``
    is faster.

    Zero-degree nodes get a zeroed D^{-1/2} entry, are clustered like any
    other row, and are finally reassigned to the largest cluster (listed in
    ``zero_degree``). An all-zero affinity with k > 1 falls back to
    contiguous index blocks with ``degenerate`` set.
    """
    mat = _affinity_array(w)
    n = mat.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got k={k}")

    if k > 1 and not mat.any():
        blocks = np.array_split(np.arange(n), k)
        labels = np.empty(n, dtype=int)
        for idx, block in enumerate(blocks):
            labels[block] = idx
        return Labeling(labels, k, degenerate=True)

    degrees = mat.sum(axis=1)
    isolated = np.nonzero(degrees <= 0)[0]
    inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(np.where(degrees > 0, degrees, 1.0)), 0.0)

    eigen = _bottom_laplacian_eigen(mat, inv_sqrt, k)
    eigen_tie = k < n and abs(eigen.values[k] - eigen.values[k - 1]) < EIGEN_TIE_TOL
    embedding = eigen.vectors[:, :k]
    row_norms = np.linalg.norm(embedding, axis=1, keepdims=True)
    embedding = np.where(row_norms > 0, embedding / np.where(row_norms > 0, row_norms, 1.0), 0.0)

    clustered = kmeans(embedding, k, seed=seed, restarts=restarts)
    labels = clustered.labels.copy()
    if isolated.size:
        connected = np.setdiff1d(np.arange(n), isolated)
        pool = labels[connected] if connected.size else labels
        counts = np.bincount(pool, minlength=k)
        labels[isolated] = int(counts.argmax())
    return Labeling(
        labels, k, eigen_tie=bool(eigen_tie), zero_degree=tuple(int(i) for i in isolated)
    )
