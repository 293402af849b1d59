"""Affinity construction and normalized-cuts spectral clustering.

The clustering realization is the symmetric-normalized-Laplacian variant:
embed with the k bottom eigenvectors of I - D^{-1/2} W D^{-1/2}, row-
normalize, then run seeded k-means++ with restarts. Above a small size those
eigenvectors are the top k of M = D^{-1/2} W D^{-1/2}, found by Lanczos
from products with W alone, so neither the Laplacian nor a full
eigendecomposition is ever formed; the (k+1)-th eigenvalue, which only the
``eigen_tie`` check reads, gets a lower bound on mu_{k+1} from a few Lanczos
steps on M deflated by those k. Both Krylov runs start from
``linalg.lanczos_start``. Every product on that Lanczos path goes through
scipy's BLAS, the library ARPACK itself links: W @ v, ARPACK's and the bound
steps', and the degree vector W @ 1 by ``scipy.linalg.blas.dsymv``, which
reads one triangle of the exactly symmetric W, and the bound steps'
projections by ``dgemv``. So each step wakes one BLAS thread pool: numpy
links a second OpenBLAS, and on a small machine the idle threads of each pool
spin against the other's. Everything is deterministic given (affinity, k,
seed, restarts).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse.linalg
from scipy.linalg.blas import dgemv, dsymv

from . import linalg
from .datagen import label_array
from .solvers import Coefficients, coefficient_array

# Side of the square tiles that _symmetrize_in_place pairs up. Two 128 x 128
# float64 tiles (256 KiB) stay in cache while one is added to the other's
# transpose, and the tile temporaries stay at 0.13 n x n even at n = 500;
# 256 was no faster at n = 3000.
AFFINITY_TILE = 128
KMEANS_MAX_ITER = 300
KMEANS_REL_TOL = 1e-9
# eigen_tie is set when lambda_{k+1} - lambda_k < EIGEN_TIE_TOL for the
# Laplacian's k-th and (k+1)-th eigenvalues. On the dense path both are exact.
# On the Lanczos path lambda_{k+1} is replaced by 1 - theta >= lambda_{k+1},
# theta <= mu_{k+1} the bound of _next_value_bound, so a tie is set only when
# theta >= mu_k - EIGEN_TIE_TOL proves one; a near tie that the bound steps do
# not resolve reads as no tie.
EIGEN_TIE_TOL = 1e-12
# Dense eigh beats Lanczos up to max(DENSE_EIGEN_MAX_N, DENSE_EIGEN_N_PER_PAIR * (k+1))
# nodes (measured on a 2-core OpenBLAS VM for k = 2..40, when Lanczos computed
# k + 1 pairs); the second term also keeps Lanczos away from k >= n - 1, and
# its recompute with k + 1 pairs from k + 1 >= n - 1, which ARPACK cannot solve.
DENSE_EIGEN_MAX_N = 160
DENSE_EIGEN_N_PER_PAIR = 12
# Lanczos steps, one product with W each, that bound mu_{k+1} from below. On
# the segment-large benchmark's W (n = 3000, k = 5), 20 steps came within 5e-4
# of mu_{k+1} = 0.109, a bulk eigenvalue 6e-4 from mu_{k+2}, against 1.3e-3
# after 10; ARPACK spent about 100 more products converging that eigenvector.
LANCZOS_BOUND_STEPS = 20
# Residual norm at which the bound steps stop: the Krylov space is invariant
# to within it, since the eigenvalues of M lie in [-1, 1].
LANCZOS_BREAKDOWN = 1e-10


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

    @classmethod
    def _trusted(cls, w: np.ndarray) -> Affinity:
        """An Affinity over ``w`` without the checks, for a square W that is
        finite, nonnegative and exactly symmetric by construction."""
        affinity = object.__new__(cls)
        affinity.w = w
        return affinity

    @property
    def n(self) -> int:
        return self.w.shape[0]


def _is_count(value) -> bool:
    return isinstance(value, numbers.Integral) and value >= 1


def _check_counts(k, n: int, restarts) -> None:
    """Raise ValueError unless k is an integer in [1, n] and restarts one >= 1."""
    if not (_is_count(k) and k <= n):
        raise ValueError(f"need 1 <= k <= {n}, got k={k}")
    if not _is_count(restarts):
        raise ValueError(f"restarts must be an integer >= 1, got {restarts!r}")


@dataclass
class Labeling:
    """Cluster assignment for n points, indices in [0, k).

    ``degenerate`` flags an all-zero affinity fallback, ``eigen_tie`` a
    near-degenerate spectral gap at the cut, and ``zero_degree`` lists
    isolated nodes that were force-assigned to the largest cluster.
    ``eigen_tie`` compares the Laplacian's exact lambda_k and lambda_{k+1} on
    the dense path; on the Lanczos path it is set only when a Lanczos bound
    proves the tie, so a near tie that the bound does not resolve reads as
    no tie (see EIGEN_TIE_TOL). ``eigengap`` is the lambda_{k+1} - lambda_k
    that ``eigen_tie`` tests, exact on the dense path and an upper bound on
    the Lanczos path; it is None after the degenerate fallback and at k = n,
    where there is no lambda_{k+1}. ``kmeans_objective``, ``lloyd_iterations``
    and ``lloyd_converged`` describe the winning k-means restart: its sum of
    squared distances to the centres, its Lloyd centre updates, and whether
    Lloyd converged within KMEANS_MAX_ITER of them; all three are None when
    no k-means ran (the degenerate fallback).
    """

    labels: np.ndarray
    k: int
    degenerate: bool = False
    eigen_tie: bool = False
    zero_degree: tuple[int, ...] = field(default_factory=tuple)
    kmeans_objective: float | None = None
    lloyd_iterations: int | None = None
    lloyd_converged: bool | None = None
    eigengap: float | None = None

    def __post_init__(self):
        self.labels = label_array(self.labels)
        if not _is_count(self.k):
            raise ValueError(f"cluster count must be an integer >= 1, got {self.k!r}")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.k):
            raise ValueError("label indices must lie in [0, k)")

    @property
    def n(self) -> int:
        return self.labels.shape[0]


def _affinity_array(w) -> np.ndarray:
    if isinstance(w, Affinity):
        return w.w
    return Affinity(w).w


def _symmetrize_in_place(a: np.ndarray) -> Affinity:
    """Overwrite the finite nonnegative square ``a`` with (a + a.T) / 2.

    Each tile pair I <= J gets s = (a_IJ + a_JI^T) * 0.5 written into a_IJ
    and s^T into a_JI, so the temporaries are tile-sized. Addition commutes
    and halving is exact, so the result equals (a + a.T) / 2 bit for bit;
    a sum that overflows raises NonFiniteMatrix as the checked Affinity would.
    """
    n = a.shape[0]
    for i in range(0, n, AFFINITY_TILE):
        for j in range(i, n, AFFINITY_TILE):
            upper = a[i : i + AFFINITY_TILE, j : j + AFFINITY_TILE]
            lower = a[j : j + AFFINITY_TILE, i : i + AFFINITY_TILE]
            s = lower.T.copy()  # upper + lower.T would also buffer both operands
            with np.errstate(over="ignore"):
                s += upper
            s *= 0.5
            if s.max() == np.inf:
                raise linalg.NonFiniteMatrix("affinity contains non-finite entries")
            upper[...] = s
            lower[...] = s.T
    return Affinity._trusted(a)


def build_affinity(z) -> Affinity:
    """Symmetrized absolute coefficients, W_ij = (|Z_ij| + |Z_ji|) / 2.

    ``z`` is left unchanged; W is its one n x n output.
    """
    return _symmetrize_in_place(np.abs(coefficient_array(z)))


def affinity_in_place(coeffs: Coefficients) -> Affinity:
    """``build_affinity(coeffs)`` written over ``coeffs.z``, which then holds
    W instead of Z: for a caller that needs only W after the solve."""
    z = coeffs.z
    return _symmetrize_in_place(np.abs(z, out=z))


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances, n x m, from the n ``points`` to the m ``centers``.

    The squared coordinate differences are added one coordinate at a time,
    from zero, so no n x m x d array is formed. For d < 8 coordinates this
    is bit for bit numpy's sum over a contiguous axis of length d.
    """
    dist2 = np.zeros((points.shape[0], centers.shape[0]))
    for c in range(points.shape[1]):
        diff = points[:, c, np.newaxis] - centers[:, c]
        diff *= diff
        dist2 += diff
    return dist2


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = _sq_dists(points, centers[:1])[:, 0]
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centers[c] = points[idx]
        d2 = np.minimum(d2, _sq_dists(points, centers[c : c + 1])[:, 0])
    return centers


def _assign(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each point's nearest centre and its squared distance to it."""
    dist2 = _sq_dists(points, centers)
    labels = dist2.argmin(axis=1)
    return labels, np.take_along_axis(dist2, labels[:, np.newaxis], axis=1)[:, 0]


def _centers(points: np.ndarray, labels: np.ndarray, k: int, own_d2: np.ndarray) -> np.ndarray:
    """The k cluster means of ``points``; an empty cluster is re-seeded, in
    cluster order, at the point farthest from its centre, whose ``own_d2``
    entry is then zeroed.

    np.bincount adds each coordinate in point order, as the row-by-row sum of
    ``points[labels == j].mean(axis=0)`` does, so for two or more coordinates
    the means are bit for bit that; for one coordinate numpy's mean sums
    pairwise and may differ in the last bits.
    """
    counts = np.bincount(labels, minlength=k)
    sums = np.empty((k, points.shape[1]))
    for c in range(points.shape[1]):
        sums[:, c] = np.bincount(labels, weights=points[:, c], minlength=k)
    centers = sums / np.maximum(counts, 1)[:, np.newaxis]
    for j in np.nonzero(counts == 0)[0]:
        far = int(own_d2.argmax())
        centers[j] = points[far]
        own_d2[far] = 0.0
    return centers


class _Lloyd(NamedTuple):
    labels: np.ndarray
    objective: float
    iterations: int  # centre updates made
    converged: bool  # False when KMEANS_MAX_ITER updates left the objective moving


def _lloyd(points: np.ndarray, centers: np.ndarray) -> _Lloyd:
    k = centers.shape[0]
    labels, own_d2 = _assign(points, centers)
    objective = float(own_d2.sum())
    for iteration in range(1, KMEANS_MAX_ITER + 1):
        labels, own_d2 = _assign(points, _centers(points, labels, k, own_d2))
        new_objective = float(own_d2.sum())
        if new_objective == 0.0 or (
            objective > 0 and (objective - new_objective) / objective <= KMEANS_REL_TOL
        ):
            return _Lloyd(labels, new_objective, iteration, True)
        objective = new_objective
    return _Lloyd(labels, objective, KMEANS_MAX_ITER, False)


def kmeans(points, k: int, seed: int = 0, restarts: int = 20) -> Labeling:
    """Seeded k-means++ with Lloyd refinement, best of ``restarts`` runs.

    The winner is chosen by (objective, restart index), so identical seeds
    give bit-identical labels. The Labeling carries the winner's objective,
    Lloyd iteration count and whether Lloyd converged. A k or restarts that
    is not an integer in range raises ValueError, and non-finite points
    NonFiniteMatrix, before any restart.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, np.newaxis]
    n = pts.shape[0]
    _check_counts(k, n, restarts)
    bad = np.nonzero(~np.isfinite(pts).all(axis=1))[0]
    if bad.size:
        shown = ", ".join(str(i) for i in bad[:10]) + (", ..." if bad.size > 10 else "")
        raise linalg.NonFiniteMatrix(
            f"k-means points must be finite; non-finite rows: {shown} ({bad.size} of {n})"
        )
    best = None
    for restart in range(restarts):
        rng = np.random.default_rng([seed, restart])
        run = _lloyd(pts, _kmeans_pp_init(pts, k, rng))
        if best is None or run.objective < best.objective:
            best = run
    return Labeling(
        best.labels,
        k,
        kmeans_objective=best.objective,
        lloyd_iterations=best.iterations,
        lloyd_converged=best.converged,
    )


def _orthogonalize(basis: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``x`` minus its projection on the orthonormal rows of ``basis``, taken
    twice: one pass leaves round-off along them when x nearly lies in their span.
    ``basis`` is C-ordered, so its transpose is the Fortran array dgemv reads."""
    for _ in range(2):
        x = x - dgemv(1.0, basis.T, dgemv(1.0, basis.T, x, trans=1))
    return x


def _next_value_bound(matvec, top: np.ndarray) -> float:
    """A lower bound theta on mu_{k+1}, the largest eigenvalue of the symmetric
    M below the k whose orthonormal eigenvectors are the columns of ``top``.

    theta is the top Ritz value of LANCZOS_BOUND_STEPS Lanczos steps on
    (I - V V^T) M (I - V V^T), V = ``top``, reorthogonalized against V and
    the Krylov basis at every step and ended early on breakdown. The start is
    ARPACK's, ``linalg.lanczos_start(n)``, deflated.
    """
    n, k = top.shape
    basis = np.empty((k + LANCZOS_BOUND_STEPS, n))
    basis[:k] = top.T
    q = _orthogonalize(basis[:k], linalg.lanczos_start(n))
    alphas, betas = [], []
    for j in range(k, basis.shape[0]):
        basis[j] = q / np.linalg.norm(q)
        q = matvec(basis[j])
        alphas.append(basis[j] @ q)
        q = _orthogonalize(basis[: j + 1], q)
        beta = np.linalg.norm(q)
        if beta <= LANCZOS_BREAKDOWN:
            break
        betas.append(beta)
    return float(scipy.linalg.eigvalsh_tridiagonal(alphas, betas[: len(alphas) - 1])[-1])


def _bottom_laplacian_eigen(
    mat: np.ndarray, inv_sqrt: np.ndarray, k: int
) -> tuple[linalg.SymEigen, float]:
    """The k bottom eigenpairs of L = I - M, M = D^{-1/2} W D^{-1/2}, ascending,
    and the next eigenvalue lambda_{k+1} of L, or an upper bound on it.

    Up to the crossover, by a dense ``eigh`` of L; lambda_{k+1} is exact (inf
    when k = n). Above it, the top k pairs of M by Lanczos on
    v -> s * (W (s * v)), s = diag(D^{-1/2}), mapped to 1 - mu; lambda_{k+1}
    is 1 - theta for the bound theta <= mu_{k+1} of _next_value_bound. A
    theta above mu_k + EIGEN_TIE_TOL shows that Lanczos missed an eigenvalue
    of the top k, and the k+1 top pairs are then computed instead. ``mat`` is
    W in Fortran order, which dsymv reads in place.
    """
    n = mat.shape[0]
    if n <= max(DENSE_EIGEN_MAX_N, DENSE_EIGEN_N_PER_PAIR * (k + 1)):
        full = linalg.sym_eigen(np.eye(n) - inv_sqrt[:, np.newaxis] * mat * inv_sqrt)
        following = full.values[k] if k < n else np.inf
        return linalg.SymEigen(full.values[:k], full.vectors[:, :k]), following

    def matvec(v):
        return inv_sqrt * dsymv(1.0, mat, inv_sqrt * v.ravel())

    op = scipy.sparse.linalg.LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    top = linalg.sym_eigen(op, count=k)
    theta = _next_value_bound(matvec, top.vectors)
    if theta > top.values[0] + EIGEN_TIE_TOL:
        top = linalg.sym_eigen(op, count=k + 1)
        theta = top.values[0]
        top = linalg.SymEigen(top.values[1:], top.vectors[:, 1:])
    return linalg.SymEigen(1.0 - top.values[::-1], top.vectors[:, ::-1]), 1.0 - theta


def normalized_cuts(w, k: int, seed: int = 0, restarts: int = 20) -> Labeling:
    """Spectral clustering on the symmetric normalized Laplacian.

    Parameters
    ----------
    w : Affinity or symmetric nonnegative array
    k : number of clusters, an integer with 1 <= k <= n
    seed, restarts : k-means seeding configuration, restarts an integer >= 1

    The embedding uses the k bottom eigenpairs of the Laplacian, and the
    ``eigen_tie`` gap check the (k+1)-th eigenvalue. Below the dense
    crossover (DENSE_EIGEN_MAX_N nodes, more for large k) a dense ``eigh``
    gives them exactly. Above it the k pairs are the top k of
    D^{-1/2} W D^{-1/2}, computed by Lanczos from products with W, so no
    Laplacian is formed; the (k+1)-th eigenvalue is bounded by
    LANCZOS_BOUND_STEPS more products, and ``eigen_tie`` is set only when
    that bound proves a tie (|lambda_{k+1} - lambda_k| < EIGEN_TIE_TOL).
    The gap itself is returned as ``eigengap``: exact on the dense path, an
    upper bound on the Lanczos path, None at k = n.

    Zero-degree nodes get a zeroed D^{-1/2} entry, are clustered like any
    other row, and are finally reassigned to the largest cluster (listed in
    ``zero_degree``). An all-zero affinity falls back to contiguous index
    blocks with ``degenerate`` set.
    """
    # the transpose of a C-ordered W is W, as the Fortran array dsymv reads in
    # place (a W in any other order is copied once)
    mat = np.ascontiguousarray(_affinity_array(w)).T
    n = mat.shape[0]
    _check_counts(k, n, restarts)

    # W is nonnegative, so it is all zero exactly when its degrees are
    degrees = dsymv(1.0, mat, np.ones(n))
    if not degrees.any():
        blocks = np.array_split(np.arange(n), k)
        labels = np.empty(n, dtype=int)
        for idx, block in enumerate(blocks):
            labels[block] = idx
        return Labeling(labels, k, degenerate=True)

    isolated = np.nonzero(degrees <= 0)[0]
    inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(np.where(degrees > 0, degrees, 1.0)), 0.0)

    eigen, following = _bottom_laplacian_eigen(mat, inv_sqrt, k)
    eigengap = following - eigen.values[k - 1]
    embedding = eigen.vectors
    row_norms = np.linalg.norm(embedding, axis=1, keepdims=True)
    embedding = np.where(row_norms > 0, embedding / np.where(row_norms > 0, row_norms, 1.0), 0.0)

    clustered = kmeans(embedding, k, seed=seed, restarts=restarts)
    labels = clustered.labels.copy()
    if isolated.size:
        connected = np.setdiff1d(np.arange(n), isolated)
        counts = np.bincount(labels[connected], minlength=k)
        labels[isolated] = int(counts.argmax())
    return replace(
        clustered,
        labels=labels,
        eigen_tie=bool(eigengap < EIGEN_TIE_TOL),
        zero_degree=tuple(int(i) for i in isolated),
        eigengap=float(eigengap) if k < n else None,
    )
