"""Synthetic unions of linear subspaces.

Generators control independence vs orthogonality, sampling sufficiency,
within-subspace correlation, and additive noise, so every structural claim
about the solvers can be exercised on data with known ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from . import linalg

INDEPENDENT = "independent"
ORTHOGONAL = "orthogonal"

ORTHOGONALITY_TOL = 1e-10


class SpecInfeasible(ValueError):
    """The requested subspace layout cannot be realized in the ambient space."""


@dataclass
class SubspaceSpec:
    """Generative description of a union of linear subspaces.

    ``correlation`` in [0, 1) blends each sample's coefficients toward a
    shared per-subspace direction, pushing pairwise sample correlations
    toward 1 as it approaches 1.
    """

    ambient_dim: int
    subspace_dims: tuple[int, ...]
    samples_per_subspace: tuple[int, ...]
    mode: str = INDEPENDENT
    noise_sigma: float = 0.0
    correlation: float = 0.0
    seed: int = 0
    normalize_columns: bool = False

    def __post_init__(self):
        self.subspace_dims = tuple(int(d) for d in self.subspace_dims)
        self.samples_per_subspace = tuple(int(n) for n in self.samples_per_subspace)
        if len(self.subspace_dims) != len(self.samples_per_subspace):
            raise SpecInfeasible("subspace_dims and samples_per_subspace lengths differ")
        if not self.subspace_dims:
            raise SpecInfeasible("at least one subspace is required")
        if any(d < 1 for d in self.subspace_dims):
            raise SpecInfeasible("subspace dimensions must be >= 1")
        if any(n < 1 for n in self.samples_per_subspace):
            raise SpecInfeasible("samples per subspace must be >= 1")
        if self.mode not in (INDEPENDENT, ORTHOGONAL):
            raise SpecInfeasible(f"unknown mode {self.mode!r}")
        if sum(self.subspace_dims) > self.ambient_dim:
            raise SpecInfeasible(
                f"sum of subspace dims {sum(self.subspace_dims)} exceeds "
                f"ambient dimension {self.ambient_dim}"
            )
        if not 0.0 <= self.noise_sigma < np.inf:
            raise SpecInfeasible("noise_sigma must be finite and nonnegative")
        if not 0.0 <= self.correlation < 1.0:
            raise SpecInfeasible("correlation must lie in [0, 1)")

    @property
    def n_subspaces(self) -> int:
        return len(self.subspace_dims)

    @property
    def n_samples(self) -> int:
        return sum(self.samples_per_subspace)

    def to_dict(self) -> dict:
        return asdict(self)


def label_array(labels) -> np.ndarray:
    """`labels` as 1-D int64, not copied when it already is: the one label
    rule. Each label is a finite integral value that fits in int64 (``2.0``
    is the label 2); anything else raises ValueError, so nothing is truncated."""
    arr = np.asarray(labels)
    kind = arr.dtype.kind
    if kind == "f":
        fits = np.all((np.abs(arr) < 2.0**63) & (arr == np.trunc(arr)))
    else:
        fits = kind in "bi" or (kind == "u" and not (arr.size and arr.max() >= 2**63))
    if arr.ndim != 1 or not fits:
        raise ValueError("labels must be 1-D, of finite integral values that fit in int64")
    return arr.astype(np.int64, copy=False)


@dataclass
class DataMatrix:
    """d x n sample matrix, columns are samples; optional ground-truth labels."""

    x: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.x = linalg.as_matrix(self.x, name="data matrix")
        if self.labels is not None:
            self.labels = label_array(self.labels)
            if self.labels.shape != (self.x.shape[1],):
                raise ValueError(
                    f"labels length {self.labels.shape} does not match "
                    f"{self.x.shape[1]} columns"
                )

    @property
    def ambient_dim(self) -> int:
        return self.x.shape[0]

    @property
    def n_samples(self) -> int:
        return self.x.shape[1]


@dataclass
class BasisSet:
    """Orthonormal bases of the generated subspaces, one d x d_i block each."""

    bases: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        self.bases = [linalg.as_matrix(b, name="basis") for b in self.bases]
        for idx, b in enumerate(self.bases):
            gram = b.T @ b
            if np.max(np.abs(gram - np.eye(b.shape[1]))) > ORTHOGONALITY_TOL:
                raise ValueError(f"basis block {idx} does not have orthonormal columns")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(b.shape[1] for b in self.bases)

    def concatenated(self) -> np.ndarray:
        return np.hstack(self.bases)


def _draw_bases(spec: SubspaceSpec, rng: np.random.Generator) -> list[np.ndarray]:
    d = spec.ambient_dim
    if spec.mode == ORTHOGONAL:
        frame, _ = np.linalg.qr(rng.standard_normal((d, d)))
        blocks, start = [], 0
        for di in spec.subspace_dims:
            blocks.append(frame[:, start : start + di].copy())
            start += di
        return blocks
    # Independent mode: per-subspace random orthonormal bases; a Gaussian
    # draw is independent with probability 1, but verify and redraw anyway.
    for _ in range(16):
        blocks = []
        for di in spec.subspace_dims:
            q, _ = np.linalg.qr(rng.standard_normal((d, di)))
            blocks.append(q)
        total = sum(spec.subspace_dims)
        if linalg.matrix_rank(np.hstack(blocks)) == total:
            return blocks
    raise SpecInfeasible("could not draw independent bases of the requested dims")


def generate(spec: SubspaceSpec, coefficients=None) -> tuple[DataMatrix, BasisSet]:
    """Draw a dataset from the union of subspaces described by `spec`.

    Parameters
    ----------
    spec : SubspaceSpec
    coefficients : optional list of (d_i x n_i) arrays
        Overrides the random coefficient draw, for tests that need fixed
        sample positions inside each subspace.

    Returns
    -------
    (DataMatrix, BasisSet)
        Data columns grouped by subspace, with ground-truth labels, plus
        the bases that generated them.
    """
    rng = np.random.default_rng(spec.seed)
    bases = _draw_bases(spec, rng)
    if coefficients is not None and len(coefficients) != spec.n_subspaces:
        raise ValueError("one coefficient block per subspace is required")

    x = np.empty((spec.ambient_dim, spec.n_samples))
    start = 0
    for i, (di, ni) in enumerate(zip(spec.subspace_dims, spec.samples_per_subspace)):
        if coefficients is not None:
            coeff = np.asarray(coefficients[i], dtype=np.float64)
            if coeff.shape != (di, ni):
                raise ValueError(
                    f"coefficient block {i} must be {di}x{ni}, got {coeff.shape}"
                )
        else:
            coeff = rng.standard_normal((di, ni))
            if spec.correlation:
                shared = rng.standard_normal((di, 1))
                coeff = spec.correlation * shared + (1.0 - spec.correlation) * coeff
        x[:, start : start + ni] = bases[i] @ coeff
        start += ni

    # Noise and normalization work on pieces of about `step` elements, so no
    # temporary is the size of x.
    step = 1 << 16
    if spec.noise_sigma > 0:
        flat = x.reshape(-1)
        for a in range(0, flat.size, step):  # the draws of one standard_normal(x.shape)
            chunk = flat[a : a + step]
            chunk += spec.noise_sigma * rng.standard_normal(chunk.size)
    if spec.normalize_columns:
        # never a one-column block: numpy sums a lone column pairwise, not
        # row by row as it sums a wider block, so its norm could differ
        blocks = max(1, min(x.shape[1] // 2, x.size // step))
        for block in np.array_split(x, blocks, axis=1):
            norms = np.linalg.norm(block, axis=0)
            block /= np.where(norms > 0, norms, 1.0)

    labels = np.repeat(np.arange(spec.n_subspaces), spec.samples_per_subspace)
    return DataMatrix(x, labels=labels), BasisSet(bases)


def is_independent(bases: BasisSet) -> bool:
    """True iff the subspaces sum directly (concatenated bases have full rank)."""
    total = sum(bases.dims)
    return linalg.matrix_rank(bases.concatenated()) == total


def is_orthogonal(bases: BasisSet) -> bool:
    """True iff all cross-block inner products vanish (within tolerance)."""
    blocks = bases.bases
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            if np.max(np.abs(blocks[i].T @ blocks[j])) > ORTHOGONALITY_TOL:
                return False
    return True
