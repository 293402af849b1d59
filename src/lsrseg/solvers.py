"""Least squares regression solvers for self-representation.

Each solver returns an n x n coefficient matrix Z expressing every data
column as a combination of the others:

* ``lsr_constrained``  min ||Z||_F  s.t.  X = XZ (optionally diag(Z) = 0),
  closed form Z = -Q / diag(Q) with Q the projector onto null(X), or the
  shape-interaction matrix V_r V_r^T without the diagonal constraint.
* ``lsr1``             min ||X - XZ||_F^2 + lam*||Z||_F^2  s.t. diag(Z) = 0,
  closed form Z = -P / diag(P) with P = (X^T X + lam*I)^{-1}.
* ``lsr2``             the unconstrained ridge form,
  closed form Z = (X^T X + lam*I)^{-1} X^T X = I - lam*P, with the same P.
* ``column_oracle_ridge``  the slow reference: one independent SPD solve per
  column, used to cross-check the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .datagen import DataMatrix

CONSTRAINED = "constrained"
LSR1 = "lsr1"
LSR2 = "lsr2"

FEASIBILITY_TOL = 1e-8
UNIT_NORM_TOL = 1e-10


class NonPositiveLambda(ValueError):
    """Regularization weight must be finite and strictly positive."""


class InfeasibleColumn(ValueError):
    """A column is not representable by the allowed dictionary columns."""

    def __init__(self, index: int, residual: float):
        self.index = index
        self.residual = residual
        super().__init__(
            f"column {index} is not representable: relative residual {residual:.3e}"
        )


class UnnormalizedColumn(ValueError):
    """A column expected to have unit l2 norm does not."""

    def __init__(self, index: int, norm: float):
        self.index = index
        self.norm = norm
        super().__init__(f"column {index} has l2 norm {norm!r}, expected 1")


@dataclass
class Coefficients:
    """Solver output: the representation matrix plus how it was produced."""

    z: np.ndarray
    lam: float
    variant: str
    diag_constrained: bool

    def __post_init__(self):
        self.z = linalg.as_matrix(self.z, name="coefficient matrix")
        if self.z.shape[0] != self.z.shape[1]:
            raise ValueError(f"coefficient matrix must be square, got {self.z.shape}")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.diag_constrained and np.any(np.diag(self.z) != 0.0):
            raise ValueError("diagonal must be exactly zero when diag-constrained")

    @property
    def n(self) -> int:
        return self.z.shape[0]


@dataclass
class GroupingBoundReport:
    """Pairwise coefficient-difference bound check for one ridge query.

    Each entry of ``pairs`` is (i, j, lhs, rhs, r) with
    lhs = |z_i - z_j| / ||y||, rhs = sqrt(2(1 - r)) / lam, r = x_i^T x_j.
    """

    lam: float
    coefficients: np.ndarray
    pairs: list[tuple[int, int, float, float, float]] = field(default_factory=list)

    @property
    def max_slack_violation(self) -> float:
        """Largest lhs - rhs over all pairs (negative means the bound holds)."""
        if not self.pairs:
            return 0.0
        return max(lhs - rhs for _, _, lhs, rhs, _ in self.pairs)


def data_array(x) -> np.ndarray:
    """Accept a DataMatrix or a plain array-like; return the d x n array."""
    if isinstance(x, DataMatrix):
        return x.x
    return linalg.as_matrix(x, name="data matrix")


def _check_lambda(lam: float) -> float:
    lam = float(lam)
    if not 0 < lam < np.inf:
        raise NonPositiveLambda(f"lambda must be finite and > 0, got {lam}")
    return lam


def _zero_diag_rescale(p: np.ndarray) -> np.ndarray:
    """Z[:, i] = -P[:, i] / P[i, i] with a zero diagonal, in place of P.

    P = (X^T X + lam*I)^{-1} gives the diag-constrained ridge solution, and
    P = the projector onto null(X) its lam -> 0 limit. A zero P[i, i] leaves
    non-finite entries in column i for the caller to reject.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        p /= -np.diag(p)
    np.fill_diagonal(p, 0.0)
    return p


def lsr_constrained(x, zero_diag: bool = True, tol: float = FEASIBILITY_TOL) -> Coefficients:
    """Minimum-Frobenius-norm solution of X = XZ, in closed form.

    With ``zero_diag`` it is Z = -Q diag(Q)^{-1} with a zeroed diagonal,
    where Q = N N^T projects onto null(X); without, the shape-interaction
    matrix V_r V_r^T. N and V_r are the trailing and leading right singular
    vectors of one SVD, split at the singular values above
    ``linalg.SV_CUTOFF`` times the largest. N N^T is used rather than
    I - V_r V_r^T, whose cancellation loses accuracy on near-singular data.

    A nonzero column the closed form does not fit to a relative residual of
    ``tol`` (one only approximately in the span of the others) is refit on
    its own as the minimum-norm least-squares solution over its dictionary,
    which drops the column itself when ``zero_diag``. InfeasibleColumn is
    raised for the first column whose refit residual still exceeds ``tol``,
    which happens under insufficient sampling. X = XZ is homogeneous, so
    the gate and the refits read X scaled by the power of two that puts its
    largest singular value in [0.5, 1): exact in floating point, and no
    column norm over- or underflows at any data scale.
    """
    mat = data_array(x)
    n = mat.shape[1]
    _, s, vt = np.linalg.svd(mat, full_matrices=True)
    rank = int(np.count_nonzero(s > linalg.SV_CUTOFF * s[0])) if s[0] > 0 else 0
    basis = vt[rank:] if zero_diag else vt[:rank]
    z = basis.T @ basis
    del vt, basis  # release the n x n singular vectors before the gate
    if zero_diag:
        z = _zero_diag_rescale(z)
    mat = np.ldexp(mat, -np.frexp(s[0])[1])
    norms = np.linalg.norm(mat, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        residuals = np.linalg.norm(mat @ z - mat, axis=0) / norms
    for i in np.nonzero((norms > 0) & ~(residuals <= tol))[0]:
        xi = mat[:, i]
        keep = np.arange(n) != i if zero_diag else np.ones(n, dtype=bool)
        dictionary = mat[:, keep]
        zi = np.zeros(0)  # a lone column has an empty dictionary
        if dictionary.shape[1]:
            zi = linalg.pseudo_inverse(dictionary) @ xi
        residual = float(np.linalg.norm(dictionary @ zi - xi))
        residual /= float(np.linalg.norm(xi))
        if residual > tol:
            raise InfeasibleColumn(int(i), residual)
        z[keep, i] = zi
    return Coefficients(z, 0.0, CONSTRAINED, zero_diag)


def _gram(mat: np.ndarray) -> np.ndarray:
    """X^T X, or NonFiniteMatrix naming the overflow when it leaves float64."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = mat.T @ mat
    if not np.isfinite(gram).all():
        raise linalg.NonFiniteMatrix("Gram matrix X^T X overflows float64; rescale the data")
    return gram


def _ridge_inverse(x, lam: float) -> np.ndarray:
    """P = (X^T X + lam*I)^{-1}, the one n x n inverse both ridge forms share."""
    gram = _gram(data_array(x))
    n = gram.shape[0]
    gram.flat[:: n + 1] += lam
    return linalg.solve_spd(gram, np.eye(n))


def lsr1(x, lam: float) -> Coefficients:
    """Closed-form diag-constrained ridge representation.

    Computes P = (X^T X + lam*I)^{-1} once and rescales its columns,
    Z[:, i] = -P[:, i] / P[i, i] with a zero diagonal, instead of solving
    one reduced ridge system per column.
    """
    lam = _check_lambda(lam)
    return Coefficients(_zero_diag_rescale(_ridge_inverse(x, lam)), lam, LSR1, True)


def lsr2(x, lam: float) -> Coefficients:
    """Closed-form unconstrained ridge representation (X^T X + lam*I)^{-1} X^T X,
    formed in place as I - lam*P from the inverse P that ``lsr1`` rescales."""
    lam = _check_lambda(lam)
    z = _ridge_inverse(x, lam)
    z *= -lam
    z.flat[:: z.shape[0] + 1] += 1.0
    return Coefficients(z, lam, LSR2, False)


def column_oracle_ridge(x, lam: float, zero_diag: bool = True) -> Coefficients:
    """Reference ridge solver: one independent SPD solve per column.

    Deliberately avoids the shared-inverse shortcut so it can serve as an
    oracle for ``lsr1`` (zero_diag=True) and ``lsr2`` (zero_diag=False).
    """
    lam = _check_lambda(lam)
    gram = _gram(data_array(x))
    n = gram.shape[0]
    z = np.zeros((n, n))
    for i in range(n):
        if zero_diag:
            if n == 1:
                continue
            keep = np.arange(n) != i
        else:
            keep = np.ones(n, dtype=bool)
        m = int(keep.sum())
        # the column's own normal equations over its dictionary's Gram block
        z[keep, i] = linalg.solve_spd(
            gram[np.ix_(keep, keep)] + lam * np.eye(m), gram[keep, i]
        )
    return Coefficients(z, lam, LSR1 if zero_diag else LSR2, zero_diag)


def check_unit_columns(mat: np.ndarray, tol: float = UNIT_NORM_TOL) -> None:
    """Raise UnnormalizedColumn unless every column has unit l2 norm."""
    norms = np.linalg.norm(mat, axis=0)
    bad = np.nonzero(np.abs(norms - 1.0) > tol)[0]
    if bad.size:
        raise UnnormalizedColumn(int(bad[0]), float(norms[bad[0]]))


def grouping_bound_report(x, y, lam: float) -> GroupingBoundReport:
    """Solve the vector ridge problem and record the pairwise grouping bound.

    For z* = argmin ||y - Xz||^2 + lam*||z||^2 over unit-norm columns of X,
    every pair (i, j) satisfies |z_i - z_j| / ||y|| <= sqrt(2(1-r)) / lam
    with r the sample correlation x_i^T x_j.
    """
    lam = _check_lambda(lam)
    mat = data_array(x)
    check_unit_columns(mat)
    y_vec = np.asarray(y, dtype=np.float64).reshape(-1)
    if y_vec.shape[0] != mat.shape[0]:
        raise linalg.DimensionMismatch(
            f"query has {y_vec.shape[0]} entries, data has {mat.shape[0]} rows"
        )
    n = mat.shape[1]
    gram = mat.T @ mat
    z = linalg.solve_spd(gram + lam * np.eye(n), mat.T @ y_vec)
    y_norm = float(np.linalg.norm(y_vec))

    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            r = float(np.clip(gram[i, j], -1.0, 1.0))
            rhs = np.sqrt(max(2.0 * (1.0 - r), 0.0)) / lam
            lhs = abs(z[i] - z[j]) / y_norm if y_norm > 0 else 0.0
            pairs.append((i, j, float(lhs), float(rhs), r))
    return GroupingBoundReport(lam=lam, coefficients=z, pairs=pairs)
