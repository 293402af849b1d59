"""Least squares regression solvers for self-representation.

Each solver returns an n x n coefficient matrix Z expressing every data
column as a combination of the others:

* ``lsr_constrained``  min ||Z||_F  s.t.  X = XZ, diag(Z) = 0,
  closed form Z = -Q / diag(Q) with Q the projector onto null(X), formed
  as I - V_r V_r^T from a thin SVD unless a leverage nears 1.
* ``lsr1``             min ||X - XZ||_F^2 + lam*||Z||_F^2  s.t. diag(Z) = 0,
  closed form Z = -P / diag(P) with P = (X^T X + lam*I)^{-1}.
* ``lsr2``             the unconstrained ridge form,
  closed form Z = (X^T X + lam*I)^{-1} X^T X = I - lam*P, with the same P.
* ``column_oracle_ridge``  the per-column reference: one independent SPD
  solve per column, used to cross-check the closed forms.

For d < n both ridge forms come from one d x d solve instead of P: with
Y = (X X^T + lam*I_d)^{-1} X, the Woodbury identity gives lam*P = I - X^T Y,
so ``lsr2`` is X^T Y and ``lsr1`` rescales I - X^T Y (the 1/lam cancels).

The ridge forms take their products (the Gram matrix and X^T Y) with
``linalg.matmul`` and their Cholesky solves with ``linalg.solve_spd``, as
``column_oracle_ridge`` takes its own; ``lsr_constrained`` takes its SVDs
with ``scipy.linalg.svd`` and its products with ``linalg.matmul``. The three
diag-constrained forms share one rescale, ``_zero_diag_rescale``. Every
solver's ``segment`` run thus stays on scipy's BLAS (see ``linalg``).
numpy's serves only the ``linalg.pseudo_inverse`` refits of columns the
constrained closed form does not fit, ``ingest.pca_project``'s SVD
fallback, the check suites and ``datagen``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dnrm2

from . import linalg
from .datagen import DataMatrix

CONSTRAINED = "constrained"
LSR1 = "lsr1"
LSR2 = "lsr2"

FEASIBILITY_TOL = 1e-8
# lsr_constrained forms its null-space projector as I - V_r V_r^T only when
# every diagonal entry of it exceeds this, so that the cancellation in
# 1 - ||V_r^T e_i||^2 costs at most one bit of Q[i, i].
THIN_PROJECTOR_MIN_DIAG = 0.5
# A d < n ridge solve is returned only if every divisor 1 - x_i^T y_i of
# lsr1 exceeds this many times its estimated rounding error.
ROUNDING_MARGIN = 1e6


class NonPositiveLambda(linalg.NumericError):
    """Regularization weight must be finite and strictly positive."""


class InfeasibleColumn(linalg.NumericError):
    """A column is not representable by the allowed dictionary columns."""

    def __init__(self, index: int, residual: float):
        self.index = index
        self.residual = residual
        super().__init__(
            f"column {index} is not representable: relative residual {residual:.3e}"
        )


class LambdaTooSmall(linalg.NumericError):
    """Rounding error swamps a ridge divisor lam*P[i, i] (= 1 - x_i^T y_i when d < n)."""

    def __init__(self, index: int, divisor: float, rounding: float):
        self.index = index
        self.divisor = divisor
        self.rounding = rounding
        super().__init__(
            f"column {index}: lam*P[i, i] = {divisor:.3e} is within "
            f"{ROUNDING_MARGIN:g}x of its rounding error {rounding:.3e}; lambda is too small"
        )


def _square_matrix(z, name: str) -> np.ndarray:
    """`z` validated by ``linalg.as_matrix`` as `name`, and checked square."""
    z = linalg.as_matrix(z, name=name)
    if z.shape[0] != z.shape[1]:
        raise ValueError(f"coefficient matrix must be square, got {z.shape}")
    return z


@dataclass
class Coefficients:
    """Solver output: the representation matrix plus how it was produced."""

    z: np.ndarray
    lam: float
    variant: str

    def __post_init__(self):
        self.z = _square_matrix(self.z, "coefficient matrix")
        if not 0 <= self.lam < np.inf:
            raise ValueError(f"lam must be nonnegative and finite, got {self.lam}")
        if self.diag_constrained and np.any(np.diag(self.z) != 0.0):
            raise ValueError("diagonal must be exactly zero when diag-constrained")

    @property
    def diag_constrained(self) -> bool:
        """Whether diag(Z) = 0 is enforced: true for every variant but lsr2."""
        return self.variant != LSR2

    @property
    def n(self) -> int:
        return self.z.shape[0]


def data_array(x) -> np.ndarray:
    """Accept a DataMatrix or a plain array-like; return the d x n array."""
    if isinstance(x, DataMatrix):
        return x.x
    return linalg.as_matrix(x, name="data matrix")


def coefficient_array(z) -> np.ndarray:
    """Accept Coefficients or a plain array-like; return the n x n array."""
    if isinstance(z, Coefficients):
        return z.z
    return _square_matrix(z, "coefficients")


def _check_lambda(lam: float) -> float:
    lam = float(lam)
    if not 0 < lam < np.inf:
        raise NonPositiveLambda(f"lambda must be finite and > 0, got {lam}")
    return lam


def _zero_diag_rescale(p: np.ndarray, divisors: np.ndarray) -> np.ndarray:
    """Z[:, i] = P[:, i] / divisors[i] with a zero diagonal, in place of P.

    With divisors -diag(P), P = (X^T X + lam*I)^{-1} gives the
    diag-constrained ridge solution, and P = Q, the projector onto null(X),
    its lam -> 0 limit; with 1 - diag(X^T Y), P = X^T Y gives the ridge
    solution for d < n. A zero divisor leaves non-finite entries in column i
    for the caller to reject.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        p /= divisors
    np.fill_diagonal(p, 0.0)
    return p


def _identity_minus(m: np.ndarray, scale: float) -> np.ndarray:
    """I - scale*M, in place of M."""
    m *= -scale
    m.flat[:: m.shape[0] + 1] += 1.0
    return m


def _svd(mat: np.ndarray, full_matrices: bool):
    """scipy's LAPACK gesdd (numpy's SVD routine) on the validated `mat`."""
    return scipy.linalg.svd(mat, full_matrices=full_matrices, check_finite=False,
                            lapack_driver="gesdd")


def _null_projector(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q, the projector onto null(X), and the singular values of X.

    From a thin SVD, Q = I - V_r V_r^T, whose diagonal Q[i, i] =
    1 - ||V_r^T e_i||^2 cancels as column i's leverage nears 1. That form is
    kept only when every Q[i, i] exceeds THIN_PROJECTOR_MIN_DIAG; otherwise
    Q = N N^T from the trailing right singular vectors N of the full V: the
    thin SVD's V^T when d >= n, else a full SVD's. The rank cut is
    ``linalg.numeric_rank``.
    """
    _, s, vt = _svd(mat, full_matrices=False)
    row_space = vt[: linalg.numeric_rank(s)]
    if 1.0 - np.einsum("ij,ij->j", row_space, row_space).max() > THIN_PROJECTOR_MIN_DIAG:
        return _identity_minus(linalg.matmul(row_space.T, row_space), 1.0), s
    if mat.shape[0] < mat.shape[1]:
        del vt, row_space
        _, s, vt = _svd(mat, full_matrices=True)
    null_basis = vt[linalg.numeric_rank(s):]
    return linalg.matmul(null_basis.T, null_basis), s


def lsr_constrained(x) -> Coefficients:
    """Minimum-Frobenius-norm solution of X = XZ with diag(Z) = 0, in closed form.

    Z = -Q diag(Q)^{-1} with a zeroed diagonal, where Q projects onto
    null(X) past the singular values above ``linalg.SV_CUTOFF`` times the
    largest (``_null_projector``): I - V_r V_r^T from a thin SVD when no
    column's leverage comes within THIN_PROJECTOR_MIN_DIAG of 1, else N N^T
    from a full one, which keeps its accuracy on near-singular data.

    A nonzero column the closed form does not fit to a relative residual of
    FEASIBILITY_TOL (one only approximately in the span of the others) is
    refit on its own as the minimum-norm least-squares solution over the
    other columns. InfeasibleColumn is raised for the first column whose
    refit residual still exceeds FEASIBILITY_TOL, which happens under
    insufficient sampling. X = XZ is homogeneous, so the gate and the refits
    read X scaled by the power of two that puts its largest singular value
    in [0.5, 1), which is exact in floating point. Their norms come from
    ``linalg.column_norms`` and ``dnrm2``, which neither overflow nor
    underflow, so a column far smaller than the largest (say 1e-170 beside
    1) is fit as the same column at unit scale would be, not taken for a
    zero column.

    A zero column i puts e_i in null(X), so row and column i of Z are zero in
    exact arithmetic; they are set to exact zeros, as ``lsr1`` gives them.
    """
    mat = data_array(x)
    n = mat.shape[1]
    q, s = _null_projector(mat)
    z = _zero_diag_rescale(q, -np.diag(q))
    mat = np.ldexp(mat, -np.frexp(s[0])[1])
    norms = linalg.column_norms(mat)
    with np.errstate(divide="ignore", invalid="ignore"):
        residuals = linalg.column_norms(linalg.matmul(mat, z) - mat) / norms
    for i in np.nonzero((norms > 0) & ~(residuals <= FEASIBILITY_TOL))[0]:
        xi = mat[:, i]
        keep = np.arange(n) != i
        dictionary = mat[:, keep]
        zi = np.zeros(0)  # a lone column has an empty dictionary
        if dictionary.shape[1]:
            zi = linalg.pseudo_inverse(dictionary) @ xi
        residual = dnrm2(dictionary @ zi - xi) / dnrm2(xi)
        if residual > FEASIBILITY_TOL:
            raise InfeasibleColumn(int(i), residual)
        z[keep, i] = zi
    zero = norms == 0
    z[zero] = 0.0
    z[:, zero] = 0.0
    return Coefficients(z, 0.0, CONSTRAINED)


def _gram(a: np.ndarray, name: str) -> np.ndarray:
    """a^T a by ``linalg.matmul``, or NonFiniteMatrix naming the Gram matrix
    when it leaves float64."""
    gram = linalg.matmul(a.T, a)
    if not np.isfinite(gram).all():
        raise linalg.NonFiniteMatrix(f"Gram matrix {name} overflows float64; rescale the data")
    return gram


def _check_divisors(divisors: np.ndarray, system: np.ndarray, columns: np.ndarray,
                    scale: float = 1.0) -> None:
    """Raise LambdaTooSmall for the first divisor within ROUNDING_MARGIN times
    its rounding error, scale * eps * ||system||_F * ||columns[:, i]||^2: to
    first order, solving with `system` perturbs divisor i by at most that.
    It is formed as eps * (scale * ||c_i||) * (||system||_F * ||c_i||), so a
    huge lambda with its tiny columns neither overflows nor underflows."""
    norms = linalg.column_norms(columns)
    rounding = np.finfo(np.float64).eps * (scale * norms) * (dnrm2(system.ravel()) * norms)
    unresolved = np.nonzero(~(divisors > ROUNDING_MARGIN * rounding))[0]
    if unresolved.size:
        i = unresolved[0]
        raise LambdaTooSmall(int(i), float(divisors[i]), float(rounding[i]))


def _ridge_inverse(x, lam: float) -> tuple[np.ndarray, bool]:
    """The one n x n matrix both ridge forms derive from, and whether d < n.

    For d < n it is X^T Y with Y = (X X^T + lam*I_d)^{-1} X, from one d x d
    Cholesky solve, so that lam*P = I - X^T Y; otherwise it is
    P = (X^T X + lam*I)^{-1} itself, from an n x n Cholesky solve.

    lsr1 divides column i by lam*P[i, i], read as 1 - x_i^T y_i or from P.
    To first order the solve perturbs x_i^T y_i by at most
    eps * ||X X^T + lam*I|| * ||y_i||^2, and P[i, i] by at most
    eps * ||X^T X + lam*I|| * ||P e_i||^2, so where a divisor is within
    ROUNDING_MARGIN times that, LambdaTooSmall is raised rather than
    returning a Z that rounding decides.
    """
    mat = data_array(x)
    d, n = mat.shape
    if d < n:
        outer = _gram(mat.T, "X X^T")
        outer.flat[:: d + 1] += lam
        y = linalg.solve_spd(outer, mat)
        m = linalg.matmul(mat.T, y)
        _check_divisors(1.0 - np.diag(m), outer, y)
        return m, True
    gram = _gram(mat, "X^T X")
    gram.flat[:: n + 1] += lam
    p = linalg.solve_spd(gram, np.eye(n))
    _check_divisors(lam * np.diag(p), gram, p, scale=lam)
    return p, False


def lsr1(x, lam: float) -> Coefficients:
    """Closed-form diag-constrained ridge representation.

    Rescales the columns of lam*P = I - X^T Y (d < n) or of P,
    Z[:, i] = -P[:, i] / P[i, i] with a zero diagonal, instead of solving
    one reduced ridge system per column. For d < n that is
    Z[:, i] = (X^T Y)[:, i] / (1 - (X^T Y)[i, i]) off the diagonal, taken in
    one pass over X^T Y: bit for bit the rescale of I - X^T Y, since negating
    both sides of a quotient is exact. _check_divisors has ruled out a zero
    divisor.
    """
    lam = _check_lambda(lam)
    m, thin = _ridge_inverse(x, lam)
    divisors = 1.0 - np.diag(m) if thin else -np.diag(m)
    return Coefficients(_zero_diag_rescale(m, divisors), lam, LSR1)


def lsr2(x, lam: float) -> Coefficients:
    """Closed-form unconstrained ridge representation (X^T X + lam*I)^{-1} X^T X:
    X^T Y itself when d < n, else formed in place as I - lam*P."""
    lam = _check_lambda(lam)
    m, thin = _ridge_inverse(x, lam)
    if not thin:
        m = _identity_minus(m, lam)
    return Coefficients(m, lam, LSR2)


def column_oracle_ridge(x, lam: float, zero_diag: bool = True) -> Coefficients:
    """Reference ridge solver: one independent SPD solve per column.

    Deliberately avoids the shared-inverse shortcut so it can serve as an
    oracle for ``lsr1`` (zero_diag=True) and ``lsr2`` (zero_diag=False).
    The columns share only lam added to the Gram diagonal, X^T X + lam*I
    formed once; each column still factors and solves its own block of it
    (without its own row and column when zero_diag) by its own
    ``linalg.solve_spd``, LAPACK's ``potrf`` and ``potrs``. The block
    is kept in one Fortran-ordered array: column i's dictionary differs
    from column i-1's only in its place i-1, which holds i - 1 where the
    previous one held i, so only that row and column of the block are
    rewritten between the two solves.
    """
    lam = _check_lambda(lam)
    gram = _gram(data_array(x), "X^T X")
    n = gram.shape[0]
    system = gram + lam * np.eye(n)
    z = np.zeros((n, n))
    if not zero_diag:
        for i in range(n):
            z[:, i] = linalg.solve_spd(system, gram[:, i])
    elif n > 1:
        # column i's dictionary is 0, ..., i - 1, i + 1, ..., n - 1: its Gram
        # block takes rows and columns :i and i + 1: of the system. Only the
        # lower triangle is read, so only that part of row and column i - 1
        # is rewritten; the upper triangle keeps column 0's block.
        block = np.asfortranarray(system[1:, 1:])
        for i in range(n):
            if i:
                block[i - 1, :i] = system[i - 1, :i]
                block[i:, i - 1] = system[i + 1:, i - 1]
            s = linalg.solve_spd(block, np.concatenate((gram[:i, i], gram[i + 1:, i])))
            z[:i, i] = s[:i]
            z[i + 1:, i] = s[i:]
    return Coefficients(z, lam, LSR1 if zero_diag else LSR2)
