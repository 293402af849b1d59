"""Dense matrix primitives shared by every other module.

Inputs are validated, finite float64 matrices. Factorizations are delegated
to LAPACK through numpy/scipy, and partial symmetric eigensolves to ARPACK.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

SV_CUTOFF = 1e-10


class DimensionMismatch(ValueError):
    """Operand shapes are incompatible."""


class NonFiniteMatrix(ValueError):
    """A matrix holds NaN or infinite entries."""


class NotPositiveDefinite(ValueError):
    """Cholesky factorization failed: matrix is not positive-definite."""


class ConvergenceFailure(RuntimeError):
    """The eigensolver did not converge within its iteration cap."""


class SymEigen(NamedTuple):
    """Eigendecomposition of a symmetric matrix.

    ``values`` are ascending, ``vectors`` has orthonormal columns and
    satisfies a @ vectors == vectors * values.
    """

    values: np.ndarray
    vectors: np.ndarray


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate `a` as a nonempty finite 2-D float64 array; a float64 ndarray is not copied."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.shape[0] == 0 or m.shape[1] == 0:
        raise DimensionMismatch(f"{name} must be nonempty, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteMatrix(f"{name} contains non-finite entries")
    return m


def _square(a) -> np.ndarray:
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got {a.shape}")
    return a


def solve_spd(a, b) -> np.ndarray:
    """Solve a @ s = b for symmetric positive-definite `a` via Cholesky.

    Only the lower triangle of `a` is read. `b` may be a vector or a matrix
    of right-hand sides; the result has the same trailing shape.
    """
    a = _square(a)
    b_arr = np.asarray(b, dtype=np.float64)
    if b_arr.ndim not in (1, 2):
        raise DimensionMismatch(f"rhs must be 1-D or 2-D, got ndim={b_arr.ndim}")
    if b_arr.shape[0] != a.shape[0]:
        raise DimensionMismatch(
            f"rhs has {b_arr.shape[0]} rows, matrix is {a.shape[0]}x{a.shape[1]}"
        )
    if not np.all(np.isfinite(b_arr)):
        raise NonFiniteMatrix("rhs contains non-finite entries")
    try:
        factor = scipy.linalg.cho_factor(a, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    return scipy.linalg.cho_solve(factor, b_arr, check_finite=False)


def sym_eigen(a, count: int | None = None) -> SymEigen:
    """Eigenpairs of a symmetric matrix, eigenvalues ascending.

    Without ``count``, all n eigenpairs of the dense matrix `a` by LAPACK,
    reading its lower triangle. With ``count`` (1 <= count < n - 1), only
    the ``count`` largest, by ARPACK's implicitly restarted Lanczos from the
    fixed start vector ones(n); `a` may then be a
    ``scipy.sparse.linalg.LinearOperator``, used only through products a @ v.
    """
    if count is None:
        a = _square(a)
        try:
            values, vectors = np.linalg.eigh(a)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(str(exc)) from exc
        return SymEigen(values, vectors)
    try:
        values, vectors = scipy.sparse.linalg.eigsh(
            a, k=count, which="LA", v0=np.ones(a.shape[0])
        )
    except scipy.sparse.linalg.ArpackError as exc:
        raise ConvergenceFailure(f"Lanczos eigensolve: {exc}") from exc
    return SymEigen(values, vectors)


def pseudo_inverse(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse; singular values below SV_CUTOFF*sigma_max are dropped."""
    return np.linalg.pinv(as_matrix(a), rcond=SV_CUTOFF)


def singular_values(a) -> np.ndarray:
    """Singular values of `a`, descending."""
    return np.linalg.svd(as_matrix(a), compute_uv=False)


def matrix_rank(a) -> int:
    """Numeric rank: number of singular values above SV_CUTOFF*sigma_max."""
    s = singular_values(a)
    if s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > SV_CUTOFF * s[0]))
