"""Dense matrix primitives shared by every other module.

Each array is validated once, where it enters the package from outside:
``as_matrix`` checks it in ``DataMatrix``, ``Coefficients`` and
``Affinity``, and a raw array in ``solvers.data_array``/``coefficient_array``
and ``ingest.pca_project``; ``spectral.kmeans`` checks its points. So
``matmul``, ``solve_spd``, ``sym_eigen`` and ``pseudo_inverse`` take the
finite float64 arrays of conforming shape that their callers built,
unchecked. The rank helpers still check theirs, since the criteria in
``metrics`` pass them whatever matrix their own caller gave. Factorizations
are delegated to LAPACK, and partial symmetric eigensolves to ARPACK.

``NumericError``, a ``ValueError``, is the one base of the package's numeric
failures: the four below (``ConvergenceFailure`` is a ``RuntimeError`` too),
``solvers``' ``NonPositiveLambda``, ``InfeasibleColumn`` and
``LambdaTooSmall``, ``ingest.DimensionError``, and ``metrics``'
``LengthMismatch`` and ``UnnormalizedColumn``. The CLI exits 3 on any of its
subclasses, and on numpy's and scipy's ``LinAlgError``.

One BLAS per run. numpy and scipy link separate OpenBLAS libraries, each
with its own thread pool, and the idle threads of one pool spin against the
other's on a small machine. ARPACK and ``solve_spd``'s Cholesky (scipy's
LAPACK ``potrf`` and ``potrs``, called with no wrapper in between) can only
run on scipy's, so every threaded BLAS or LAPACK call of a ``segment`` run,
whatever its solver, goes there too:

* matrix products through ``matmul`` (scipy's ``dgemm``): the ridge
  solvers' Gram matrices and X^T Y, ``solvers.lsr_constrained``'s
  projector and feasibility products, and ``ingest.pca_project``'s Gram
  matrix and projection;
* ``lsr_constrained``'s SVDs by ``scipy.linalg.svd`` with the ``gesdd``
  driver, the LAPACK routine numpy's ``svd`` calls;
* dense symmetric eigensolves through ``sym_eigen`` (scipy's ``eigh`` with
  the ``evd`` driver, the same LAPACK ``syevd`` numpy's ``eigh`` calls);
* the products of a ``sym_eigen`` Lanczos operator through
  ``scipy.linalg.blas``, not numpy's ``@``: ``spectral``'s W @ v and its
  degree vector by ``dsymv``, which reads one triangle of the symmetric W,
  and the bound steps' projections by ``dgemv``;
* ``metrics.block_diag_violation``'s label masses through ``matmul``.

The numpy calls left in such a run are element-wise, or level-1 products
and norms of single vectors and of the d x d system, which numpy's OpenBLAS
runs on the calling thread up to 10 000 entries, or the ``einsum`` sums of
squares of ``column_norms`` (each column's l2 norm at any scale), which use
no BLAS. numpy's BLAS still serves ``lsr_constrained``'s ``pseudo_inverse``
refits of the columns its closed form does not fit (none on data it fits),
``pca_project``'s rare thin-SVD fallback, the check suites' products and
SVDs of small matrices, and ``datagen``, which runs only at set-up.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse.linalg
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dpotrf, dpotrs

SV_CUTOFF = 1e-10
# column_norms takes a norm outside [NORM_MIN, NORM_MAX] again from the
# column scaled by a power of two: inside it, no square of an entry that
# matters has overflowed or underflowed.
NORM_MIN = 2.0**-500
NORM_MAX = 2.0**500


class NumericError(ValueError):
    """A numeric failure: the one base of the errors the CLI exits 3 on."""


class DimensionMismatch(NumericError):
    """Operand shapes are incompatible."""


class NonFiniteMatrix(NumericError):
    """A matrix holds NaN or infinite entries."""


class NotPositiveDefinite(NumericError):
    """Cholesky factorization failed: matrix is not positive-definite."""


class ConvergenceFailure(NumericError, RuntimeError):
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
    return _nonempty_finite(m, name)


def _nonempty_finite(m: np.ndarray, name: str) -> np.ndarray:
    if m.size == 0:
        raise DimensionMismatch(f"{name} must be nonempty, got shape {m.shape}")
    # a non-finite entry makes the sum non-finite, so only a sum that is not
    # finite (or that overflowed) needs the element-wise test and its temporary
    with np.errstate(over="ignore", invalid="ignore"):
        total = m.sum()
    if not np.isfinite(total) and not np.isfinite(m).all():
        raise NonFiniteMatrix(f"{name} contains non-finite entries")
    return m


def column_norms(a: np.ndarray) -> np.ndarray:
    """The l2 norm of each column of the nonempty 2-D `a`, at any scale.

    The sums of squares come from ``einsum``, with no d x n temporary; for a
    C-ordered `a` of two or more columns that is bit for bit
    ``np.linalg.norm(a, axis=0)``. Where Σx² has overflowed or underflowed,
    so the norm falls outside [NORM_MIN, NORM_MAX], the column is scaled
    first by the power of two that puts its largest entry in [0.5, 1): exact,
    so only the norm's own rounding is left. Such columns are taken one at a
    time, so no temporary exceeds one column. A zero column has norm 0.
    """
    norms = np.sqrt(np.einsum("ij,ij->j", a, a))
    for j in np.nonzero(~((norms >= NORM_MIN) & (norms <= NORM_MAX)))[0]:
        _, exponent = np.frexp(np.abs(a[:, j]).max())
        scaled = np.ldexp(a[:, j], -exponent)
        norms[j] = np.ldexp(np.sqrt(scaled @ scaled), exponent)
    return norms


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for 2-D float64 arrays, C-ordered, by scipy's ``dgemm``.

    Row-major a b is the column-major b^T a^T, so each operand goes to dgemm
    as the Fortran array it already is: a C-contiguous one as its transpose,
    an F-contiguous one as itself with its transpose flag set. Neither is
    copied; dgemm's Fortran-ordered output, transposed, is the C-ordered
    result. An operand that is neither C- nor F-contiguous, or not float64,
    is copied once into Fortran order.
    """

    def fortran_operand(m: np.ndarray) -> tuple[np.ndarray, int]:
        return (m.T, 0) if m.flags.c_contiguous else (m, 1)

    a_arg, trans_a = fortran_operand(a)
    b_arg, trans_b = fortran_operand(b)
    return dgemm(1.0, b_arg, a_arg, trans_a=trans_b, trans_b=trans_a).T


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ s = b for a symmetric positive-definite `a` by LAPACK's
    ``potrf`` and ``potrs`` on its lower triangle, which is left unchanged.

    `b` may be a vector or a matrix of right-hand sides; the result has the
    same trailing shape.
    """
    factor, info = dpotrf(a, lower=1, clean=0)
    if info > 0:
        raise NotPositiveDefinite(f"{info}-th leading minor is not positive definite")
    if info < 0:
        raise ValueError(f"LAPACK potrf rejected argument {-info}")
    s, info = dpotrs(factor, b, lower=1)
    if info < 0:
        raise ValueError(f"LAPACK potrs rejected argument {-info}")
    return s


def lanczos_start(n: int) -> np.ndarray:
    """The fixed start vector of every Lanczos run: n standard normal draws
    from ``default_rng(0)``. Unlike ones(n), which is an eigenvector of
    D^{-1/2} W D^{-1/2} whenever all degrees are equal, it has (almost
    surely) a component on every eigenvector, so the Krylov space does not
    hinge on the product returning such a vector exactly."""
    return np.random.default_rng(0).standard_normal(n)


def sym_eigen(a, count: int | None = None) -> SymEigen:
    """Eigenpairs of a symmetric matrix, eigenvalues ascending.

    Without ``count``, all n eigenpairs of the dense matrix `a` by LAPACK's
    ``syevd`` (scipy's), reading its lower triangle. With ``count``
    (1 <= count < n - 1), only the ``count`` largest, by ARPACK's implicitly
    restarted Lanczos from the fixed start vector ``lanczos_start(n)``; `a`
    may then be a ``scipy.sparse.linalg.LinearOperator``, used only through
    products a @ v.
    """
    if count is None:
        try:
            values, vectors = scipy.linalg.eigh(a, driver="evd", check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise ConvergenceFailure(str(exc)) from exc
        return SymEigen(values, vectors)
    try:
        values, vectors = scipy.sparse.linalg.eigsh(
            a, k=count, which="LA", v0=lanczos_start(a.shape[0])
        )
    except scipy.sparse.linalg.ArpackError as exc:
        raise ConvergenceFailure(f"Lanczos eigensolve: {exc}") from exc
    return SymEigen(values, vectors)


def pseudo_inverse(a: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse; singular values below SV_CUTOFF*sigma_max are dropped."""
    return np.linalg.pinv(a, rcond=SV_CUTOFF)


def singular_values(a) -> np.ndarray:
    """Singular values of `a`, descending along the last axis: one row per
    matrix of a nonempty finite (..., m, n) stack, a single 2-D matrix
    included, by one batched LAPACK ``gesdd`` call."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim < 2:
        raise DimensionMismatch(f"matrix must be 2-D or a stack of them, got ndim={m.ndim}")
    return np.linalg.svd(_nonempty_finite(m, "matrix"), compute_uv=False)


def numeric_rank(s: np.ndarray):
    """The rank cut along the last axis: how many of the descending singular
    values `s` exceed SV_CUTOFF*s[..., 0], so 0 where s[..., 0] is 0. An int
    for one 1-D `s`, an int array for a stack."""
    rank = np.count_nonzero(s > SV_CUTOFF * s[..., :1], axis=-1)
    return int(rank) if np.ndim(rank) == 0 else rank


def matrix_rank(a) -> int:
    """Numeric rank: number of singular values above SV_CUTOFF*sigma_max."""
    return numeric_rank(np.linalg.svd(as_matrix(a), compute_uv=False))
