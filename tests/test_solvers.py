import contextlib
import dataclasses
import inspect

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from lsrseg import datagen, ingest, linalg, metrics, solvers

# Two orthogonal lines in the plane, two samples each (at 1x and 2x the
# direction vector). Small enough to solve by hand.
TWO_LINES_X = np.array([[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 1.0, 2.0]])
TWO_LINES_LABELS = np.array([0, 0, 1, 1])

# A known feasible self-representation of TWO_LINES_X (X @ Z == X exactly)
# that mixes the two lines: minimizing nothing, it is neither block
# diagonal nor of minimal Frobenius norm.
MIXING_FEASIBLE_Z = np.array(
    [
        [0.5, 1.0, 1.0, 2.0],
        [0.25, 0.5, -0.5, -1.0],
        [1.0, 2.0, 0.5, 1.0],
        [-0.5, -1.0, 0.25, 0.5],
    ]
)


def near_duplicate_columns():
    """Seven unit columns in R^6, each with a near-duplicate 1e-5 away: X^T X
    + lam*I has condition ~1/lam."""
    rng = np.random.default_rng(0)
    base = rng.standard_normal((6, 7))
    x = np.hstack([base, base + 1e-5 * rng.standard_normal((6, 7))])
    return x / np.linalg.norm(x, axis=0)


def ridge_reference(x, lam):
    """lsr1's and lsr2's Z for data x, from P = (X^T X + lam*I)^{-1} at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    n = x.shape[1]
    with mpmath.workdps(50):
        m = mpmath.matrix(x.tolist())
        gram = m.T * m
        p = (gram + mpmath.mpf(lam) * mpmath.eye(n)) ** -1
        lsr1 = [[0.0 if i == j else float(-p[i, j] / p[j, j]) for j in range(n)]
                for i in range(n)]
        lsr2 = (p * gram).tolist()
    return np.array(lsr1), np.array(lsr2, dtype=float)


def relative_gap(z, reference):
    return np.max(np.abs(z - reference)) / np.max(np.abs(reference))


# Column 0 is orthogonal to the other three, which span a plane: its leverage
# tends to one as lam -> 0, and 1 - x_0^T y_0 ~ lam is left to rounding.
LEVERAGE_ONE_X = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.6, 0.8], [0.0, 0.0, 0.8, 0.6]])


def near_singular_union():
    """The seed-7251 union of five 2- and 3-dim subspaces, d_i + 3 samples
    each, and its coefficient blocks C_i (X = B C)."""
    dims = (3, 2, 2, 3, 2)
    rng = np.random.default_rng(7251)
    blocks = [rng.standard_normal((d, d + 3)) for d in dims]
    spec = datagen.SubspaceSpec(
        ambient_dim=sum(dims) + 2,
        subspace_dims=dims,
        samples_per_subspace=tuple(d + 3 for d in dims),
        seed=7251,
    )
    data, _ = datagen.generate(spec, coefficients=blocks)
    return data, blocks


def well_spread_union():
    """Three 4-dim subspaces of R^30 with 70 samples each: every leverage is
    far below 1."""
    spec = datagen.SubspaceSpec(ambient_dim=30, subspace_dims=(4,) * 3,
                                samples_per_subspace=(70,) * 3, seed=4)
    return datagen.generate(spec)[0]


def spy_on_svd(patch, shapes=None):
    """Patches scipy.linalg.svd to record the full_matrices flag of each call,
    and its matrix's shape in `shapes` if given; returns the list of flags."""
    calls = []
    svd = scipy.linalg.svd

    def spy(a, full_matrices=True, **kwargs):
        calls.append(full_matrices)
        if shapes is not None:
            shapes.append(np.shape(a))
        return svd(a, full_matrices=full_matrices, **kwargs)

    patch.setattr(scipy.linalg, "svd", spy)
    return calls


@pytest.fixture
def svd_calls(monkeypatch):
    """The full_matrices flag of every scipy SVD taken while the test runs."""
    return spy_on_svd(monkeypatch)


PROJECTOR_PATHS = ("thin", "full")


@contextlib.contextmanager
def projector_path(path):
    """Sends every lsr_constrained call in the block down the "thin" or the
    "full" projector path, by moving its gate's margin out of reach, and
    checks that each call took the SVDs of that path: a thin one, and on the
    full path a full one only when d < n (else the thin V^T is all of V)."""
    shapes = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solvers, "THIN_PROJECTOR_MIN_DIAG", -np.inf if path == "thin" else np.inf)
        calls = spy_on_svd(patch, shapes)
        yield
    expected = []
    for (d, n), full in zip(shapes, calls):
        if not full:  # each call starts with its thin SVD
            expected += [False, True] if path == "full" and d < n else [False]
    assert calls and calls == expected


class TestProjectorGate:
    def test_near_singular_reference_takes_full_path(self, svd_calls):
        # a leverage of 0.9998: I - V_r V_r^T would lose the 1e-10 bound
        solvers.lsr_constrained(near_singular_union()[0])
        assert svd_calls == [False, True]

    def test_well_spread_union_takes_thin_path(self, svd_calls):
        x = well_spread_union()
        z = solvers.lsr_constrained(x).z
        assert svd_calls == [False]
        _, s, vt = np.linalg.svd(x.x, full_matrices=True)
        null_basis = vt[linalg.numeric_rank(s):]
        q = null_basis.T @ null_basis
        full = solvers._zero_diag_rescale(q, -np.diag(q))
        assert np.max(np.abs(z - full)) <= 1e-14

    @pytest.mark.parametrize("shape", [(12, 12), (30, 21)], ids=["square", "tall"])
    def test_gated_d_ge_n_reuses_the_thin_svd(self, monkeypatch, svd_calls, shape):
        # when d >= n the thin SVD's V^T is all of V: the gated path takes no
        # second SVD, and its N N^T is bit for bit the full SVD's
        d, n = shape
        rng = np.random.default_rng(shape)
        x = rng.standard_normal((d, 4)) @ rng.standard_normal((4, n))
        monkeypatch.setattr(solvers, "THIN_PROJECTOR_MIN_DIAG", np.inf)
        z = solvers.lsr_constrained(x).z
        assert svd_calls == [False]
        _, s, vt = scipy.linalg.svd(x, full_matrices=True, lapack_driver="gesdd")
        null_basis = vt[linalg.numeric_rank(s):]
        q = linalg.matmul(null_basis.T, null_basis)
        full = solvers._zero_diag_rescale(q, -np.diag(q))
        assert np.array_equal(z.view(np.uint64), full.view(np.uint64))

    def test_margin_is_on_the_projector_diagonal(self, monkeypatch, svd_calls):
        x = well_spread_union()
        _, s, vt = np.linalg.svd(x.x, full_matrices=False)
        # the gate reads min Q[i, i] = 1 - max_i ||V_r^T e_i||^2
        row_space = vt[: linalg.numeric_rank(s)]
        min_diag = 1.0 - np.max(np.sum(row_space**2, axis=0))
        monkeypatch.setattr(solvers, "THIN_PROJECTOR_MIN_DIAG", min_diag * (1 + 1e-9))
        solvers.lsr_constrained(x)
        monkeypatch.setattr(solvers, "THIN_PROJECTOR_MIN_DIAG", min_diag * (1 - 1e-9))
        solvers.lsr_constrained(x)
        assert svd_calls == [False, True, False]


class TestLsrConstrained:
    def test_two_lines_first_column(self):
        coeffs = solvers.lsr_constrained(TWO_LINES_X)
        assert np.allclose(coeffs.z[:, 0], [0.0, 0.5, 0.0, 0.0], atol=1e-12)

    def test_two_lines_block_diagonal(self):
        coeffs = solvers.lsr_constrained(TWO_LINES_X)
        assert metrics.block_diag_violation(coeffs, TWO_LINES_LABELS) <= 1e-8

    def test_duplicated_column(self):
        x = np.array([[1.0, 1.0], [2.0, 2.0]])
        coeffs = solvers.lsr_constrained(x)
        assert np.allclose(coeffs.z, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)

    def test_tiny_column_is_fit_not_zeroed(self):
        # column 3's squared norm underflows: it was taken for a zero column,
        # with z[:, 3] = 0 and a relative residual of 1. Its fit is the one
        # of the same column at unit scale, scaled.
        x = np.array([[1.0, 0.0, 1.0, 1e-170], [0.0, 1.0, 1.0, 1e-170]])
        z = solvers.lsr_constrained(x).z
        assert np.allclose(z[:, 3] / 1e-170, [1 / 3, 1 / 3, 2 / 3, 0.0], rtol=1e-12, atol=0.0)

    def test_mixing_feasible_solution_is_not_minimal(self):
        # The handwritten mixing matrix reproduces X exactly, yet the
        # minimum-norm solver returns something strictly smaller and block
        # diagonal -- feasibility alone does not separate the lines.
        assert np.linalg.norm(TWO_LINES_X @ MIXING_FEASIBLE_Z - TWO_LINES_X) <= 1e-12
        assert metrics.block_diag_violation(MIXING_FEASIBLE_Z, TWO_LINES_LABELS) > 0.5
        coeffs = solvers.lsr_constrained(TWO_LINES_X)
        assert np.linalg.norm(coeffs.z) < np.linalg.norm(MIXING_FEASIBLE_Z)

    def test_reconstruction_residual(self):
        data, _ = datagen.generate(
            datagen.SubspaceSpec(
                ambient_dim=8, subspace_dims=(2, 2), samples_per_subspace=(6, 6), seed=3
            )
        )
        coeffs = solvers.lsr_constrained(data)
        x = data.x
        assert np.linalg.norm(x - x @ coeffs.z) <= 1e-8 * np.linalg.norm(x)

    def test_infeasible_column_reports_residual(self):
        x = np.eye(3)  # no column is representable by the others
        with pytest.raises(solvers.InfeasibleColumn) as err:
            solvers.lsr_constrained(x)
        assert err.value.index == 0
        assert err.value.residual == pytest.approx(1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    def test_feasibility_gate_at_extreme_scales(self, scale):
        # X = XZ is homogeneous, so scaling the data changes no answer,
        # though the squared column norms under- or overflow float64 at
        # 1e-200 and 1e200.
        for path in PROJECTOR_PATHS:
            with projector_path(path):
                with pytest.raises(solvers.InfeasibleColumn) as err:
                    solvers.lsr_constrained(scale * np.eye(3))
                assert (err.value.index, err.value.residual) == (0, 1.0)
                z = solvers.lsr_constrained(scale * TWO_LINES_X).z
                unscaled = solvers.lsr_constrained(TWO_LINES_X).z
            assert np.allclose(z, unscaled, rtol=0.0, atol=1e-15)

    def test_single_column(self):
        with pytest.raises(solvers.InfeasibleColumn):
            solvers.lsr_constrained(np.array([[1.0], [0.0]]))

    def test_zero_column_gets_exact_zeros(self):
        # e_3 lies in null(X), so row and column 3 of Z are zero in exact
        # arithmetic; the closed form alone leaves ~5e-16 in them
        data, _ = datagen.generate(datagen.SubspaceSpec(
            ambient_dim=10, subspace_dims=(2, 2), samples_per_subspace=(8, 8), seed=2,
        ))
        x = data.x.copy()
        x[:, 3] = 0.0
        keep = np.arange(16) != 3
        for path in PROJECTOR_PATHS:
            with projector_path(path):
                z = solvers.lsr_constrained(x).z
                # the other samples get the solution without the zero one
                reduced = solvers.lsr_constrained(x[:, keep]).z
            assert not z[3].any() and not z[:, 3].any()
            assert np.max(np.abs(z[np.ix_(keep, keep)] - reduced)) <= 1e-12

    @pytest.mark.parametrize(
        "x, expected",
        [
            # d = n = 4: x_3 duplicates x_0, x_2 = x_0 + x_1.
            (
                [[1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, 0.0], [0.0] * 4, [0.0] * 4],
                [
                    [0.0, -1 / 2, 1 / 2, 2 / 3],
                    [-1 / 3, 0.0, 1.0, -1 / 3],
                    [1 / 3, 1.0, 0.0, 1 / 3],
                    [2 / 3, -1 / 2, 1 / 2, 0.0],
                ],
            ),
            # x_1 = 2 x_0 and a zero column, which is represented by nothing.
            (
                [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]],
                [[0.0, 2.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]],
            ),
        ],
    )
    def test_hand_computed_solutions(self, x, expected):
        coeffs = solvers.lsr_constrained(np.array(x))
        assert np.allclose(coeffs.z, expected, rtol=0.0, atol=1e-12)

    # Each column of [[1, 1], [0, eps]] is off the other's span by a relative
    # residual of eps / sqrt(1 + eps^2), so X has rank 2 and no null space.

    def test_tolerance_accepts_least_squares_fit(self):
        # within FEASIBILITY_TOL the least-squares fits are kept, as the
        # per-column pseudoinverse solver did
        eps = 1e-9
        z = solvers.lsr_constrained(np.array([[1.0, 1.0], [0.0, eps]])).z
        assert np.allclose(z, [[0.0, 1.0], [1.0 / (1.0 + eps**2), 0.0]], rtol=0.0, atol=1e-15)

    def test_residual_beyond_tolerance_is_reported(self):
        eps = 1e-3
        with pytest.raises(solvers.InfeasibleColumn) as err:
            solvers.lsr_constrained(np.array([[1.0, 1.0], [0.0, eps]]))
        assert err.value.index == 0
        assert err.value.residual == pytest.approx(eps / np.sqrt(1.0 + eps**2), rel=1e-6)

    def test_partly_representable_column_residual(self):
        # Column 5 is a random vector outside span(a): its least-squares
        # residual lies strictly between 0 and 1. Values pinned from the
        # per-column pseudoinverse solver.
        rng = np.random.default_rng(5)
        a = rng.standard_normal((5, 3))
        x = np.column_stack(
            [a, a @ rng.standard_normal((3, 2)), rng.standard_normal(5), a[:, 0]]
        )
        with pytest.raises(solvers.InfeasibleColumn) as err:
            solvers.lsr_constrained(x)
        assert err.value.index == 5
        assert err.value.residual == pytest.approx(0.10404052794623153, rel=0.0, abs=1e-12)

    def test_matches_50_digit_reference_on_near_singular_union(self):
        # X = B C with B of full column rank, so the exact column i is the
        # minimum-norm z with C z = c_i and z_i = 0. This seed reaches
        # |Z| ~ 42, where forming the projector as I - V_r V_r^T loses the
        # 1e-10 bound.
        mpmath = pytest.importorskip("mpmath")
        data, blocks = near_singular_union()
        c_np = scipy.linalg.block_diag(*blocks)
        n = c_np.shape[1]
        reference = np.zeros((n, n))
        with mpmath.workdps(50):
            c = mpmath.matrix(c_np.tolist())
            for i in range(n):
                keep = [j for j in range(n) if j != i]
                dictionary = mpmath.matrix([[c[r, j] for j in keep] for r in range(c.rows)])
                zi = dictionary.T * mpmath.lu_solve(dictionary * dictionary.T, c[:, i])
                reference[keep, i] = [float(v) for v in zi]
        z = solvers.lsr_constrained(data).z
        assert np.max(np.abs(reference)) >= 30.0
        assert np.max(np.abs(z - reference)) <= 1e-10


class TestLsr1:
    def test_orthonormal_columns_give_zero(self):
        coeffs = solvers.lsr1(np.eye(3), 0.5)
        assert np.array_equal(coeffs.z, np.zeros((3, 3)))

    def test_matches_column_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 8))
        gap = np.abs(solvers.lsr1(x, 0.1).z - solvers.column_oracle_ridge(x, 0.1).z)
        assert np.max(gap) <= 1e-10

    def test_identical_unit_columns_share_half(self):
        # Gram [[1,1],[1,1]] + I: the inverse is computable by hand and
        # yields off-diagonal coefficients of exactly one half.
        x = np.array([[1.0, 1.0], [0.0, 0.0]])
        coeffs = solvers.lsr1(x, 1.0)
        assert coeffs.z[0, 1] == pytest.approx(0.5, abs=1e-10)
        assert coeffs.z[1, 0] == pytest.approx(0.5, abs=1e-10)

    def test_single_column_is_zero(self):
        coeffs = solvers.lsr1(np.array([[3.0], [4.0]]), 0.1)
        assert np.array_equal(coeffs.z, np.zeros((1, 1)))

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(solvers.NonPositiveLambda):
            solvers.lsr1(np.eye(2), 0.0)

    def test_zero_diagonal(self):
        rng = np.random.default_rng(1)
        coeffs = solvers.lsr1(rng.standard_normal((4, 9)), 0.3)
        assert np.all(np.diag(coeffs.z) == 0.0)
        assert coeffs.diag_constrained

    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    def test_thin_rescale_is_bit_identical_to_identity_minus(self, scale):
        # d < n: one pass over X^T Y equals rescaling I - X^T Y bit for bit,
        # signed zeros included
        rng = np.random.default_rng(2)
        for _ in range(20):
            d, n = rng.integers(2, 8), rng.integers(9, 30)
            x = scale * rng.standard_normal((d, n))
            x[:, rng.integers(n)] = 0.0
            lam = scale**2 * 10.0 ** rng.uniform(-3, 1)
            m, thin = solvers._ridge_inverse(x, lam)
            assert thin
            identity_minus = solvers._identity_minus(m, 1.0)
            reference = solvers._zero_diag_rescale(identity_minus, -np.diag(identity_minus))
            z = solvers.lsr1(x, lam).z
            assert np.array_equal(z.view(np.uint64), reference.view(np.uint64))

    @pytest.mark.parametrize("lam, bound", [(1e-8, 1e-14), (1e-4, 1e-14), (1e-1, 1e-15)])
    def test_matches_50_digit_reference_on_near_duplicate_columns(self, lam, bound):
        # X X^T + lam*I is well conditioned here, while X^T X + lam*I has
        # condition ~1/lam: bounds near eps hold only for the d x d solve.
        x = near_duplicate_columns()
        reference, _ = ridge_reference(x, lam)
        assert relative_gap(solvers.lsr1(x, lam).z, reference) <= bound


class TestLsr2:
    def test_identity_data(self):
        for lam in (0.1, 1.0, 7.5):
            coeffs = solvers.lsr2(np.eye(4), lam)
            assert np.allclose(coeffs.z, np.eye(4) / (1.0 + lam), atol=1e-12)

    def test_large_lambda_shrinks_to_zero(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1.0, 1.0, size=(5, 8))
        lam = 1e6
        coeffs = solvers.lsr2(x, lam)
        gram = x.T @ x
        assert np.linalg.norm(coeffs.z) <= 8 / lam * np.linalg.norm(gram)

    def test_stationarity_and_rank(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 10))
        lam = 0.05
        z = solvers.lsr2(x, lam).z
        gram = x.T @ x
        gradient = 2.0 * (gram @ z - gram) + 2.0 * lam * z
        assert np.max(np.abs(gradient)) <= 1e-8
        assert np.linalg.matrix_rank(z, tol=1e-9) == np.linalg.matrix_rank(x)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 7))
        lam = 0.2
        z = solvers.lsr2(x, lam).z

        def objective(m):
            return np.linalg.norm(x - x @ m) ** 2 + lam * np.linalg.norm(m) ** 2

        h = 1e-5
        for _ in range(20):
            i, j = rng.integers(0, 7, size=2)
            e = np.zeros_like(z)
            e[i, j] = h
            fd = (objective(z + e) - objective(z - e)) / (2.0 * h)
            assert abs(fd) <= 1e-4  # gradient vanishes at the optimum

    def test_matches_unconstrained_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 9))
        gap = np.abs(
            solvers.lsr2(x, 0.05).z
            - solvers.column_oracle_ridge(x, 0.05, zero_diag=False).z
        )
        assert np.max(gap) <= 1e-10

    @pytest.mark.parametrize("lam", [1e-8, 1e-4, 1e-1])
    def test_matches_50_digit_reference_on_near_duplicate_columns(self, lam):
        # X^T Y is formed without subtracting from I, so no eps/lam is lost.
        x = near_duplicate_columns()
        _, reference = ridge_reference(x, lam)
        assert relative_gap(solvers.lsr2(x, lam).z, reference) <= 2e-15


class TestThinRidge:
    """The d < n ridge forms, from one d x d solve."""

    @pytest.mark.parametrize("lam", [1e-8, 1e-2])
    def test_rank_deficient_rows_match_50_digit_reference(self, lam):
        # d = 6 < n = 10 with row rank 3: X X^T + lam*I is as ill-conditioned
        # as X^T X + lam*I, yet X^T Y stays accurate to a few eps.
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 10))
        lsr1_reference, lsr2_reference = ridge_reference(x, lam)
        assert relative_gap(solvers.lsr1(x, lam).z, lsr1_reference) <= 1e-14
        assert relative_gap(solvers.lsr2(x, lam).z, lsr2_reference) <= 1e-14

    @pytest.mark.parametrize("lam", [1e-16, 1e-17, 1e-20])
    @pytest.mark.parametrize("solver", [0, 1], ids=["lsr1", "lsr2"])
    def test_tiny_lambda_leverage_one_is_accurate_or_raises(self, solver, lam):
        # Below ~eps*||X||^2 rounding decides 1 - x_0^T y_0: a solver must
        # then raise a numeric error rather than return a wrong Z. The d >= n
        # inputs, 6 x 4 Gaussian with column 3 duplicating column 0, take
        # the n x n path, where rounding decides lam*P[0, 0] instead.
        solve = (solvers.lsr1, solvers.lsr2)[solver]
        rng = np.random.default_rng(11)
        inputs = [scipy.stats.special_ortho_group.rvs(3, random_state=rng) @ LEVERAGE_ONE_X
                  for _ in range(50)]
        for seed in range(100):
            x = np.random.default_rng(seed).standard_normal((6, 4))
            x[:, 3] = x[:, 0]
            inputs.append(x)
        for x in inputs:
            reference = ridge_reference(x, lam)[solver]
            try:
                z = solve(x, lam).z
            except (solvers.LambdaTooSmall, linalg.NotPositiveDefinite, linalg.NonFiniteMatrix):
                continue
            assert relative_gap(z, reference) <= 1e-8

    def test_unresolved_divisor_names_its_column(self):
        x = np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.6, 0.8], [0.0, 0.0, 0.8, 0.6]])
        with pytest.raises(solvers.LambdaTooSmall, match="column 1:") as err:
            solvers.lsr1(x, 1e-17)
        assert err.value.index == 1
        assert err.value.divisor <= solvers.ROUNDING_MARGIN * err.value.rounding
        # well above eps*||X||^2 the same column resolves, and matches
        z = solvers.lsr1(x, 1e-4).z
        assert relative_gap(z, ridge_reference(x, 1e-4)[0]) <= 1e-10


class TestColumnOracle:
    def test_identity_data_zero(self):
        coeffs = solvers.column_oracle_ridge(np.eye(3), 0.7)
        assert np.allclose(coeffs.z, 0.0, atol=1e-15)

    def test_single_column_scalar_ridge(self):
        x = np.array([[3.0], [4.0]])
        coeffs = solvers.column_oracle_ridge(x, 2.0, zero_diag=False)
        assert coeffs.z[0, 0] == pytest.approx(25.0 / 27.0, abs=1e-12)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(solvers.NonPositiveLambda):
            solvers.column_oracle_ridge(np.eye(2), -1.0)

    @pytest.mark.parametrize("zero_diag", [True, False])
    @pytest.mark.parametrize("d, n", [(5, 9), (9, 5), (3, 1), (4, 2), (2, 2), (3, 3), (6, 3)],
                             ids=["d_below_n", "d_above_n", "n1", "n2", "n2_d2", "n3_d3",
                                  "n3_d6"])
    def test_bit_identical_to_per_column_system(self, zero_diag, d, n):
        # reference: each column builds its own block and adds its own lam*I;
        # forming X^T X + lam*I once puts lam on the same entries
        x = np.random.default_rng([d, n]).standard_normal((d, n))
        lam = 0.3
        gram = linalg.matmul(x.T, x)
        expected = np.zeros((n, n))
        for i in range(n):
            if zero_diag and n == 1:
                continue
            keep = np.arange(n) != i if zero_diag else np.ones(n, dtype=bool)
            m = int(keep.sum())
            expected[keep, i] = linalg.solve_spd(
                gram[np.ix_(keep, keep)] + lam * np.eye(m), gram[keep, i]
            )
        z = solvers.column_oracle_ridge(x, lam, zero_diag=zero_diag).z
        assert np.array_equal(z.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("zero_diag", [True, False])
    def test_one_solve_per_column(self, monkeypatch, zero_diag):
        # one LAPACK factorization per column, of the column's own block
        calls = []
        dpotrf = linalg.dpotrf

        def counting(a, **kwargs):
            calls.append(a.shape)
            return dpotrf(a, **kwargs)

        monkeypatch.setattr(linalg, "dpotrf", counting)
        n = 6
        solvers.column_oracle_ridge(np.random.default_rng(2).standard_normal((4, n)), 0.5,
                                    zero_diag=zero_diag)
        m = n - 1 if zero_diag else n
        assert calls == [(m, m)] * n


LAMBDA_SOLVERS = {
    "lsr1": lambda lam: solvers.lsr1(np.eye(3), lam),
    "lsr2": lambda lam: solvers.lsr2(np.eye(3), lam),
    "column_oracle_ridge": lambda lam: solvers.column_oracle_ridge(np.eye(3), lam),
}


class TestGramOverflow:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("solver, shape, gram", [
        pytest.param("lsr1", (4, 8), r"X X\^T", id="lsr1-4x8"),
        pytest.param("lsr1", (8, 4), r"X\^T X", id="lsr1-8x4"),
        pytest.param("lsr2", (4, 8), r"X X\^T", id="lsr2-4x8"),
        pytest.param("lsr2", (8, 4), r"X\^T X", id="lsr2-8x4"),
        pytest.param("column_oracle_ridge", (4, 8), r"X\^T X", id="column_oracle_ridge-4x8"),
        pytest.param("column_oracle_ridge", (8, 4), r"X\^T X", id="column_oracle_ridge-8x4"),
    ])
    def test_overflow_is_named(self, solver, shape, gram):
        # finite entries ~1e200 overflow the Gram matrix the solver forms:
        # the d x d X X^T when d < n, else the n x n X^T X
        x = 1e200 * np.random.default_rng(0).uniform(1.0, 2.0, shape)
        with pytest.raises(linalg.NonFiniteMatrix, match=rf"Gram matrix {gram} overflows"):
            getattr(solvers, solver)(x, 0.1)


# keyword knobs that no caller set to anything but their default, now
# constants (linalg.SV_CUTOFF, FEASIBILITY_TOL, always zeroing the constrained
# diagonal, always checking additivity, GROUPING_SLACK_TOL, never centering
# before PCA), and check_ebd's name, read only by the retired EBDCheckResult
@pytest.mark.parametrize("function, parameter", [
    (solvers.lsr_constrained, "sv_tol"),
    (solvers.lsr_constrained, "tol"),
    (solvers.lsr_constrained, "zero_diag"),
    (linalg.pseudo_inverse, "tol"),
    (linalg.matrix_rank, "tol"),
    (metrics.check_ebd, "check_additivity"),
    (metrics.check_ebd, "name"),
    (metrics.GroupingEffectSummary.bound_holds, "tol"),
    (ingest.pca_project, "center"),
])
def test_retired_keyword_is_gone(function, parameter):
    assert parameter not in inspect.signature(function).parameters


def test_retired_ebd_result_and_summary_lam_are_gone():
    # check_ebd returns its counterexamples; the summary no longer echoes z.lam
    assert not hasattr(metrics, "EBDCheckResult")
    assert "lam" not in {f.name for f in dataclasses.fields(metrics.GroupingEffectSummary)}


def test_diag_constrained_follows_variant():
    # the diagonal rule is read off the variant, not passed beside it
    x = np.random.default_rng(5).standard_normal((3, 8))
    outputs = [solvers.lsr_constrained(x), solvers.lsr1(x, 0.1), solvers.lsr2(x, 0.1),
               solvers.column_oracle_ridge(x, 0.1),
               solvers.column_oracle_ridge(x, 0.1, zero_diag=False)]
    assert [(c.variant, c.diag_constrained) for c in outputs] == [
        (solvers.CONSTRAINED, True), (solvers.LSR1, True), (solvers.LSR2, False),
        (solvers.LSR1, True), (solvers.LSR2, False),
    ]
    assert "diag_constrained" not in inspect.signature(solvers.Coefficients).parameters


class TestLambdaValidation:
    @pytest.mark.parametrize("lam", [np.inf, -np.inf, np.nan, 0.0, -1.0])
    @pytest.mark.parametrize("solver", LAMBDA_SOLVERS)
    def test_rejects_lambda_that_is_not_finite_and_positive(self, solver, lam):
        with pytest.raises(solvers.NonPositiveLambda, match="lambda must be finite and > 0"):
            LAMBDA_SOLVERS[solver](lam)


class TestEquivalenceProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 50),
        n=st.integers(2, 100),
        log_lam=st.floats(-4.0, 1.0),
    )
    def test_closed_form_equals_oracle(self, seed, d, n, log_lam):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((d, n))
        lam = 10.0**log_lam
        gap = np.abs(solvers.lsr1(x, lam).z - solvers.column_oracle_ridge(x, lam).z)
        assert np.max(gap) <= 1e-8

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_duplicate_columns_get_equal_coefficients(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((6, 9))
        x[:, 4] = x[:, 2]
        z = solvers.lsr2(x, 0.1).z
        assert np.max(np.abs(z[2, :] - z[4, :])) <= 1e-10
        assert np.max(np.abs(z[:, 2] - z[:, 4])) <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), split=st.floats(0.1, 0.9))
    def test_shrinkage_monotone_in_lambda(self, seed, split):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((5, 8))
        lam_small = split
        lam_big = split + 1.0
        z_small = solvers.lsr2(x, lam_small).z
        z_big = solvers.lsr2(x, lam_big).z
        assert np.linalg.norm(z_small) >= np.linalg.norm(z_big) - 1e-12


def permuted_gap(solve, x, seed):
    """max |Z(XP) - P^T Z(X) P| / max |Z(X)| for a seeded column permutation P."""
    perm = np.random.default_rng(seed).permutation(x.shape[1])
    z = solve(x).z
    return np.max(np.abs(solve(x[:, perm]).z - z[np.ix_(perm, perm)])) / np.max(np.abs(z))


class TestPermutationEquivariance:
    # the permutation condition of the EBD theorem: permuting X's columns
    # by P turns every solver's Z into P^T Z P
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), wide=st.booleans(), log_lam=st.floats(-3.0, 1.0),
           solver=st.sampled_from([solvers.lsr1, solvers.lsr2]))
    def test_ridge_solvers(self, seed, wide, log_lam, solver):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        d = int(rng.integers(n, 60)) if wide else int(rng.integers(1, n))
        x = rng.standard_normal((d, n))
        lam = 10.0**log_lam
        # the two solves round apart by up to ~5 eps cond(X^T X + lam*I) of
        # max |Z| (1.3e-12 at d = n - 1 and lam = 3e-3, where lsr1 divides
        # by 1 - x_i^T y_i ~ 8e-4), so the bound grows past 1e-12 with it
        cond = np.linalg.cond(x.T @ x + lam * np.eye(n))
        bound = max(1e-12, 32 * np.finfo(float).eps * cond)
        assert permuted_gap(lambda a: solver(a, lam), x, seed) <= bound

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_constrained_on_an_independent_union(self, seed):
        spec = datagen.SubspaceSpec(ambient_dim=12, subspace_dims=(2, 3, 2),
                                    samples_per_subspace=(6, 8, 5), seed=seed)
        data, _ = datagen.generate(spec)
        assert permuted_gap(solvers.lsr_constrained, data.x, seed) <= 1e-12


class TestBlockDiagonalStructure:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_independent_subspaces_constrained(self, seed):
        spec = datagen.SubspaceSpec(
            ambient_dim=9,
            subspace_dims=(2, 2, 2),
            samples_per_subspace=(5, 5, 5),
            mode=datagen.INDEPENDENT,
            seed=seed,
        )
        data, _ = datagen.generate(spec)
        coeffs = solvers.lsr_constrained(data)
        assert metrics.block_diag_violation(coeffs, data.labels) <= 1e-8

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_orthogonal_subspaces_exact_even_insufficient(self, seed):
        # n_i < d_i: representation is inexact, block structure still holds.
        spec = datagen.SubspaceSpec(
            ambient_dim=10,
            subspace_dims=(4, 4),
            samples_per_subspace=(3, 3),
            mode=datagen.ORTHOGONAL,
            seed=seed,
        )
        data, _ = datagen.generate(spec)
        cross = data.labels[:, None] != data.labels[None, :]
        for solve in (solvers.lsr1, solvers.lsr2):
            z = solve(data, 0.1).z
            assert np.max(np.abs(z[cross])) <= 1e-12


class TestCoefficients:
    @pytest.mark.parametrize("solver", [solvers.lsr1, solvers.lsr2], ids=["lsr1", "lsr2"])
    @pytest.mark.parametrize("shape", [(5, 12), (12, 8)], ids=["d_lt_n", "d_ge_n"])
    def test_ridge_solve_validates_only_its_output(self, monkeypatch, solver, shape):
        # a DataMatrix was checked when it was built: the solve checks no
        # array again but Z, once, as Coefficients
        data = datagen.DataMatrix(np.random.default_rng(shape).standard_normal(shape))
        names, as_matrix = [], linalg.as_matrix

        def spy(a, name="matrix"):
            names.append(name)
            return as_matrix(a, name)

        monkeypatch.setattr(linalg, "as_matrix", spy)
        solver(data, 0.1)
        assert names == ["coefficient matrix"]

    def test_coefficient_array_unwraps_without_copy(self):
        coeffs = solvers.lsr2(np.eye(2), 1.0)
        assert solvers.coefficient_array(coeffs) is coeffs.z
        assert solvers.coefficient_array([[0.5, 0.0], [0.0, 0.5]]).dtype == np.float64

    def test_coefficient_array_rejects_non_square(self):
        with pytest.raises(ValueError, match="coefficient matrix must be square, got"):
            solvers.coefficient_array(np.ones((2, 3)))

    def test_coefficient_array_rejects_non_finite(self):
        with pytest.raises(linalg.NonFiniteMatrix, match="coefficients"):
            solvers.coefficient_array([[0.0, np.nan], [1.0, 0.0]])

    def test_diag_constraint_enforced(self):
        with pytest.raises(ValueError, match="diagonal"):
            solvers.Coefficients(np.ones((2, 2)), 0.1, solvers.LSR1)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            solvers.Coefficients(np.ones((2, 3)), 0.1, solvers.LSR2)

    @pytest.mark.parametrize("lam", [-0.1, np.nan, np.inf])
    def test_rejects_negative_or_non_finite_lambda(self, lam):
        # a NaN lam would make every grouping bound sqrt(2(1 - r)) / lam NaN,
        # and the bound check would pass whatever Z holds
        with pytest.raises(ValueError, match="lam must be nonnegative and finite"):
            solvers.Coefficients(np.eye(3), lam, solvers.LSR2)
