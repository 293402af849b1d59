import inspect

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lsrseg import datagen, linalg, metrics, solvers

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


def random_unit_columns(rng, d, n):
    x = rng.standard_normal((d, n))
    return x / np.linalg.norm(x, axis=0)


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
        with pytest.raises(solvers.InfeasibleColumn) as err:
            solvers.lsr_constrained(scale * np.eye(3))
        assert (err.value.index, err.value.residual) == (0, 1.0)
        z = solvers.lsr_constrained(scale * TWO_LINES_X).z
        assert np.allclose(z, solvers.lsr_constrained(TWO_LINES_X).z, rtol=0.0, atol=1e-15)

    def test_no_diag_constraint_keeps_full_dictionary(self):
        coeffs = solvers.lsr_constrained(np.eye(3), zero_diag=False)
        assert np.allclose(coeffs.z, np.eye(3), atol=1e-12)
        assert not coeffs.diag_constrained

    def test_single_column(self):
        with pytest.raises(solvers.InfeasibleColumn):
            solvers.lsr_constrained(np.array([[1.0], [0.0]]))

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

    @pytest.mark.parametrize("eps, tol", [(1e-3, 1e-2), (1e-9, solvers.FEASIBILITY_TOL)])
    def test_tolerance_accepts_least_squares_fit(self, eps, tol):
        # Each column is off the other's span by a relative residual of
        # eps / sqrt(1 + eps^2), so X has rank 2 and no null space. Within
        # tol the least-squares fits are kept, as the per-column
        # pseudoinverse solver did; below it column 0 is reported.
        x = np.array([[1.0, 1.0], [0.0, eps]])
        residual = eps / np.sqrt(1.0 + eps**2)
        z = solvers.lsr_constrained(x, tol=tol).z
        assert np.allclose(z, [[0.0, 1.0], [1.0 / (1.0 + eps**2), 0.0]], rtol=0.0, atol=1e-15)
        with pytest.raises(solvers.InfeasibleColumn) as err:
            solvers.lsr_constrained(x, tol=residual / 2)
        assert err.value.index == 0
        assert err.value.residual == pytest.approx(residual, rel=1e-6)

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

    @pytest.mark.parametrize("lam, bound", [(1e-8, 1e-7), (1e-4, 1e-11), (1e-1, 1e-13)])
    def test_matches_50_digit_reference_on_near_duplicate_columns(self, lam, bound):
        # Seven unit columns in R^6, each with a near-duplicate 1e-5 away:
        # X^T X + lam*I has condition ~1/lam, and I - lam*P must still
        # track (X^T X + lam*I)^{-1} X^T X to about eps/lam.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(0)
        base = rng.standard_normal((6, 7))
        x = np.hstack([base, base + 1e-5 * rng.standard_normal((6, 7))])
        x /= np.linalg.norm(x, axis=0)
        with mpmath.workdps(50):
            m = mpmath.matrix(x.tolist())
            gram = m.T * m
            exact = (gram + mpmath.mpf(lam) * mpmath.eye(14)) ** -1 * gram
            reference = np.array(exact.tolist(), dtype=float)
        z = solvers.lsr2(x, lam).z
        assert np.max(np.abs(z - reference)) <= bound * np.max(np.abs(reference))


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


LAMBDA_SOLVERS = {
    "lsr1": lambda lam: solvers.lsr1(np.eye(3), lam),
    "lsr2": lambda lam: solvers.lsr2(np.eye(3), lam),
    "column_oracle_ridge": lambda lam: solvers.column_oracle_ridge(np.eye(3), lam),
    "grouping_bound_report": lambda lam: solvers.grouping_bound_report(np.eye(3), np.ones(3), lam),
}


class TestGramOverflow:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("solver", ["lsr1", "lsr2", "column_oracle_ridge"])
    def test_overflow_is_named(self, solver):
        # finite entries ~1e200 overflow X^T X to inf
        x = 1e200 * np.random.default_rng(0).uniform(1.0, 2.0, (4, 8))
        with pytest.raises(linalg.NonFiniteMatrix, match=r"Gram matrix X\^T X overflows"):
            getattr(solvers, solver)(x, 0.1)


# keyword knobs that no caller set to anything but their default, now
# constants (linalg.SV_CUTOFF, always checking additivity, GROUPING_SLACK_TOL)
@pytest.mark.parametrize("function, parameter", [
    (solvers.lsr_constrained, "sv_tol"),
    (linalg.pseudo_inverse, "tol"),
    (linalg.matrix_rank, "tol"),
    (metrics.check_ebd, "check_additivity"),
    (metrics.EBDCheckResult.passes, "require_additivity"),
    (metrics.GroupingEffectSummary.bound_holds, "tol"),
])
def test_retired_keyword_is_gone(function, parameter):
    assert parameter not in inspect.signature(function).parameters


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


class TestGroupingBound:
    def test_duplicate_columns_equal_coefficients(self):
        rng = np.random.default_rng(6)
        x = random_unit_columns(rng, 6, 5)
        x[:, 1] = x[:, 0]
        y = rng.standard_normal(6)
        report = solvers.grouping_bound_report(x, y, 0.5)
        i, j, lhs, rhs, r = report.pairs[0]
        assert (i, j) == (0, 1)
        assert r == pytest.approx(1.0)
        assert rhs == 0.0
        assert abs(report.coefficients[0] - report.coefficients[1]) <= 1e-12

    def test_high_correlation_bound_value(self):
        # r = 0.98 at lam = 0.1 bounds the gap by 10 * sqrt(0.04) = 2.
        c = 0.98
        x = np.array([[1.0, c], [0.0, np.sqrt(1 - c * c)]])
        y = np.array([1.0, 2.0])
        report = solvers.grouping_bound_report(x, y, 0.1)
        _, _, lhs, rhs, r = report.pairs[0]
        assert r == pytest.approx(0.98)
        assert rhs == pytest.approx(2.0, rel=1e-12)
        assert lhs <= rhs

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), lam=st.sampled_from([0.01, 0.1, 1.0]))
    def test_bound_holds_on_random_instances(self, seed, lam):
        rng = np.random.default_rng(seed)
        x = random_unit_columns(rng, 8, 12)
        y = rng.standard_normal(8)
        report = solvers.grouping_bound_report(x, y, lam)
        assert report.max_slack_violation <= metrics.GROUPING_SLACK_TOL

    def test_rejects_unnormalized_columns(self):
        x = np.array([[2.0, 0.0], [0.0, 1.0]])
        with pytest.raises(solvers.UnnormalizedColumn) as err:
            solvers.grouping_bound_report(x, np.ones(2), 0.1)
        assert err.value.index == 0


class TestCoefficients:
    def test_diag_constraint_enforced(self):
        with pytest.raises(ValueError, match="diagonal"):
            solvers.Coefficients(np.ones((2, 2)), 0.1, solvers.LSR1, True)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            solvers.Coefficients(np.ones((2, 3)), 0.1, solvers.LSR2, False)
