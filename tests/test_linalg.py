import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lsrseg import linalg


class TestAsMatrix:
    def test_rejects_nan(self):
        with pytest.raises(linalg.NonFiniteMatrix, match="non-finite"):
            linalg.as_matrix([[1.0, np.nan], [0.0, 1.0]])

    def test_rejects_inf(self):
        with pytest.raises(linalg.NonFiniteMatrix, match="non-finite"):
            linalg.as_matrix([[np.inf, 0.0]])

    def test_rejects_empty(self):
        with pytest.raises(linalg.DimensionMismatch):
            linalg.as_matrix(np.zeros((0, 3)))

    def test_rejects_scalar(self):
        with pytest.raises(linalg.DimensionMismatch):
            linalg.as_matrix(3.0)

    def test_finite_entries_whose_sum_overflows_are_accepted(self):
        # the overflow warns nothing (pytest makes a RuntimeWarning an error)
        a = np.full((3, 4), np.finfo(np.float64).max)
        assert linalg.as_matrix(a) is a

    def test_rejects_opposite_infinities(self):
        # their sum is NaN, an invalid operation that must warn nothing either
        with pytest.raises(linalg.NonFiniteMatrix, match="non-finite"):
            linalg.as_matrix([[np.inf, -np.inf]])

    def test_finite_check_allocates_no_matrix_sized_buffer(self):
        a = np.random.default_rng(0).standard_normal((400, 400))
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            linalg.as_matrix(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # an element-wise isfinite would add a boolean copy, 1/8 of a.nbytes
        assert peak - start <= 0.01 * a.nbytes

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_float64_array_is_returned_without_copy(self, order):
        a = np.asarray(np.arange(6.0).reshape(2, 3), order=order)
        assert linalg.as_matrix(a) is a


class TestSolveSpd:
    def test_identity(self):
        b = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(linalg.solve_spd(np.eye(3), b), b)

    def test_scalar_multiple(self):
        out = linalg.solve_spd(2.0 * np.eye(2), np.eye(2))
        assert np.allclose(out, 0.5 * np.eye(2), atol=1e-15)

    def test_random_spd_residual(self):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((5, 5))
        a = g.T @ g + np.eye(5)
        b = rng.standard_normal((5, 3))
        s = linalg.solve_spd(a, b)
        assert np.linalg.norm(a @ s - b) <= 1e-10 * np.linalg.norm(b)

    def test_vector_rhs(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((4, 4))
        a = g.T @ g + np.eye(4)
        b = rng.standard_normal(4)
        s = linalg.solve_spd(a, b)
        assert s.shape == (4,)
        assert np.linalg.norm(a @ s - b) <= 1e-10 * np.linalg.norm(b)

    def test_not_positive_definite(self):
        with pytest.raises(linalg.NotPositiveDefinite, match="2-th leading minor"):
            linalg.solve_spd(np.diag([1.0, -1.0]), np.eye(2))

    def test_reads_only_the_lower_triangle(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((6, 6))
        a = g.T @ g + np.eye(6)
        b = rng.standard_normal((6, 2))
        garbage = np.tril(a) + np.triu(rng.standard_normal((6, 6)), 1)
        assert np.array_equal(linalg.solve_spd(garbage, b), linalg.solve_spd(a, b))
        assert np.array_equal(linalg.sym_eigen(garbage).values, linalg.sym_eigen(a).values)
        assert np.array_equal(linalg.sym_eigen(garbage).vectors, linalg.sym_eigen(a).vectors)

    @pytest.mark.parametrize("order_a", ["C", "F"])
    @pytest.mark.parametrize("order_b", ["C", "F"])
    @pytest.mark.parametrize("upper", ["symmetric", "garbage"])
    @pytest.mark.parametrize("n, nrhs", [(1, None), (1, 3), (6, None), (6, 4), (40, 7)],
                             ids=["n1_vector", "n1_matrix", "vector", "matrix", "larger"])
    def test_bit_identical_to_cho_factor_and_cho_solve(self, order_a, order_b, upper, n, nrhs):
        # solve_spd calls LAPACK's potrf and potrs itself: the routines
        # scipy's cho_factor and cho_solve wrap, on the same inputs
        rng = np.random.default_rng([n, nrhs or 0])
        g = rng.standard_normal((n, n))
        a = g.T @ g + np.eye(n)
        if upper == "garbage":
            a = np.tril(a) + np.triu(rng.standard_normal((n, n)), 1)
        a = np.asarray(a, order=order_a)
        b = np.asarray(rng.standard_normal((n,) if nrhs is None else (n, nrhs)), order=order_b)
        a_before, b_before = a.copy(), b.copy()
        expected = scipy.linalg.cho_solve(scipy.linalg.cho_factor(a, lower=True), b)
        out = linalg.solve_spd(a, b)
        assert out.shape == expected.shape
        assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))
        assert np.array_equal(a, a_before) and np.array_equal(b, b_before)

    def test_does_not_go_through_scipy_wrappers(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solve_spd went through a scipy.linalg wrapper")

        monkeypatch.setattr(scipy.linalg, "cho_factor", refuse)
        monkeypatch.setattr(scipy.linalg, "cho_solve", refuse)
        assert np.array_equal(linalg.solve_spd(4.0 * np.eye(3), np.ones(3)), np.full(3, 0.25))

    @pytest.mark.parametrize("routine", ["dpotrf", "dpotrs"])
    def test_illegal_argument_is_raised(self, monkeypatch, routine):
        # LAPACK's info < 0 (an illegal argument) is an error, never a result
        monkeypatch.setattr(linalg, routine, lambda m, *args, **kwargs: (m, -2))
        with pytest.raises(ValueError, match="argument 2"):
            linalg.solve_spd(np.eye(2), np.ones(2))

    def test_tolerates_float_drift(self):
        a = np.array([[2.0, 1.0], [1.0 + 1e-13, 2.0]])
        s = linalg.solve_spd(a, np.eye(2))
        assert np.allclose(a @ s, np.eye(2), atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12))
    @example(seed=299, n=9)
    @example(seed=132, n=9)
    def test_reconstruction_property(self, seed, n):
        # A Cholesky solve is backward stable: its residual is bounded by
        # c * n * eps * ||a|| * ||s||, not by a multiple of ||b||. The draw
        # can make `a` nearly singular (condition 1.7e7 at seed 299, n = 9,
        # residual 2.5e-9 against 1e-10 * ||b|| = 4.6e-10). The largest
        # residual / (n * eps * ||a|| * ||s||) over 70,000 seeded draws was
        # 2.06, at n = 1 (0.72 for n >= 2); c = 4 leaves a factor of two.
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, n))
        a = g.T @ g + 1e-6 * np.eye(n)
        b = rng.standard_normal((n, 2))
        s = linalg.solve_spd(a, b)
        bound = 4 * n * np.finfo(float).eps * np.linalg.norm(a) * np.linalg.norm(s)
        assert np.linalg.norm(a @ s - b) <= bound


def within_product_ulps(result, a, b, ulps):
    """|result - a @ b| within ``ulps`` units of eps * (|a| @ |b|), the scale
    of the terms each entry sums; a reordered sum moves it by about that."""
    scale = np.abs(a) @ np.abs(b)
    return bool(np.all(np.abs(result - a @ b) <= ulps * np.finfo(np.float64).eps * scale))


class TestMatmul:
    @pytest.mark.parametrize("order_a", ["C", "F"])
    @pytest.mark.parametrize("order_b", ["C", "F"])
    @pytest.mark.parametrize("m, k, n", [
        (7, 5, 9), (1, 6, 8), (8, 6, 1), (7, 1, 9), (1, 1, 1), (60, 40, 50),
    ], ids=["general", "one_row", "one_column", "inner_one", "scalar", "larger"])
    def test_matches_numpy(self, order_a, order_b, m, k, n):
        rng = np.random.default_rng([m, k, n])
        a = np.asarray(rng.standard_normal((m, k)), order=order_a)
        b = np.asarray(rng.standard_normal((k, n)), order=order_b)
        out = linalg.matmul(a, b)
        assert out.shape == (m, n)
        assert out.flags.c_contiguous
        assert within_product_ulps(out, a, b, 4)

    @pytest.mark.parametrize("order_a", ["C", "F"])
    @pytest.mark.parametrize("order_b", ["C", "F"])
    def test_contiguous_operands_are_not_copied(self, order_a, order_b):
        rng = np.random.default_rng(0)
        a = np.asarray(rng.standard_normal((300, 40)), order=order_a)
        b = np.asarray(rng.standard_normal((40, 200)), order=order_b)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            out = linalg.matmul(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a copy of a (96 KB) or b (64 KB) would add 0.2 or 0.13 of the 480 KB output
        assert (peak - start) <= 1.1 * out.nbytes

    def test_non_contiguous_operand_is_copied(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((10, 16))[:, ::2]
        b = rng.standard_normal((8, 12))[::-1]
        out = linalg.matmul(a, b)
        assert out.flags.c_contiguous
        assert within_product_ulps(out, a, b, 4)


class TestColumnNorms:
    @pytest.mark.parametrize("shape", [(1, 2), (7, 2), (5, 7), (30, 300), (64, 64)])
    def test_matches_numpy_bit_for_bit(self, shape):
        a = np.random.default_rng(list(shape)).standard_normal(shape)
        assert np.array_equal(linalg.column_norms(a), np.linalg.norm(a, axis=0))

    def test_huge_tiny_and_zero_columns(self):
        a = np.array([[1e300, 1e-170, 5e-324, 0.0, 3.0], [1.0, 1e-170, 0.0, 0.0, 4.0]])
        expected = [1e300, 2**0.5 * 1e-170, 5e-324, 0.0, 5.0]
        assert np.allclose(linalg.column_norms(a), expected, rtol=1e-15, atol=0.0)

    def test_allocates_no_d_by_n_temporary(self):
        a = np.random.default_rng(1).standard_normal((200, 500))
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            linalg.column_norms(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a^2 or |a| would be 800 KB; the norms are 4 KB
        assert peak - start <= 0.1 * a.nbytes


class TestSymEigen:
    @pytest.mark.parametrize("n, seed", [(5, 0), (40, 1), (200, 2)])
    def test_dense_path_bit_identical_to_numpy_eigh(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2
        values, vectors = np.linalg.eigh(a)
        eig = linalg.sym_eigen(a)
        assert np.array_equal(eig.values, values)
        assert np.array_equal(eig.vectors, vectors)

    def test_dense_path_bit_identical_on_a_repeated_eigenvalue(self):
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((30, 30)))
        spectrum = np.repeat([0.0, 1.0, 2.5], [10, 15, 5])
        a = (q * spectrum) @ q.T
        values, vectors = np.linalg.eigh(a)
        eig = linalg.sym_eigen(a)
        assert np.array_equal(eig.values, values)
        assert np.array_equal(eig.vectors, vectors)

    def test_diagonal(self):
        eig = linalg.sym_eigen(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(eig.values, [1.0, 2.0, 3.0])
        assert np.allclose(np.abs(eig.vectors), np.eye(3)[:, [1, 2, 0]], atol=1e-12)

    def test_known_two_by_two(self):
        eig = linalg.sym_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(eig.values, [-1.0, 1.0], atol=1e-14)

    def test_values_ascending_and_reconstruction(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((8, 8))
        a = (a + a.T) / 2
        eig = linalg.sym_eigen(a)
        assert np.all(np.diff(eig.values) >= 0)
        assert np.linalg.norm(a @ eig.vectors - eig.vectors * eig.values) <= 1e-8

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40))
    def test_orthonormal_vectors(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2
        eig = linalg.sym_eigen(a)
        assert np.linalg.norm(eig.vectors.T @ eig.vectors - np.eye(n)) <= 1e-8

    def test_orthonormal_large(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((200, 200))
        a = (a + a.T) / 2
        eig = linalg.sym_eigen(a)
        assert np.linalg.norm(eig.vectors.T @ eig.vectors - np.eye(200)) <= 1e-8


class TestPseudoInverse:
    def test_identity(self):
        assert np.allclose(linalg.pseudo_inverse(np.eye(4)), np.eye(4), atol=1e-14)

    def test_scalar(self):
        assert np.allclose(linalg.pseudo_inverse([[2.0]]), [[0.5]], atol=1e-15)

    def test_penrose_conditions_rank_deficient(self):
        a = np.array([[1.0, 2.0], [0.0, 0.0]])
        p = linalg.pseudo_inverse(a)
        assert np.linalg.norm(a @ p @ a - a) <= 1e-8
        assert np.linalg.norm(p @ a @ p - p) <= 1e-8
        assert np.linalg.norm(a @ p - (a @ p).T) <= 1e-8
        assert np.linalg.norm(p @ a - (p @ a).T) <= 1e-8

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_full_column_rank_normal_equations(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((8, 4))
        expected = np.linalg.solve(a.T @ a, a.T)
        assert np.max(np.abs(linalg.pseudo_inverse(a) - expected)) <= 1e-8


class TestRankHelpers:
    def test_singular_values_descending(self):
        s = linalg.singular_values(np.diag([1.0, 3.0, 2.0]))
        assert np.allclose(s, [3.0, 2.0, 1.0])

    def test_rank_with_cutoff(self):
        a = np.diag([1.0, 1e-14, 0.0])
        assert linalg.matrix_rank(a) == 1

    def test_rank_zero_matrix(self):
        assert linalg.matrix_rank(np.zeros((3, 3))) == 0

    def test_singular_values_of_a_stack_are_per_matrix(self):
        rng = np.random.default_rng(3)
        stack = rng.standard_normal((2, 3, 4, 3))
        s = linalg.singular_values(stack)
        assert s.shape == (2, 3, 3)
        for index in np.ndindex(2, 3):
            expected = np.linalg.svd(stack[index], compute_uv=False)
            assert s[index].view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    @pytest.mark.parametrize("bad, error", [
        (np.ones(3), linalg.DimensionMismatch),
        (np.ones((0, 3, 3)), linalg.DimensionMismatch),
        (np.ones((2, 3, 0)), linalg.DimensionMismatch),
        (np.array([[[1.0, 0.0], [0.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]]]),
         linalg.NonFiniteMatrix),
    ])
    def test_singular_values_rejects_invalid_stack(self, bad, error):
        with pytest.raises(error):
            linalg.singular_values(bad)

    def test_numeric_rank_cuts_each_row_of_a_stack(self):
        # a full-rank matrix, one with a singular value under the cut, and
        # an all-zero one (s[0] = 0: the cut is 0, and nothing exceeds it)
        stack = np.stack([np.diag([2.0, 1.0, 0.5]), np.diag([1.0, 1e-14, 0.0]),
                          np.zeros((3, 3))])
        ranks = linalg.numeric_rank(linalg.singular_values(stack))
        assert ranks.tolist() == [3, 1, 0]
        assert [linalg.matrix_rank(m) for m in stack] == [3, 1, 0]

    def test_numeric_rank_of_one_matrix_is_an_int(self):
        rank = linalg.numeric_rank(linalg.singular_values(np.zeros((2, 4))))
        assert type(rank) is int and rank == 0
        assert type(linalg.matrix_rank(np.eye(3))) is int

    def test_matrix_rank_rejects_a_stack(self):
        with pytest.raises(linalg.DimensionMismatch, match="2-D"):
            linalg.matrix_rank(np.ones((2, 3, 3)))

    @pytest.mark.parametrize("bad, error", [
        (np.ones(3), linalg.DimensionMismatch),
        (np.ones((0, 3)), linalg.DimensionMismatch),
        (np.array([[1.0, np.nan], [0.0, 1.0]]), linalg.NonFiniteMatrix),
    ], ids=["1-D", "empty", "nan"])
    def test_matrix_rank_rejects_invalid_input(self, bad, error):
        with pytest.raises(error):
            linalg.matrix_rank(bad)

    def test_matrix_rank_scans_its_input_once(self, monkeypatch):
        calls = []
        scan = linalg._nonempty_finite

        def spy(m, name):
            calls.append(m.shape)
            return scan(m, name)

        monkeypatch.setattr(linalg, "_nonempty_finite", spy)
        assert linalg.matrix_rank(np.diag([1.0, 1e-14, 0.0])) == 1
        assert calls == [(3, 3)]
