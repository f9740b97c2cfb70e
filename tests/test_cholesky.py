import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose, assert_array_equal

import lpipm.cholesky
import lpipm.sparse
from conftest import eliminated_rows, normal_matrix, sparse_fill_A
from lpipm import (
    FactorizationFailed,
    SparseMatrix,
    cholesky_factorize,
    form_normal_matrix,
    minimum_degree_ordering,
)


# A A^T = [[4, 2], [2, 3]]
_FOUR_TWO_THREE = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])


def _reconstruct(factor):
    """M + sigma I from the stored factor."""
    return factor.L @ factor.L.T


def _operator(A, d):
    """v -> A diag(d^2) A^T v, matrix-free."""
    return lambda v: A.matvec(d * d * A.rmatvec(v))


class TestFactorize:
    def test_identity(self):
        M, _ = normal_matrix(np.eye(3))
        f = cholesky_factorize(M)
        assert f.diag_regularization == 0.0
        assert_array_equal(f.L, np.eye(3))

    def test_two_by_two_by_hand(self):
        M, _ = normal_matrix(_FOUR_TWO_THREE)
        f = cholesky_factorize(M)
        assert_allclose(f.L, [[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        assert f.diag_regularization == 0.0

    def test_singular_gets_regularized(self):
        M, ref = normal_matrix(np.ones((2, 1)))
        assert_array_equal(ref, np.ones((2, 2)))
        f = cholesky_factorize(M)
        assert f.diag_regularization > 0.0
        v = f.solve(np.array([1.0, 1.0]))
        assert np.all(np.isfinite(v))
        assert_allclose(_reconstruct(f), ref + f.diag_regularization * np.eye(2), rtol=1e-12)
        # a tiny but positive pivot is not regularized
        f2 = cholesky_factorize(normal_matrix(np.diag([1.0, 1e-7]))[0])
        assert f2.diag_regularization == 0.0

    def test_factorization_failed_after_retries(self, monkeypatch):
        # the rows are equal, so the second pivot is 5 - 5^2 / 5 = 0
        # exactly; from a base of 1e-40 max|M_ii| every shift is lost in
        # rounding against 5
        monkeypatch.setattr(lpipm.cholesky, "_REG_BASE_SCALE", 1e-40)
        M, _ = normal_matrix(np.array([[1.0, 2.0], [1.0, 2.0]]))
        with pytest.raises(FactorizationFailed):
            cholesky_factorize(M)

    def test_nan_pivot_fails(self):
        # OpenBLAS's dpotrf reports success on a NaN pivot, with info 0
        M = form_normal_matrix(SparseMatrix.from_dense(np.array([[1.0, np.nan], [0.5, 2.0]])),
                               np.ones(2))
        with pytest.raises(FactorizationFailed, match="non-finite pivot"):
            cholesky_factorize(M)

    def test_reconstruction_on_random_probes(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            B = rng.standard_normal((6, 10))
            M, D = normal_matrix(B, rng.uniform(0.5, 2, 10))
            f = cholesky_factorize(M)
            assert f.diag_regularization == 0.0
            assert np.all(np.diagonal(f.L) > 0.0)
            for _ in range(3):
                v = rng.standard_normal(6)
                r = np.linalg.norm(_reconstruct(f) @ v - D @ v)
                assert r <= 1e-12 * np.linalg.norm(D @ v) + 1e-13


def _assert_bitwise_equal(a, b):
    assert a.shape == b.shape
    assert a.tobytes(order="F") == b.tobytes(order="F")


class TestFactorizationContract:
    """The factor is LAPACK's, made in the operand's own buffer."""

    @pytest.mark.parametrize("fill", ["dense", "sparse"])
    def test_normal_matrix_factor_is_scipys(self, fill):
        rng = np.random.default_rng(21)
        if fill == "dense":
            m, n = 30, 80
            A = SparseMatrix.from_dense(rng.standard_normal((m, n)))
        else:
            m, n = 500, 1100  # takes a round of elimination
            A = sparse_fill_A(rng, m, n)
        assert (A._dense is None) == (fill == "sparse")
        assert (A._plan is None) == (fill == "dense")
        M, ref = normal_matrix(A, rng.uniform(0.5, 2.0, n))
        # the operand LAPACK factors, in one layout on both paths: the
        # F-ordered lower triangle of M, or of the Schur complement of the
        # eliminated rows on the sparse path, over a strict upper triangle
        # of zeros
        array = M._array
        assert array.flags.f_contiguous
        assert not np.any(np.triu(array, 1))
        if fill == "dense":
            # SYRK's triangle is numpy's own product, bit for bit
            _assert_bitwise_equal(np.tril(array), np.tril(ref))
        saved = array.copy()
        f = cholesky_factorize(M)
        assert np.shares_memory(f.L, array)  # factored in place, without a copy
        assert f.diag_regularization == 0.0
        _assert_bitwise_equal(f.L, sla.cholesky(saved, lower=True))
        # no pass zeroes the factor's strict upper triangle: it was never written
        assert not np.any(np.triu(f.L, 1))
        if fill == "sparse":
            assert f.levels and f.L.shape == (m - sum(level.S.size for level in f.levels),) * 2
            assert f.dimension == m

    def test_factor_layout(self):
        rng = np.random.default_rng(23)
        B = rng.standard_normal((9, 15))
        sparse = np.hstack((B, np.zeros((9, 10 * B.size))))  # below DENSE_FILL
        for A in (B, sparse):
            L = cholesky_factorize(normal_matrix(A)[0]).L
            assert L.flags.f_contiguous  # dtrsv and dtrmv read it without a copy
            assert not L.flags.writeable
            assert not np.any(np.triu(L, 1))
            assert np.all(np.diagonal(L) > 0.0)

    def test_spent_normal_matrix_keeps_shape_only(self):
        rng = np.random.default_rng(24)
        M, _ = normal_matrix(rng.standard_normal((7, 11)))
        cholesky_factorize(M)
        assert M.nrows == 7
        with pytest.raises(RuntimeError):
            M.nnz
        with pytest.raises(RuntimeError):
            M.take_array()

    def test_singular_normal_matrix_takes_the_first_shift(self):
        # rows 0 and 1 are equal with squared norm 10, so the second pivot
        # is 10 - 10^2 / 10 = 0 exactly and the unshifted attempt fails
        B = np.zeros((6, 14))
        B[:, :6] = np.eye(6)
        B[0, 6:9] = B[1, 6:9] = [1.0, 2.0, 2.0]
        B[1, :6] = B[0, :6]
        B[2:, 9:] = np.random.default_rng(25).standard_normal((4, 5))
        M, saved = normal_matrix(B)
        assert M.plan is None  # the dense path
        assert_array_equal(saved[0], saved[1])
        f = cholesky_factorize(M)
        sigma = 1e-12 * np.abs(np.diagonal(saved)).max()
        assert f.diag_max == np.abs(np.diagonal(saved)).max()  # before the shift
        assert f.diag_regularization == sigma
        # the retry refilled the array by SYRK and shifted its diagonal
        _assert_bitwise_equal(f.L, sla.cholesky(saved + sigma * np.eye(6), lower=True))
        assert not np.any(np.triu(f.L, 1))

    def test_escalating_shift_refills_the_array(self, monkeypatch):
        # rows 0 and 1 are equal with squared norm 10, so the second pivot
        # is 10 - 10^2 / 10 = 0 exactly.  From a base of 1e-18 max|M_ii| the
        # first shifts are lost in rounding against 10, and the array is
        # refilled after each failed attempt has overwritten its triangle
        monkeypatch.setattr(lpipm.cholesky, "_REG_BASE_SCALE", 1e-18)
        B = np.zeros((6, 14))
        B[:, :6] = np.eye(6)
        B[0, 6:9] = B[1, 6:9] = [1.0, 2.0, 2.0]
        B[1, :6] = B[0, :6]
        B[2:, 9:] = np.random.default_rng(26).standard_normal((4, 5))
        M, saved = normal_matrix(B)
        assert M.plan is None  # the dense path
        f = cholesky_factorize(M)
        base = 1e-18 * np.abs(np.diagonal(saved)).max()
        assert f.diag_regularization >= 100.0 * base  # at least three attempts failed
        _assert_bitwise_equal(
            f.L, sla.cholesky(saved + f.diag_regularization * np.eye(6), lower=True)
        )


class TestSplitFactor:
    """The factor of a normal matrix from which a round of elimination took
    rows ahead of the dense factor of their Schur complement."""

    @staticmethod
    def _split_normal_matrix(seed):
        rng = np.random.default_rng(seed)
        A = sparse_fill_A(rng, 500, 1100)
        d = rng.uniform(0.5, 2.0, 1100)
        M, dense = normal_matrix(A, d)
        assert 1 < M.plan.R.size < 500
        return A, d, M, dense, rng

    def test_solves_and_product_match_the_dense_matrix(self, monkeypatch):
        cases = [self._split_normal_matrix(31)]
        # every round taken, gathers priced: rounds of 36 and 5 rows, then a
        # dense factor of order 59, into which the second round's update
        # scatters through its to_array
        monkeypatch.setattr(lpipm.sparse, "MIN_SAVED_FLOPS", 0.0)
        rng = np.random.default_rng(0)
        A = sparse_fill_A(rng, 100, 220)
        d = rng.uniform(0.5, 2.0, 220)
        M, dense = normal_matrix(A, d)
        assert [level.S.size for level in M.levels] == [36, 5] and M.plan.R.size == 59
        cases.append((A, d, M, dense, rng))
        for A, d, M, dense, rng in cases:
            m = A.nrows
            f = cholesky_factorize(M)
            assert f.diag_regularization == 0.0 and f.dimension == m
            b = rng.standard_normal(m)
            x = np.linalg.solve(dense, b)
            assert_allclose(f.solve(b), x, rtol=1e-12, atol=1e-13 * np.abs(x).max())
            assert_allclose(f.product(b), dense @ b, rtol=1e-13,
                            atol=1e-13 * np.abs(dense @ b).max())
            # solve undoes product, and b^T M^-1 b is the energy of x
            assert_allclose(f.solve(f.product(b)), b, rtol=1e-12,
                            atol=1e-13 * np.abs(b).max())
            assert b @ f.solve(b) == pytest.approx(b @ x, rel=1e-12)
            # so the factor preconditions its own matrix to the identity
            assert_allclose(f.solve(_operator(A, d)(b)), b, rtol=1e-6,
                            atol=1e-6 * np.abs(b).max())

    def test_factor_layout(self):
        _, _, M, _, _ = self._split_normal_matrix(32)
        R = M.plan.R
        f = cholesky_factorize(M)
        eliminated, rows = eliminated_rows(f.levels, 500)
        assert_array_equal(np.sort(np.concatenate(eliminated + [rows])), np.arange(500))
        assert_array_equal(rows, R)
        assert f.L.flags.f_contiguous and not f.L.flags.writeable
        assert not np.any(np.triu(f.L, 1))
        assert np.all(np.diagonal(f.L) > 0.0)
        assert all(np.all(level.root > 0.0) for level in f.levels)

    def test_singular_schur_complement_shifts_the_whole_matrix(self, rounds_always):
        # rows 0 and 1 are equal, with squared norm 9, and share no column
        # with row 2.  The first round takes rows 2 and 0, and no round takes
        # the last row, so row 1 is left to the dense factor, where its pivot
        # is 9 - 3 * 3 = 0 exactly and the unshifted attempt fails.  Row 2
        # holds the largest diagonal entry, 100: the first shift is 1e-12 * 100.
        m, n = 3, 200
        B = np.zeros((m, n))
        B[0, :3] = B[1, :3] = [1.0, 2.0, 2.0]
        B[2, 3] = 10.0
        rng = np.random.default_rng(33)
        M, dense = normal_matrix(B)
        (S,), R = eliminated_rows(M.levels, m)
        assert_array_equal(S, [0, 2])
        assert_array_equal(R, [1])
        assert_array_equal(M.plan.R, R)
        assert M._array[0, 0] == 0.0
        f = cholesky_factorize(M)
        sigma = 1e-12 * 100.0
        assert f.diag_regularization == sigma
        shifted = dense + sigma * np.eye(m)
        (level,) = f.levels
        assert_allclose(level.root, np.sqrt(np.diagonal(shifted)[S]), rtol=1e-15)
        # the dense block factors C(sigma) of the shifted matrix
        C = shifted[np.ix_(R, R)] - shifted[np.ix_(R, S)] @ np.linalg.solve(
            shifted[np.ix_(S, S)], shifted[np.ix_(S, R)])
        assert_allclose(f.L @ f.L.T, C, rtol=0.0, atol=1e-13 * np.abs(C).max())
        assert not np.any(np.triu(f.L, 1))
        v = rng.standard_normal(m)
        assert_allclose(f.product(v), shifted @ v, rtol=0.0, atol=1e-13 * np.abs(shifted).max())
        x = f.solve(v)
        assert np.linalg.norm(shifted @ x - v) <= 1e-12 * np.linalg.norm(shifted) * np.linalg.norm(x)


class TestRounds:
    """The factor of a normal matrix from which several rounds of
    elimination took rows: a sequence of levels ahead of the dense factor."""

    @staticmethod
    def _normal_matrix(seed):
        rng = np.random.default_rng(seed)
        A = sparse_fill_A(rng, 30, 80)
        d = rng.uniform(0.5, 2.0, 80)
        return A, d, *normal_matrix(A, d), rng

    def test_dense_order_is_m_less_the_eliminated_rows(self, rounds_always):
        _, _, M, _, _ = self._normal_matrix(31)
        assert len(M.levels) > 2
        f = cholesky_factorize(M)
        eliminated, rows = eliminated_rows(f.levels, 30)
        assert f.L.shape == (30 - sum(S.size for S in eliminated),) * 2 == (rows.size,) * 2
        assert_array_equal(np.sort(np.concatenate(eliminated + [rows])), np.arange(30))
        assert f.dimension == 30

    def test_solves_product_and_probe_match_the_dense_matrix(self, rounds_always):
        A, d, M, dense, rng = self._normal_matrix(32)
        f = cholesky_factorize(M)
        assert f.diag_regularization == 0.0 and len(f.levels) > 2
        # the largest diagonal entry runs over the whole M, not the dense block
        assert f.diag_max == pytest.approx(np.diagonal(dense).max(), rel=1e-14)
        # each level eliminates an independent set of the matrix the
        # levels before it left: its pivots are that matrix's diagonal
        eliminated, rows = eliminated_rows(f.levels, 30)
        left = np.arange(30)
        for S, level in zip(eliminated, f.levels):
            pos = np.searchsorted(left, S)
            C = dense[np.ix_(left, left)]
            gone = np.setdiff1d(np.arange(30), left)
            if gone.size:
                C = C - dense[np.ix_(left, gone)] @ np.linalg.solve(
                    dense[np.ix_(gone, gone)], dense[np.ix_(gone, left)])
            C_SS = C[np.ix_(pos, pos)]
            assert_allclose(C_SS, np.diag(np.diagonal(C_SS)), rtol=0.0,
                            atol=1e-12 * np.abs(dense).max())
            assert_allclose(level.root**2, np.diagonal(C_SS), rtol=1e-12)
            left = np.setdiff1d(left, S)
        assert_array_equal(left, rows)
        b = rng.standard_normal(30)
        x = np.linalg.solve(dense, b)
        assert_allclose(f.solve(b), x, rtol=1e-11, atol=1e-12 * np.abs(x).max())
        assert_allclose(f.product(b), dense @ b, rtol=1e-13, atol=1e-13 * np.abs(dense @ b).max())
        # solve undoes product, and b^T M^-1 b is the energy of x
        assert_allclose(f.solve(f.product(b)), b, rtol=1e-11, atol=1e-12 * np.abs(b).max())
        assert b @ f.solve(b) == pytest.approx(b @ x, rel=1e-12)
        # so the factor preconditions its own matrix to the identity
        assert_allclose(f.solve(_operator(A, d)(b)), b, rtol=1e-6, atol=1e-6 * np.abs(b).max())

    def test_zero_pivot_in_a_later_level_takes_the_shift(self, rounds_always):
        # rows 0 and 1 are equal, with squared norm 9, and share no column
        # with another row.  Row 0 goes in the first round; row 1 is
        # then left with no neighbour and a pivot of 9 - 3 * 3 = 0 exactly,
        # and a later round takes it.  Row 2 holds the largest diagonal
        # entry, 100: the first shift is 1e-12 * 100.
        m, n = 10, 200
        B = np.zeros((m, n))
        B[0, :3] = B[1, :3] = [1.0, 2.0, 2.0]
        B[2, 3] = 10.0
        B[3:, 4:11] = np.eye(7)
        rng = np.random.default_rng(33)
        for j in range(11, 60):
            B[rng.choice(np.arange(3, m), 2, replace=False), j] = rng.uniform(0.5, 1.5, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the zero pivot is never divided by
            M, dense = normal_matrix(B)
            assert M.levels is None  # the unshifted fill stopped at the zero pivot
            f = cholesky_factorize(M)
        eliminated, rows = eliminated_rows(f.levels, m)
        assert 0 in eliminated[0] and any(1 in S for S in eliminated[1:])
        sigma = 1e-12 * 100.0
        assert f.diag_regularization == sigma
        shifted = dense + sigma * np.eye(m)
        v = rng.standard_normal(m)
        assert_allclose(f.product(v), shifted @ v, rtol=0.0, atol=1e-13 * np.abs(shifted).max())
        x = f.solve(v)
        assert np.linalg.norm(shifted @ x - v) <= 1e-12 * np.linalg.norm(shifted) * np.linalg.norm(x)
        assert np.all(np.diagonal(f.L) > 0.0)
        assert all(np.all(level.root > 0.0) for level in f.levels)


class TestFactorSolve:
    def test_identity_solve(self):
        f = cholesky_factorize(normal_matrix(np.eye(3))[0])
        assert_array_equal(f.solve(np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])

    def test_two_by_two_solve(self):
        f = cholesky_factorize(normal_matrix(_FOUR_TWO_THREE)[0])
        assert_allclose(f.solve(np.array([6.0, 5.0])), [1.0, 1.0], rtol=1e-14)

    def test_zero_rhs(self):
        f = cholesky_factorize(normal_matrix(np.array([[2.0]]))[0])
        assert_array_equal(f.solve(np.array([0.0])), [0.0])

    def test_dimension_mismatch(self):
        f = cholesky_factorize(normal_matrix(np.eye(3))[0])
        with pytest.raises(ValueError):
            f.solve(np.ones(4))

    def test_solve_and_product_reject_a_wrong_length(self):
        f = cholesky_factorize(normal_matrix(np.diag([2.0, 3.0, 4.0]))[0])
        assert_allclose(f.solve(np.ones(3)), [1 / 4, 1 / 9, 1 / 16], rtol=1e-15)
        assert_allclose(f.product(np.ones(3)), [4.0, 9.0, 16.0], rtol=1e-15)
        for method in (f.solve, f.product):
            for wrong in (np.ones(4), np.ones(2)):
                with pytest.raises(ValueError, match="expected 3"):
                    method(wrong)

    @pytest.mark.parametrize("split", [False, True], ids=["dense", "split"])
    def test_solves_leave_their_rhs_unchanged(self, split):
        # without levels the caller's rhs is itself the operand of the
        # triangular solve, which must not overwrite it
        rng = np.random.default_rng(41)
        A = sparse_fill_A(rng, 500, 1100) if split else rng.standard_normal((40, 90))
        f = cholesky_factorize(normal_matrix(A)[0])
        assert bool(f.levels) == split
        for method in (f.solve, f.product):
            rhs = rng.standard_normal(f.dimension)
            kept = rhs.copy()
            method(rhs)
            assert_array_equal(rhs, kept)

    def test_solve_identity_map_well_conditioned(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            B = rng.standard_normal((8, 14))
            M, dense = normal_matrix(B, rng.uniform(0.3, 3, 14))
            assert np.linalg.cond(dense) < 1e8
            v = rng.standard_normal(8)
            rhs = dense @ v
            f = cholesky_factorize(M)
            assert_allclose(f.solve(rhs), v, rtol=1e-10, atol=1e-12)


# unit roundoff of single precision
_U32 = 2.0 ** -24


def _single_case(kind, rng):
    """``(A, d, M)`` with ``M`` assembled in single precision: split (a
    sparse ``A`` whose rounds leave levels beside the dense block),
    unsplit (a sparse ``A`` too small for a round) or dense (SYRK)."""
    if kind == "split":
        A = sparse_fill_A(rng, 500, 1100)
    elif kind == "unsplit":
        A = sparse_fill_A(rng, 60, 130)
    else:
        A = SparseMatrix.from_dense(rng.standard_normal((40, 90)))
    d = rng.uniform(0.5, 2.0, A.ncols)
    M = form_normal_matrix(A, d, single=True)
    assert bool(M.levels) == (kind == "split")
    assert (M.plan is None) == (kind == "dense")
    return A, d, M


SINGLE_KINDS = pytest.mark.parametrize("kind", ["split", "unsplit", "dense"])


class TestSingleFactor:
    """A factor whose dense block is single precision: the whole factor of
    an unsplit normal matrix, or the block beside the double levels of a
    split one.  ``solve`` and ``product`` read and return double."""

    @SINGLE_KINDS
    def test_solve_and_product_match_numpy_to_single_precision(self, kind):
        rng = np.random.default_rng(51)
        A, d, M = _single_case(kind, rng)
        B = A.to_dense() * d
        dense = B @ B.T
        norm = np.linalg.norm(dense, 2)
        f = cholesky_factorize(M)
        assert f.single and f.L.dtype == np.float32
        assert f.unit_roundoff == _U32
        assert f.diag_regularization == 0.0
        assert all(level.root.dtype == level.W.dtype == np.float64 for level in f.levels)
        b = rng.standard_normal(f.dimension)
        kept = b.copy()
        y, x = f.product(b), f.solve(b)
        assert y.dtype == x.dtype == np.float64
        assert_array_equal(b, kept)
        assert np.linalg.norm(y - dense @ b) <= 10 * _U32 * norm * np.linalg.norm(b)
        assert np.linalg.norm(dense @ x - b) <= 10 * _U32 * norm * np.linalg.norm(x)
        assert_allclose(x, np.linalg.solve(dense, b), rtol=0.0,
                        atol=1e-4 * np.abs(x).max())

    @pytest.mark.parametrize("split", [False, True], ids=["unsplit", "split"])
    def test_shift_escalates_on_a_singular_matrix(self, split, monkeypatch):
        # rows 1 and 3 are equal with squared norm 9 and share no column
        # with rows 0 and 2, so the pivot of row 3 is 9 - 3 * 3 = 0 exactly
        # and the unshifted attempt fails; in single precision each shift
        # below half an ulp of 9 (4.8e-7) is lost in rounding, so the
        # shift escalates from its first value, 1e-12 * 100.  Split, a
        # round takes rows 0 and 2 and leaves the pair to the single block
        if split:
            monkeypatch.setattr(lpipm.sparse, "MIN_SAVED_FLOPS", 0.0)
            monkeypatch.setattr(lpipm.sparse, "PAIR_FLOPS", 5.0)
        m, n = 4, 200
        B = np.zeros((m, n))
        B[1, :3] = B[3, :3] = [1.0, 2.0, 2.0]
        B[0, 3], B[2, 4] = 2.0, 10.0
        M = form_normal_matrix(SparseMatrix.from_dense(B), np.ones(n), single=True)
        if split:
            (S,), R = eliminated_rows(M.levels, m)
            assert_array_equal(S, [0, 2])
            assert_array_equal(R, [1, 3])
        else:
            assert not M.levels
        f = cholesky_factorize(M)
        assert f.single
        sigma = f.diag_regularization
        assert 1e-7 <= sigma <= 1e-5  # escalated four decades and more
        shifted = B @ B.T + sigma * np.eye(m)
        v = np.random.default_rng(52).standard_normal(m)
        assert_allclose(f.product(v), shifted @ v, rtol=0.0,
                        atol=10 * _U32 * np.abs(shifted).max() * np.abs(v).max())

    @SINGLE_KINDS
    def test_nan_pivot_fails(self, kind):
        # a NaN in the block reaches its column's pivot, and spotrf
        # reports success on a NaN pivot, with info 0
        _, _, M = _single_case(kind, np.random.default_rng(53))
        M._array.flags.writeable = True
        M._array[-1, -2] = np.nan
        with pytest.raises(FactorizationFailed, match="non-finite pivot"):
            cholesky_factorize(M)

    @SINGLE_KINDS
    def test_solve_and_product_reject_a_wrong_length(self, kind):
        _, _, M = _single_case(kind, np.random.default_rng(54))
        f = cholesky_factorize(M)
        for method in (f.solve, f.product):
            for wrong in (np.ones(f.dimension + 1), np.ones(f.dimension - 1)):
                with pytest.raises(ValueError, match=f"expected {f.dimension}"):
                    method(wrong)


class TestOrdering:
    def test_cached_per_pattern(self):
        rng = np.random.default_rng(6)
        B = rng.standard_normal((10, 20))
        B[rng.random((10, 20)) > 0.3] = 0.0
        B[:, 0] = rng.standard_normal(10)  # no empty rows
        A = SparseMatrix.from_dense(B)
        # two normal matrices of one pattern, as sparse patterns
        M1 = SparseMatrix.from_dense(normal_matrix(A, rng.uniform(0.5, 2, 20))[1])
        M2 = SparseMatrix.from_dense(normal_matrix(A, rng.uniform(0.5, 2, 20))[1])
        assert_array_equal(M1.row_idx, M2.row_idx)
        p1 = minimum_degree_ordering(M1)
        p2 = minimum_degree_ordering(M2)
        assert p1 is p2  # same pattern object from the cache

    def test_ordering_reduces_arrow_fill(self):
        # arrowhead matrix: natural order fills completely, MD keeps it sparse
        n = 12
        M = np.eye(n) * 4.0
        M[0, :] = 1.0
        M[:, 0] = 1.0
        M[0, 0] = n
        S = SparseMatrix.from_dense(M)
        perm = minimum_degree_ordering(S)
        assert int(np.flatnonzero(perm == 0)[0]) >= n - 2  # hub goes (almost) last
