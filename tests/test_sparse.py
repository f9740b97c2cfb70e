import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sps
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import lpipm.sparse
from lpipm import (
    DELAYED_SCALING,
    CholeskyFactor,
    PdConfig,
    PrimalConfig,
    SolveStatus,
    SparseMatrix,
    cholesky_factorize,
    form_normal_matrix,
    generate_instance,
    parse_mps,
    pd_solve,
    pd_starting_point,
    primal_solve,
    to_standard_form,
)
from lpipm.sparse import DENSE_FILL, AssemblyPlan

from conftest import eliminated_rows, normal_matrix, sparse_fill_A, take_every_round

# one fill on each side of DENSE_FILL, so both product kernels run
BOTH_KERNELS = pytest.mark.parametrize(
    "fill", [DENSE_FILL / 3, 1.0], ids=["sparse", "dense"]
)


def _filled(plan, lower, sigma):
    """A fresh buffer that ``plan`` filled at ``sigma``, its ``|R| x |R|``
    head and the levels the fill returned."""
    buf = np.zeros(plan.size)
    levels = plan.fill(buf, lower, sigma)
    r = plan.R.size
    return buf, buf[:r * r].reshape((r, r), order="F"), levels


def _with_fill(rng, m, n, fill):
    A = rng.standard_normal((m, n))
    A[rng.random((m, n)) >= fill] = 0.0
    assert (np.count_nonzero(A) >= DENSE_FILL * A.size) == (fill >= DENSE_FILL)
    return A


class TestSparseMatrix:
    def test_from_dense_round_trip(self):
        A = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]])
        S = SparseMatrix.from_dense(A)
        assert S.shape == (2, 3)
        assert S.nnz == 3
        assert_array_equal(S.to_dense(), A)

    def test_canonical_invariants(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((7, 11))
        A[rng.random((7, 11)) > 0.4] = 0.0
        S = SparseMatrix.from_dense(A)
        assert S.col_ptr[0] == 0 and S.col_ptr[-1] == S.nnz
        assert np.all(np.diff(S.col_ptr) >= 0)
        for j in range(S.ncols):
            rows = S.row_idx[S.col_ptr[j]:S.col_ptr[j + 1]]
            assert np.all(np.diff(rows) > 0)
        assert not np.any(S.values == 0.0)

    def test_duplicates_summed_and_zeros_dropped(self):
        S = SparseMatrix.from_coo(2, 2, [0, 0, 1], [0, 0, 1], [1.0, 2.0, 0.0])
        assert S.nnz == 1
        assert S.to_dense()[0, 0] == 3.0

    def test_rejects_bad_col_ptr(self):
        with pytest.raises(ValueError):
            SparseMatrix(2, 2, np.array([0, 2, 1]), np.array([0, 1]), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("col_ptr, row_idx, values, message", [
        ([0, 1], [0], [1.0], "length ncols \\+ 1"),
        ([1, 1, 2], [0, 1], [1.0, 1.0], "endpoints"),
        ([0, 1, 2], [0, 1], [1.0], "length mismatch"),
        ([0, 1, 2], [0, 2], [1.0, 1.0], "out of range"),
        ([0, 1, 2], [0, 1], [1.0, 0.0], "explicit zeros"),
    ])
    def test_rejects_a_non_canonical_form(self, col_ptr, row_idx, values, message):
        with pytest.raises(ValueError, match=message):
            SparseMatrix(2, 2, np.array(col_ptr), np.array(row_idx), np.array(values))

    def test_rejects_unsorted_rows(self):
        with pytest.raises(ValueError):
            SparseMatrix(3, 1, np.array([0, 2]), np.array([2, 1]), np.array([1.0, 1.0]))

    def test_matvec_and_transpose(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((4, 6))
        S = SparseMatrix.from_dense(A)
        v = rng.standard_normal(6)
        w = rng.standard_normal(4)
        assert_allclose(S.matvec(v), A @ v)
        assert_allclose(S.rmatvec(w), A.T @ w)
        assert_array_equal(S.transpose().to_dense(), A.T)

    @BOTH_KERNELS
    def test_products_match_to_dense(self, fill):
        rng = np.random.default_rng(7)
        S = SparseMatrix.from_dense(_with_fill(rng, 20, 45, fill))
        v = rng.standard_normal(45)
        w = rng.standard_normal(20)
        assert_allclose(S.matvec(v), S.to_dense() @ v, rtol=1e-13, atol=1e-13)
        assert_allclose(S.rmatvec(w), S.to_dense().T @ w, rtol=1e-13, atol=1e-13)

    def test_arrays_read_only(self):
        S = SparseMatrix.from_dense(np.eye(3))
        with pytest.raises(ValueError):
            S.values[0] = 5.0

    def test_scipy_views_share_the_arrays(self):
        S = SparseMatrix.from_dense(_with_fill(np.random.default_rng(4), 20, 45, 0.3))
        for view in (S.to_scipy(), S._csc_T):
            assert np.shares_memory(S.row_idx, view.indices)
            assert np.shares_memory(S.col_ptr, view.indptr)
            assert np.shares_memory(S.values, view.data)
            assert view.has_canonical_format
        assert_array_equal(S.to_scipy().toarray(), S._csc_T.toarray().T)


class TestFormNormalMatrix:
    """The array holds the lower triangle of ``M`` on both paths when no
    row is eliminated, its strict upper triangle zero."""

    def test_identity_case(self):
        A = SparseMatrix.from_dense(np.eye(2))
        M = form_normal_matrix(A, np.ones(2))
        assert_array_equal(M._array, np.eye(2))

    def test_row_vector_by_hand(self):
        A = SparseMatrix.from_dense([[1.0, 1.0]])
        M = form_normal_matrix(A, np.array([1.0, 2.0]))
        assert_array_equal(M._array, [[5.0]])

    def test_two_rows_by_hand(self):
        A = SparseMatrix.from_dense([[1.0, 1.0], [0.0, 1.0]])
        M = form_normal_matrix(A, np.array([1.0, 2.0]))
        assert_array_equal(M._array, [[5.0, 0.0], [4.0, 4.0]])
        assert M.nnz == 4 and M.diag_max == 5.0

    @BOTH_KERNELS
    def test_matches_dense_formula(self, fill):
        rng = np.random.default_rng(2)
        A = _with_fill(rng, 20, 45, fill)
        d = rng.uniform(0.1, 3.0, 45)
        M, expected = normal_matrix(A, d)
        assert_allclose(M._array, np.tril(expected), rtol=1e-13, atol=1e-13)
        assert M.nnz == np.count_nonzero(expected)
        assert M.diag_max == pytest.approx(np.diagonal(expected).max(), rel=1e-14)
        assert not M._array.flags.writeable

    @BOTH_KERNELS
    def test_bitwise_symmetric_storage(self, fill):
        # one triangle is stored, so the matrix it holds is symmetric bit
        # for bit: the strict upper triangle is zero and nothing reads it
        rng = np.random.default_rng(3)
        for trial in range(20):
            A = _with_fill(rng, 20, 45, fill)
            d = rng.uniform(0.01, 100.0, 45)
            M, expected = normal_matrix(A, d)
            C = M._array
            assert C.flags.f_contiguous and not np.any(np.triu(C, 1))
            if fill == 1.0:
                # SYRK's triangle is numpy's own product, which numpy mirrors
                assert np.array_equal(C, np.tril(expected))

    @BOTH_KERNELS
    def test_refill_rewrites_the_array_it_handed_over(self, fill):
        rng = np.random.default_rng(4)
        M, _ = normal_matrix(_with_fill(rng, 20, 45, fill), rng.uniform(0.1, 3.0, 45))
        a = M.take_array()
        assembled = a.copy()
        # a failed factorization leaves its partial factor in the triangle
        a[np.tril_indices(20)] = np.nan
        assert M.refill(0.5) == ()
        expected = assembled.copy()
        expected[np.diag_indices(20)] += 0.5
        assert np.array_equal(a, expected)  # the assembly's own values, shifted

    def test_sparse_kernel_matches_int32_scipy(self):
        # the plan's assembly reads as scipy's own product of int32 copies,
        # to rounding
        rng = np.random.default_rng(5)
        A = SparseMatrix.from_dense(_with_fill(rng, 30, 70, DENSE_FILL / 3))
        d = rng.uniform(0.01, 100.0, 70)
        B = sps.csc_matrix(A.to_dense() * d)
        assert B.indices.dtype == np.int32
        S = B @ B.T
        expected = ((S + S.T) * 0.5).toarray()
        M = form_normal_matrix(A, d)
        assert M.plan.R.size == 30  # too small to split: the array is the whole M
        assert_allclose(M._array, np.tril(expected), rtol=1e-14,
                        atol=1e-14 * np.abs(expected).max())

    def test_dimension_and_sign_errors(self):
        A = SparseMatrix.from_dense([[1.0, 1.0]])
        with pytest.raises(ValueError):
            form_normal_matrix(A, np.ones(3))
        with pytest.raises(ValueError):
            form_normal_matrix(A, np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            form_normal_matrix(A, np.array([1.0, np.inf]))


class TestSplitNormalMatrix:
    """A sparse ``A`` from which the plan's own rule takes a round of
    elimination: the array is the Schur complement over the other rows,
    and the matrix still reads as the whole ``A D^2 A^T``."""

    def _split(self, seed):
        rng = np.random.default_rng(seed)
        A = sparse_fill_A(rng, 500, 1100)
        d = rng.uniform(0.01, 100.0, 1100)
        M, full = normal_matrix(A, d)
        assert 1 < M.plan.R.size < 500
        return A, d, M, full, rng

    def test_reads_as_the_whole_matrix(self):
        A, d, M, _, rng = self._split(5)
        # the values of M are scipy's int32 product, the shape, nonzeros
        # and diagonal those of the whole M
        B = sps.csc_matrix(A.to_dense() * d)
        S = B @ B.T
        expected = ((S + S.T) * 0.5).toarray()
        diagonal = M.plan.diagonal(M.lower)
        assert_allclose(diagonal, np.diagonal(expected), rtol=1e-14)
        assert M.diag_max == np.abs(diagonal).max()
        assert M.nrows == 500
        assert M.nnz == np.count_nonzero(expected)

    def test_array_is_the_schur_complement(self):
        _, _, M, full, _ = self._split(6)
        eliminated, R = eliminated_rows(M.levels, 500)
        assert_array_equal(R, M.plan.R)
        S, E = eliminated[0], np.concatenate(eliminated)
        assert_array_equal(np.sort(np.concatenate((E, R))), np.arange(500))
        # M_SS is diagonal: the rows of the first level share no column
        M_SS = full[np.ix_(S, S)]
        assert_array_equal(M_SS, np.diag(np.diagonal(M_SS)))
        assert_allclose(M.plan.diagonal(M.lower), np.diagonal(full), rtol=1e-14)
        C = M._array
        assert C.shape == (R.size, R.size)
        assert C.flags.f_contiguous and not C.flags.writeable
        assert not np.any(np.triu(C, 1))  # only the lower triangle is written
        expected = full[np.ix_(R, R)] - full[np.ix_(R, E)] @ np.linalg.solve(
            full[np.ix_(E, E)], full[np.ix_(E, R)])
        assert_allclose(C, np.tril(expected), rtol=0.0, atol=1e-12 * np.abs(full).max())

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_shifted_rebuild_is_bitwise_symmetric_in_either_order(self, sigma):
        # the rebuild at sigma gives one array whether it follows the
        # rebuild at the other shift or not, and only its lower triangle
        # is written, so the matrix it holds is symmetric bit for bit
        _, _, M, dense, _ = self._split(7)
        plan, lower = M.plan, M.lower
        _, fresh, levels = _filled(plan, lower, sigma)
        buf, again, _ = _filled(plan, lower, 0.5 - sigma)
        buf.fill(0.0)
        plan.fill(buf, lower, sigma)
        assert np.array_equal(fresh, again)
        assert not np.any(np.triu(fresh, 1))
        if sigma == 0.0:
            assert np.array_equal(fresh, M._array)
        eliminated, R = eliminated_rows(levels, 500)
        assert_array_equal(R, plan.R)
        E = np.concatenate(eliminated)
        shifted = dense + sigma * np.eye(500)
        # the first level eliminates from M itself
        level = levels[0]
        root, W, W_T = level.root, level.W, level.W_T
        assert_allclose(root, np.sqrt(np.diagonal(shifted)[level.S]), rtol=1e-15)
        assert_allclose(W.toarray(), shifted[np.ix_(level.R, level.S)] / root, rtol=1e-15)
        assert_array_equal(W_T.toarray(), W.toarray().T)
        expected = shifted[np.ix_(R, R)] - shifted[np.ix_(R, E)] @ np.linalg.solve(
            shifted[np.ix_(E, E)], shifted[np.ix_(E, R)])
        assert_allclose(fresh, np.tril(expected), rtol=0.0, atol=1e-13 * np.abs(expected).max())

    def test_shifted_retry_is_rebuilt_from_the_plan(self, rounds_always):
        # row 3 repeats row 2, so A D^2 A^T is singular and the unshifted
        # attempt fails; the retry refills the array from the plan
        rng = np.random.default_rng(10)
        B = _with_fill(rng, 20, 45, DENSE_FILL / 3)
        B[3] = B[2]
        M, dense = normal_matrix(B, rng.uniform(0.5, 2.0, 45))
        plan, lower = M.plan, M.lower
        assert plan.R.size < 20
        f = cholesky_factorize(M)
        sigma = f.diag_regularization
        assert sigma > 0.0
        shifted = _filled(plan, lower, sigma)[1]
        assert f.L.tobytes(order="F") == sla.cholesky(shifted, lower=True).tobytes(order="F")
        assert not np.any(np.triu(f.L, 1))
        v = rng.standard_normal(20)
        expected = dense @ v + sigma * v
        assert_allclose(f.product(v), expected, rtol=0.0, atol=1e-13 * np.abs(expected).max())

    def test_one_buffer_and_one_coupling_pattern(self):
        # each level's W and W_T share one array of values, and the factor
        # lies in the plan's buffer, whose slots follow the |R| x |R| array
        _, _, M, _, _ = self._split(9)
        plan = M.plan
        assert M.levels
        for level in M.levels:
            assert np.shares_memory(level.W.data, level.W_T.data)
            assert level.W.indices is level.W_T.indices and level.W.indptr is level.W_T.indptr
        f = cholesky_factorize(M)
        assert f.L.base is not None and f.L.base.size == plan.size
        assert plan.size > plan.R.size ** 2

    def test_spent_matrix_keeps_its_shape_only(self):
        _, _, M, _, _ = self._split(8)
        cholesky_factorize(M)
        assert M.nrows == 500
        for read in (lambda: M.nnz, M.take_array):
            with pytest.raises(RuntimeError):
                read()

    def test_dense_fill_never_splits(self, rounds_always):
        A = SparseMatrix.from_dense(_with_fill(np.random.default_rng(9), 20, 45, 1.0))
        assert A._dense is not None and A._plan is None
        assert form_normal_matrix(A, np.ones(45)).plan is None


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_disjoint_rows_on_random_patterns(data):
    m = data.draw(st.integers(1, 12), label="m")
    n = data.draw(st.integers(1, 12), label="n")
    supports = []
    for i in range(m):
        kind = data.draw(st.sampled_from(["empty", "single", "several", "repeat"]))
        if kind == "empty":
            cols = set()
        elif kind == "single":
            cols = {data.draw(st.integers(0, n - 1))}
        elif kind == "several":
            cols = set(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)))
        else:  # the support of an earlier row, or none
            cols = set(supports[data.draw(st.integers(0, i - 1))]) if i else set()
        supports.append(cols)
    nnz = sum(len(c) for c in supports)
    # zero columns put the fill below DENSE_FILL, so A takes the sparse path
    B = np.zeros((m, n + 10 * nnz + 1))
    for i, cols in enumerate(supports):
        B[i, sorted(cols)] = 1.0 + i
    A = SparseMatrix.from_dense(B)
    assert A._dense is None

    with pytest.MonkeyPatch.context() as mp:
        take_every_round(mp)
        plan = A._plan
        again = SparseMatrix.from_dense(B)._plan
    # the first level's rows, S, and the rows it keeps, R
    if plan._rounds:
        S, R = plan._rounds[0].S, plan._rounds[0].R
    else:
        S, R = np.empty(0, dtype=np.int64), plan.R
    # a round keeps at least one row, and the first takes one whenever it can
    assert (S.size > 0) == (m > 1 and any(supports))
    assert np.all(np.diff(S) > 0)
    chosen = [supports[i] for i in S]
    assert all(chosen)  # no empty row
    assert sum(len(c) for c in chosen) == len(set().union(*chosen))  # pairwise disjoint
    assert np.all(np.diff(R) > 0)
    assert_array_equal(np.sort(np.concatenate((S, R))), np.arange(m))
    assert_array_equal(again._rounds[0].S if again._rounds else [], S)  # deterministic


def _count_analyses(monkeypatch):
    """The list to which every symbolic analysis of a product pattern
    appends one entry."""
    calls = []
    real = AssemblyPlan._analyse

    def counted(self, indptr, indices):
        calls.append(indices.size)
        return real(self, indptr, indices)

    monkeypatch.setattr(AssemblyPlan, "_analyse", counted)
    return calls


def test_plan_assembly_on_random_patterns():
    """The array of the plan's assembly, with and without eliminated rows,
    is the lower triangle of the Schur complement of a dense reference,
    and its strict upper triangle is exactly zero.  With every round taken,
    some of the examples eliminate rows."""
    levels_taken = []

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def check(data):
        m = data.draw(st.integers(1, 12), label="m")
        n = data.draw(st.integers(1, 16), label="n")
        split = data.draw(st.booleans(), label="split")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        B = np.zeros((m, n))
        for i in range(m):
            k = data.draw(st.integers(0, min(n, 4)))  # 0: an empty row
            B[i, rng.choice(n, k, replace=False)] = (rng.uniform(0.5, 2.0, k)
                                                     * rng.choice([-1.0, 1.0], k))
        if split:
            # a column of its own for every row: M is positive definite, so
            # no level meets a zero pivot
            B = np.hstack((B, np.diag(rng.uniform(0.5, 2.0, m))))
        # zero columns put the fill below DENSE_FILL, so A takes the sparse path
        B = np.hstack((B, np.zeros((m, 10 * np.count_nonzero(B) + 1))))
        d = rng.uniform(0.1, 10.0, B.shape[1])
        with pytest.MonkeyPatch.context() as mp:
            if split:
                take_every_round(mp)
            else:
                mp.setattr(lpipm.sparse, "MIN_SAVED_FLOPS", np.inf)
            A = SparseMatrix.from_dense(B)
            M = form_normal_matrix(A, d)
        plan = M.plan
        assert plan is A._plan
        eliminated, R = eliminated_rows(M.levels, m)
        assert_array_equal(R, plan.R)
        if split:
            levels_taken.append(len(M.levels))
        else:
            assert M.levels == ()
        full = (B * d) @ (B * d).T
        scale = max(np.abs(full).max(), 1.0)
        E = np.concatenate(eliminated + [np.empty(0, dtype=np.int64)])
        expected = full[np.ix_(R, R)] - full[np.ix_(R, E)] @ np.linalg.solve(
            full[np.ix_(E, E)], full[np.ix_(E, R)])
        C = M._array
        assert C.shape == (R.size, R.size) and C.flags.f_contiguous
        assert not np.any(np.triu(C, 1))
        assert_allclose(C, np.tril(expected), rtol=1e-14, atol=1e-14 * scale)
        assert_allclose(plan.diagonal(M.lower), np.diagonal(full), rtol=1e-14)
        assert M.nnz == np.count_nonzero(full)

    check()
    assert any(levels_taken)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_rounds_on_random_patterns(data):
    """With every round of elimination taken, the array that the plan
    fills at a shift is the lower triangle of the Schur complement of a
    dense reference over the rows no round eliminates, whatever number
    of entries the fill takes at a time, and the factor from it and the
    plan's levels solves, multiplies and half-solves as that reference
    does."""
    m = data.draw(st.integers(1, 12), label="m")
    n = data.draw(st.integers(1, 16), label="n")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    B = np.zeros((m, n))
    for i in range(m):
        k = data.draw(st.integers(0, min(n, 4)))  # 0: an empty row, 1: a single entry
        B[i, rng.choice(n, k, replace=False)] = rng.uniform(0.5, 2.0, k) * rng.choice([-1.0, 1.0], k)
    # zero columns put the fill below DENSE_FILL, so A takes the sparse path
    B = np.hstack((B, np.zeros((m, 10 * np.count_nonzero(B) + 1))))
    d = rng.uniform(0.1, 10.0, B.shape[1])
    with pytest.MonkeyPatch.context() as mp:
        take_every_round(mp)
        M = form_normal_matrix(SparseMatrix.from_dense(B), d)
    plan, lower = M.plan, M.lower
    full = (B * d) @ (B * d).T
    scale = max(np.abs(full).max(), 1.0)
    assert_allclose(plan.diagonal(lower), np.diagonal(full), rtol=1e-14, atol=1e-14 * scale)

    # M + sigma I is well conditioned, so every level's pivots are positive
    sigma = scale
    r = plan.R.size
    _, C, levels = _filled(plan, lower, sigma)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpipm.sparse, "_ENTRIES", data.draw(st.integers(1, 3), label="entries"))
        in_parts = _filled(plan, lower, sigma)[1]
    assert_array_equal(in_parts, C)
    eliminated, R = eliminated_rows(levels, m)
    assert_array_equal(R, plan.R)
    assert r == m - sum(S.size for S in eliminated)
    assert_array_equal(np.sort(np.concatenate(eliminated + [R])), np.arange(m))
    shifted = full + sigma * np.eye(m)
    E = np.concatenate(eliminated + [np.empty(0, dtype=np.int64)])
    expected = shifted[np.ix_(R, R)] - shifted[np.ix_(R, E)] @ np.linalg.solve(
        shifted[np.ix_(E, E)], shifted[np.ix_(E, R)])
    assert not np.any(np.triu(C, 1))
    assert_allclose(C, np.tril(expected), rtol=1e-13, atol=1e-13 * scale)

    f = CholeskyFactor(np.asfortranarray(sla.cholesky(C, lower=True)), sigma,
                       float(np.abs(np.diagonal(full)).max()), levels)
    assert f.dimension == m
    b = rng.standard_normal(m)
    x = np.linalg.solve(shifted, b)
    assert_allclose(f.product(b), shifted @ b, rtol=1e-13, atol=1e-13 * scale * np.abs(b).sum())
    assert_allclose(f.solve(b), x, rtol=1e-12, atol=1e-12 * np.abs(x).max())
    assert_allclose(f.solve(f.product(b)), b, rtol=1e-12, atol=1e-12 * np.abs(b).max())
    assert b @ f.solve(b) == pytest.approx(b @ x, rel=1e-12)


def test_one_analysis_per_matrix_across_scalings(monkeypatch, rounds_always):
    calls = _count_analyses(monkeypatch)
    rng = np.random.default_rng(11)
    A = SparseMatrix.from_dense(_with_fill(rng, 20, 45, DENSE_FILL / 3))
    for _ in range(10):
        M = form_normal_matrix(A, rng.uniform(0.01, 100.0, 45))
        assert M.plan is A._plan and M.plan.R.size < 20
        cholesky_factorize(M)
    assert len(calls) == 1


def test_cancelled_entry_is_analysed_for_its_product_only(monkeypatch):
    # rows 0 and 1 share columns 0 and 1 with products 1 and -1: at d = 1
    # their entry of M cancels to zero and scipy drops it
    calls = _count_analyses(monkeypatch)
    B = np.zeros((3, 40))
    B[0, :2] = [1.0, 1.0]
    B[1, :2] = [1.0, -1.0]
    B[2, 2] = 1.0
    A = SparseMatrix.from_dense(B)
    plan = A._plan
    assert len(calls) == 1
    cancelled = form_normal_matrix(A, np.ones(40))
    assert len(calls) == 2 and cancelled.plan is not plan and A._plan is plan
    assert_array_equal(cancelled._array, np.diag([2.0, 2.0, 1.0]))
    d = np.ones(40)
    d[1] = 2.0
    M = form_normal_matrix(A, d)
    assert len(calls) == 2 and M.plan is plan
    assert_array_equal(M._array, [[5.0, 0.0, 0.0], [-3.0, 5.0, 0.0], [0.0, 0.0, 1.0]])


def test_one_analysis_across_pd_and_primal(monkeypatch):
    calls = _count_analyses(monkeypatch)
    # the benchmark's sparse_wide family at its smoke size: sparse fill
    std = to_standard_form(parse_mps(generate_instance(60, 140, 1, density=4 / 60).mps_text))
    assert std.A._dense is None
    pd = pd_solve(std, PdConfig())
    cfg = PrimalConfig(tau=0.28, cg_tol=1e-12, mode=DELAYED_SCALING)
    primal = primal_solve(std, cfg, pd_starting_point(std))
    assert pd.status == primal.status == SolveStatus.OPTIMAL
    assert pd.factorizations > 1 and primal.factorizations > 1
    assert len(calls) == 1
