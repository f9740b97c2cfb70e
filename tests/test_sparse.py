import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import lpipm.sparse
from lpipm import SparseMatrix, cholesky_factorize, form_normal_matrix
from lpipm.sparse import DENSE_FILL, disjoint_rows

# one fill on each side of DENSE_FILL, so both product kernels run
BOTH_KERNELS = pytest.mark.parametrize(
    "fill", [DENSE_FILL / 3, 1.0], ids=["sparse", "dense"]
)


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
        S = SparseMatrix.identity(3)
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
    def test_identity_case(self):
        A = SparseMatrix.identity(2)
        M = form_normal_matrix(A, np.ones(2))
        assert_array_equal(M.to_dense(), np.eye(2))

    def test_row_vector_by_hand(self):
        A = SparseMatrix.from_dense([[1.0, 1.0]])
        M = form_normal_matrix(A, np.array([1.0, 2.0]))
        assert_array_equal(M.to_dense(), [[5.0]])

    def test_two_rows_by_hand(self):
        A = SparseMatrix.from_dense([[1.0, 1.0], [0.0, 1.0]])
        M = form_normal_matrix(A, np.array([1.0, 2.0]))
        assert_array_equal(M.to_dense(), [[5.0, 4.0], [4.0, 4.0]])

    @BOTH_KERNELS
    def test_matches_dense_formula(self, fill):
        rng = np.random.default_rng(2)
        A = _with_fill(rng, 20, 45, fill)
        d = rng.uniform(0.1, 3.0, 45)
        M = form_normal_matrix(SparseMatrix.from_dense(A), d)
        expected = A @ np.diag(d**2) @ A.T
        assert_allclose(M.to_dense(), expected, rtol=1e-13, atol=1e-13)
        v = rng.standard_normal(20)
        assert_allclose(M.matvec(v), expected @ v, rtol=1e-12, atol=1e-12)
        assert M.nnz == np.count_nonzero(M.to_dense())
        assert not M.to_dense().flags.writeable

    @BOTH_KERNELS
    def test_bitwise_symmetric_storage(self, fill):
        rng = np.random.default_rng(3)
        for trial in range(20):
            A = _with_fill(rng, 20, 45, fill)
            d = rng.uniform(0.01, 100.0, 45)
            M = form_normal_matrix(SparseMatrix.from_dense(A), d)
            D = M.to_dense()
            # not just close: the two triangles must be identical bitwise
            assert np.array_equal(D, D.T)

    def test_sparse_kernel_matches_int32_scipy(self):
        # the int64 index arrays give bitwise the product of scipy's own
        # int32 copies
        rng = np.random.default_rng(5)
        A = SparseMatrix.from_dense(_with_fill(rng, 30, 70, DENSE_FILL / 3))
        d = rng.uniform(0.01, 100.0, 70)
        B = sps.csc_matrix(A.to_dense() * d)
        assert B.indices.dtype == np.int32
        S = B @ B.T
        expected = ((S + S.T) * 0.5).toarray()
        assert form_normal_matrix(A, d).to_dense().tobytes() == expected.tobytes()

    def test_dimension_and_sign_errors(self):
        A = SparseMatrix.from_dense([[1.0, 1.0]])
        with pytest.raises(ValueError):
            form_normal_matrix(A, np.ones(3))
        with pytest.raises(ValueError):
            form_normal_matrix(A, np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            form_normal_matrix(A, np.array([1.0, np.inf]))


class TestSplitNormalMatrix:
    """A sparse ``A`` with row-disjoint rows ``S``: the array is the Schur
    complement over the other rows, and the matrix still reads as the
    whole ``A D^2 A^T``."""

    def _split(self, seed):
        rng = np.random.default_rng(seed)
        A = SparseMatrix.from_dense(_with_fill(rng, 20, 45, DENSE_FILL / 3))
        d = rng.uniform(0.01, 100.0, 45)
        M = form_normal_matrix(A, d)
        assert M.eliminated is not None
        return A, d, M, rng

    def test_reads_as_the_whole_matrix(self, split_always):
        A, d, M, rng = self._split(5)
        # to_dense is bitwise the unsplit assembly of scipy's int32 product
        B = sps.csc_matrix(A.to_dense() * d)
        S = B @ B.T
        expected = ((S + S.T) * 0.5).toarray()
        assert M.to_dense().tobytes() == expected.tobytes()
        assert not M.to_dense().flags.writeable
        assert (M.nrows, M.ncols) == (20, 20)
        assert M.nnz == np.count_nonzero(expected)
        v = rng.standard_normal(20)
        assert_allclose(M.matvec(v), expected @ v, rtol=1e-12, atol=1e-12)

    def test_array_is_the_schur_complement(self, split_always):
        _, _, M, _ = self._split(6)
        full = M.to_dense()
        S, R = M.eliminated.S, M.eliminated.R
        assert_array_equal(np.sort(np.concatenate((S, R))), np.arange(20))
        # M_SS is diagonal: the rows of S share no column
        M_SS = full[np.ix_(S, S)]
        assert_array_equal(M_SS, np.diag(np.diagonal(M_SS)))
        assert_array_equal(M.eliminated.d_S, np.diagonal(M_SS))
        C = M._array
        assert C.shape == (R.size, R.size)
        assert np.array_equal(C, C.T)
        assert not C.flags.writeable
        expected = full[np.ix_(R, R)] - full[np.ix_(R, S)] @ (full[np.ix_(S, R)] / np.diagonal(M_SS)[:, None])
        assert_allclose(C, expected, rtol=0.0, atol=1e-12 * np.abs(full).max())

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_shifted_rebuild_is_bitwise_symmetric_in_either_order(self, split_always, sigma):
        _, _, M, _ = self._split(7)
        E = M.eliminated
        c_order = np.empty((E.R.size,) * 2)
        f_order = np.empty((E.R.size,) * 2, order="F")
        E.schur_complement_into(c_order, sigma)
        E.schur_complement_into(f_order, sigma)
        assert np.array_equal(c_order, c_order.T)
        assert np.array_equal(c_order, f_order)
        if sigma == 0.0:
            assert np.array_equal(c_order, M._array)
        else:
            root, W = E.coupling(sigma)
            assert_allclose(root, np.sqrt(E.d_S + sigma), rtol=1e-15)
            dense = E.M_RR.toarray() + sigma * np.eye(E.R.size) - (W @ W.T).toarray()
            assert_allclose(c_order, dense, rtol=0.0, atol=1e-13 * np.abs(dense).max())

    def test_spent_matrix_keeps_its_shape_only(self, split_always):
        _, _, M, _ = self._split(8)
        cholesky_factorize(M)
        assert (M.nrows, M.ncols) == (20, 20)
        assert M.eliminated is None
        for read in (M.to_dense, lambda: M.matvec(np.ones(20)), lambda: M.nnz):
            with pytest.raises(RuntimeError):
                read()

    def test_dense_fill_never_splits(self, split_always):
        A = SparseMatrix.from_dense(_with_fill(np.random.default_rng(9), 20, 45, 1.0))
        assert A._dense is not None and A._row_split is None
        assert form_normal_matrix(A, np.ones(45)).eliminated is None


def _reference_disjoint_rows(supports):
    """Greedy in plain Python: fewest entries first, ties to the lower
    index; a nonempty row joins when it shares no column with the rows
    already chosen."""
    taken, chosen = set(), []
    for i in sorted(range(len(supports)), key=lambda i: (len(supports[i]), i)):
        if supports[i] and not taken & supports[i]:
            taken |= supports[i]
            chosen.append(i)
    return sorted(chosen)


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

    S = disjoint_rows(A)
    assert S.dtype == np.int64 and np.all(np.diff(S) > 0)
    assert S.tolist() == _reference_disjoint_rows(supports)
    chosen = [supports[i] for i in S]
    assert all(chosen)  # no empty row
    assert sum(len(c) for c in chosen) == len(set().union(*chosen))  # pairwise disjoint
    union = set().union(*chosen)
    assert all(not cols or cols & union for cols in supports)  # maximal
    assert_array_equal(disjoint_rows(SparseMatrix.from_dense(B)), S)  # deterministic

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpipm.sparse, "MIN_SAVED_FLOPS", 0.0)
        split = SparseMatrix.from_dense(B)._row_split
    if S.size in (0, m):
        assert split is None
    else:
        S_split, R = split
        assert_array_equal(S_split, S)
        assert np.all(np.diff(R) > 0)
        assert_array_equal(np.sort(np.concatenate((S, R))), np.arange(m))
