import numpy as np
import pytest
import scipy.sparse as sps
from numpy.testing import assert_allclose, assert_array_equal

from lpipm import SparseMatrix, form_normal_matrix
from lpipm.sparse import DENSE_FILL

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
