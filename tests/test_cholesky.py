import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from lpipm import (
    FactorizationFailed,
    SparseMatrix,
    cholesky_factorize,
    form_normal_matrix,
    minimum_degree_ordering,
)


def _reconstruct(factor):
    """M + sigma I from the stored factor."""
    return factor.L @ factor.L.T


class TestFactorize:
    def test_identity(self):
        f = cholesky_factorize(SparseMatrix.identity(3))
        assert f.diag_regularization == 0.0
        assert_array_equal(f.L, np.eye(3))

    def test_two_by_two_by_hand(self):
        M = SparseMatrix.from_dense([[4.0, 2.0], [2.0, 3.0]])
        f = cholesky_factorize(M)
        assert_allclose(f.L, [[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        assert f.diag_regularization == 0.0

    def test_singular_gets_regularized(self):
        M = SparseMatrix.from_dense([[1.0, 1.0], [1.0, 1.0]])
        f = cholesky_factorize(M)
        assert f.diag_regularization > 0.0
        v = f.solve(np.array([1.0, 1.0]))
        assert np.all(np.isfinite(v))
        assert_allclose(
            _reconstruct(f), M.to_dense() + f.diag_regularization * np.eye(2), rtol=1e-12
        )
        # a tiny but positive pivot is not regularized
        f2 = cholesky_factorize(SparseMatrix.from_dense(np.diag([1.0, 1e-14])))
        assert f2.diag_regularization == 0.0

    def test_factorization_failed_after_retries(self):
        M = SparseMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(FactorizationFailed):
            cholesky_factorize(M)

    def test_rejects_nonsquare_and_asymmetric(self):
        with pytest.raises(ValueError):
            cholesky_factorize(SparseMatrix.from_dense([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            cholesky_factorize(SparseMatrix.from_dense([[1.0, 2.0], [0.5, 3.0]]))

    def test_reconstruction_on_random_probes(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            B = rng.standard_normal((6, 10))
            M = form_normal_matrix(SparseMatrix.from_dense(B), rng.uniform(0.5, 2, 10))
            f = cholesky_factorize(M)
            assert f.diag_regularization == 0.0
            assert np.all(np.diagonal(f.L) > 0.0)
            D = M.to_dense()
            for _ in range(3):
                v = rng.standard_normal(6)
                r = np.linalg.norm(_reconstruct(f) @ v - D @ v)
                assert r <= 1e-12 * np.linalg.norm(D @ v) + 1e-13


class TestFactorSolve:
    def test_identity_solve(self):
        f = cholesky_factorize(SparseMatrix.identity(3))
        assert_array_equal(f.solve(np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])

    def test_two_by_two_solve(self):
        f = cholesky_factorize(SparseMatrix.from_dense([[4.0, 2.0], [2.0, 3.0]]))
        assert_allclose(f.solve(np.array([6.0, 5.0])), [1.0, 1.0], rtol=1e-14)

    def test_zero_rhs(self):
        f = cholesky_factorize(SparseMatrix.from_dense([[2.0]]))
        assert_array_equal(f.solve(np.array([0.0])), [0.0])

    def test_dimension_mismatch(self):
        f = cholesky_factorize(SparseMatrix.identity(3))
        with pytest.raises(ValueError):
            f.solve(np.ones(4))

    def test_solve_identity_map_well_conditioned(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            B = rng.standard_normal((8, 14))
            M = form_normal_matrix(SparseMatrix.from_dense(B), rng.uniform(0.3, 3, 14))
            assert np.linalg.cond(M.to_dense()) < 1e8
            f = cholesky_factorize(M)
            v = rng.standard_normal(8)
            rhs = M.to_dense() @ v
            assert_allclose(f.solve(rhs), v, rtol=1e-10, atol=1e-12)


class TestOrdering:
    def test_cached_per_pattern(self):
        rng = np.random.default_rng(6)
        B = rng.standard_normal((10, 20))
        B[rng.random((10, 20)) > 0.3] = 0.0
        B[:, 0] = rng.standard_normal(10)  # no empty rows
        A = SparseMatrix.from_dense(B)
        # two normal matrices of one pattern, as sparse patterns
        M1 = SparseMatrix.from_dense(form_normal_matrix(A, rng.uniform(0.5, 2, 20)).to_dense())
        M2 = SparseMatrix.from_dense(form_normal_matrix(A, rng.uniform(0.5, 2, 20)).to_dense())
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
