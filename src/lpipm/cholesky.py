"""Sparse Cholesky factorization with a cached fill-reducing ordering.

IPM normal matrices share one sparsity pattern across iterations, so the
minimum-degree ordering is computed once per pattern and memoized.  The
numeric factorization runs on the permuted matrix and the factor is
stored both as a canonical sparse lower triangle and as a dense array
used by the triangular solves.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .errors import FactorizationFailed
from .sparse import SparseMatrix

_REG_BASE_SCALE = 1e-12
_MAX_REG_RETRIES = 10

# pattern key -> permutation, keyed by (n, col_ptr bytes, row_idx bytes)
_ordering_cache: dict = {}


def minimum_degree_ordering(M: SparseMatrix) -> np.ndarray:
    """Symmetric minimum-degree ordering of the pattern of ``M``.

    Ties break toward the lowest index so the ordering is deterministic.
    Once the remaining elimination graph is complete the order of the
    surviving nodes is irrelevant and they are appended in index order.
    """
    n = M.nrows
    key = (n, M.col_ptr.tobytes(), M.row_idx.tobytes())
    cached = _ordering_cache.get(key)
    if cached is not None:
        return cached

    adj = [set() for _ in range(n)]
    col_ptr, row_idx = M.col_ptr, M.row_idx
    for j in range(n):
        for i in row_idx[col_ptr[j]:col_ptr[j + 1]]:
            if i != j:
                adj[int(i)].add(j)
                adj[j].add(int(i))

    order = np.empty(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    degree = np.array([len(a) for a in adj], dtype=np.int64)
    remaining = n
    pos = 0
    while remaining:
        live = np.flatnonzero(alive)
        k = live[np.argmin(degree[live])]
        if degree[k] == remaining - 1:
            # remaining graph is complete; any order is equivalent
            order[pos:] = live
            break
        order[pos] = k
        pos += 1
        alive[k] = False
        remaining -= 1
        neighbors = adj[k]
        for i in neighbors:
            adj[i].discard(k)
        for i in neighbors:
            extra = neighbors - adj[i]
            extra.discard(i)
            if extra:
                adj[i] |= extra
            degree[i] = len(adj[i])
        adj[k] = set()

    order.flags.writeable = False
    _ordering_cache[key] = order
    return order


class CholeskyFactor:
    """Factor ``P M P^T + sigma*I = L L^T`` with P the row permutation
    ``(Pv)_i = v[permutation[i]]``.

    The sparse view of L is materialized lazily; the triangular solves
    run on the dense factor.
    """

    __slots__ = ("permutation", "diag_regularization", "_dense_L",
                 "_inverse_perm", "_sparse_L")

    def __init__(self, permutation, diag_regularization, dense_L, inverse_perm):
        self.permutation = permutation
        self.diag_regularization = diag_regularization
        self._dense_L = dense_L
        self._inverse_perm = inverse_perm
        self._sparse_L = None

    @property
    def L(self) -> SparseMatrix:
        if self._sparse_L is None:
            self._sparse_L = SparseMatrix.from_dense(self._dense_L)
        return self._sparse_L

    @property
    def dimension(self) -> int:
        return self._dense_L.shape[0]

    def solve(self, rhs) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.shape != (self.dimension,):
            raise ValueError(f"rhs has length {rhs.size}, expected {self.dimension}")
        y = rhs[self.permutation]
        z = sla.solve_triangular(self._dense_L, y, lower=True, check_finite=False)
        w = sla.solve_triangular(self._dense_L.T, z, lower=False, check_finite=False)
        return w[self._inverse_perm]

    def half_solve(self, rhs) -> np.ndarray:
        """Solve ``L z = P rhs`` (used to symmetrize preconditioned operators)."""
        rhs = np.asarray(rhs, dtype=np.float64)
        return sla.solve_triangular(
            self._dense_L, rhs[self.permutation], lower=True, check_finite=False
        )

    def half_solve_transpose(self, rhs) -> np.ndarray:
        """Solve ``L^T w = rhs`` and undo the permutation."""
        w = sla.solve_triangular(
            self._dense_L.T, np.asarray(rhs, dtype=np.float64),
            lower=False, check_finite=False,
        )
        return w[self._inverse_perm]


def cholesky_factorize(M: SparseMatrix, min_pivot: float = 0.0) -> CholeskyFactor:
    """Factorize a symmetric matrix, escalating a diagonal shift on failure.

    The first attempt uses sigma = 0.  If a pivot falls below
    ``min_pivot`` (or the matrix is not positive definite) sigma starts
    at ``1e-12 * max|M_ii|`` and grows by a decade per retry, up to 10
    retries; the applied sigma is recorded on the factor.
    """
    if M.nrows != M.ncols:
        raise ValueError("matrix must be square")
    perm = minimum_degree_ordering(M)
    dense = M.to_dense()
    sym_err = np.abs(dense - dense.T).max() if dense.size else 0.0
    scale = np.abs(dense).max() if dense.size else 0.0
    if sym_err > 1e-12 * max(scale, 1.0):
        raise ValueError("matrix is not symmetric")
    permuted = dense[np.ix_(perm, perm)]

    diag = np.abs(np.diagonal(dense))
    base = _REG_BASE_SCALE * (diag.max() if diag.size and diag.max() > 0 else 1.0)
    sigma = 0.0
    for attempt in range(_MAX_REG_RETRIES + 1):
        try:
            L = np.linalg.cholesky(
                permuted if sigma == 0.0 else permuted + sigma * np.eye(M.nrows)
            )
        except np.linalg.LinAlgError:
            L = None
        if L is not None:
            pivots = np.diagonal(L) ** 2
            if min_pivot <= 0.0 or pivots.min() >= min_pivot:
                inv_perm = np.argsort(perm)
                for arr in (L, inv_perm):
                    arr.flags.writeable = False
                return CholeskyFactor(
                    permutation=perm,
                    diag_regularization=sigma,
                    dense_L=L,
                    inverse_perm=inv_perm,
                )
        sigma = base if sigma == 0.0 else sigma * 10.0
    raise FactorizationFailed(
        f"no acceptable pivots after {_MAX_REG_RETRIES} regularization retries "
        f"(last sigma {sigma:.3e})"
    )
