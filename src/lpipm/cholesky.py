"""Dense LAPACK Cholesky factorization of the normal matrices.

:func:`cholesky_factorize` factors ``M + sigma I = L L^T`` in the natural
order of ``M`` with LAPACK, escalating the diagonal shift ``sigma`` when
``M`` is not numerically positive definite.  The factor is dense, so a
fill-reducing ordering cannot lower its flops and none is applied; the
solves are plain triangular solves with ``L``.

:func:`minimum_degree_ordering` computes a symmetric minimum-degree
ordering of a sparse pattern.  The factorization does not use it.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
from scipy.linalg.blas import dtrsv

from .errors import FactorizationFailed
from .sparse import NormalMatrix, SparseMatrix

_REG_BASE_SCALE = 1e-12
_MAX_REG_RETRIES = 10

# pattern key -> permutation, keyed by (n, col_ptr bytes, row_idx bytes)
_ordering_cache: dict = {}


def minimum_degree_ordering(M: SparseMatrix) -> np.ndarray:
    """Symmetric minimum-degree ordering of the pattern of ``M``.

    Ties break toward the lowest index so the ordering is deterministic.
    Once the remaining elimination graph is complete the order of the
    surviving nodes is irrelevant and they are appended in index order.
    The result is memoized per pattern.
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
    """Factor ``M + sigma*I = L L^T`` with ``L`` dense, lower triangular
    and read-only, and ``sigma`` the applied ``diag_regularization``.

    ``L`` is LAPACK's column-major output, which the BLAS triangular
    solves read in place.
    """

    __slots__ = ("L", "diag_regularization")

    def __init__(self, L: np.ndarray, diag_regularization: float):
        self.L = L
        self.diag_regularization = diag_regularization

    @property
    def dimension(self) -> int:
        return self.L.shape[0]

    def solve(self, rhs) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.shape != (self.dimension,):
            raise ValueError(f"rhs has length {rhs.size}, expected {self.dimension}")
        z = dtrsv(self.L, rhs, lower=1)
        return dtrsv(self.L, z, overwrite_x=1, lower=1, trans=1)

    def half_solve(self, rhs) -> np.ndarray:
        """Solve ``L z = rhs`` (used to symmetrize preconditioned operators)."""
        return dtrsv(self.L, np.asarray(rhs, dtype=np.float64), lower=1)

    def half_solve_transpose(self, rhs) -> np.ndarray:
        """Solve ``L^T w = rhs``."""
        return dtrsv(self.L, np.asarray(rhs, dtype=np.float64), lower=1, trans=1)


def cholesky_factorize(M: NormalMatrix | SparseMatrix) -> CholeskyFactor:
    """Factorize a symmetric matrix, escalating a diagonal shift on failure.

    The first attempt uses sigma = 0.  If the matrix is not numerically
    positive definite, sigma starts at ``1e-12 * max|M_ii|`` and grows
    by a decade per retry, up to 10 retries; the applied sigma is
    recorded on the factor.  A :class:`NormalMatrix` is symmetric by
    construction; any other input is checked for symmetry first.
    """
    if M.nrows != M.ncols:
        raise ValueError("matrix must be square")
    dense = M.to_dense()
    if not isinstance(M, NormalMatrix) and dense.size:
        sym_err = np.abs(dense - dense.T).max()
        if sym_err > 1e-12 * max(np.abs(dense).max(), 1.0):
            raise ValueError("matrix is not symmetric")

    diag = np.abs(np.diagonal(dense))
    base = _REG_BASE_SCALE * (diag.max() if diag.size and diag.max() > 0 else 1.0)
    sigma = 0.0
    for _ in range(_MAX_REG_RETRIES + 1):
        shifted = dense if sigma == 0.0 else dense + sigma * np.eye(M.nrows)
        try:
            L = sla.cholesky(shifted, lower=True, check_finite=False)
        except np.linalg.LinAlgError:
            sigma = base if sigma == 0.0 else sigma * 10.0
            continue
        L.flags.writeable = False
        return CholeskyFactor(L, sigma)
    raise FactorizationFailed(
        f"no acceptable pivots after {_MAX_REG_RETRIES} regularization retries "
        f"(last sigma {sigma:.3e})"
    )
