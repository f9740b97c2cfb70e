"""Dense LAPACK Cholesky factorization of the normal matrices.

:func:`cholesky_factorize` factors ``M + sigma I = L L^T`` in the natural
order of ``M`` with LAPACK ``dpotrf``, escalating the diagonal shift
``sigma`` when ``M`` is not numerically positive definite.  It factors in
place, in one m x m buffer that becomes ``L``: a :class:`NormalMatrix`
hands its own array over, which is bitwise symmetric, so the array or
its transpose is already the Fortran-order matrix LAPACK needs and no
copy is made.  ``dpotrf`` writes only the lower triangle, so after a
failed pivot the strict upper triangle still holds ``M``, and the next
shift is tried on the lower triangle rebuilt from it.  The factor is
dense, so a fill-reducing ordering cannot lower its flops and none is
applied; the solves are plain triangular solves with ``L``.

:func:`minimum_degree_ordering` computes a symmetric minimum-degree
ordering of a sparse pattern.  The factorization does not use it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sps
from scipy.linalg.blas import dtrsv
from scipy.linalg.lapack import dpotrf

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
    recorded on the factor.  Each retry rebuilds the lower triangle from
    the untouched strict upper one and a saved copy of the diagonal, so
    no further m x m array is made.

    A :class:`NormalMatrix` is symmetric by construction and is spent:
    its array becomes ``L``, and afterwards it reports its shape but no
    entries.  A :class:`SparseMatrix` is checked for symmetry, left
    unchanged, and its lower triangle is mirrored into a private dense
    array, which is the triangle LAPACK reads.
    """
    if M.nrows != M.ncols:
        raise ValueError("matrix must be square")
    if isinstance(M, NormalMatrix):
        # the array is symmetric, so it or its transpose is M in Fortran order
        a = M.take_array()
        a = a if a.flags.f_contiguous else a.T
    else:
        a = _mirrored_lower(M)

    diag = np.diagonal(a).copy()
    scale = np.abs(diag)
    base = _REG_BASE_SCALE * (scale.max() if scale.size and scale.max() > 0 else 1.0)
    sigma = 0.0
    for _ in range(_MAX_REG_RETRIES + 1):
        if sigma != 0.0:
            # the failed attempt left the strict upper triangle intact
            for j in range(a.shape[0]):
                a[j + 1:, j] = a[j, j + 1:]
            np.fill_diagonal(a, diag + sigma)
        L, info = dpotrf(a, lower=1, clean=0, overwrite_a=1)
        if info != 0:
            sigma = base if sigma == 0.0 else sigma * 10.0
            continue
        for j in range(1, L.shape[0]):  # the strict upper triangle still holds M
            L[:j, j] = 0.0
        L.flags.writeable = False
        return CholeskyFactor(L, sigma)
    raise FactorizationFailed(
        f"no acceptable pivots after {_MAX_REG_RETRIES} regularization retries "
        f"(last sigma {sigma:.3e})"
    )


def _mirrored_lower(M: SparseMatrix) -> np.ndarray:
    """Fortran-order dense copy of a symmetric ``M`` with both triangles
    equal to its lower one; raises if ``M`` is not symmetric."""
    S = M.to_scipy()
    if M.nrows:
        sym_err = abs(S - S.T).max()
        if sym_err > 1e-12 * max(abs(S).max(), 1.0):
            raise ValueError("matrix is not symmetric")
    lower = sps.tril(S, format="csc")
    # the two parts have disjoint patterns, so the sum copies entries exactly
    return (lower + sps.tril(lower, -1).T).toarray(order="F")
