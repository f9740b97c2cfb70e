"""Dense LAPACK Cholesky factorization of the normal matrices.

:func:`cholesky_factorize` factors ``M + sigma I`` with LAPACK ``dpotrf``,
escalating the diagonal shift ``sigma`` when ``M`` is not numerically
positive definite.  It factors in place, in one buffer that becomes the
dense factor ``L``: a :class:`NormalMatrix` hands its own array over,
and the array or its transpose is already the Fortran-order matrix
LAPACK needs, so no copy is made.  ``dpotrf`` reads and writes only the
lower triangle.  On the dense path the array is bitwise symmetric: after
a failed pivot the strict upper triangle still holds the matrix, the
next shift is tried on the lower triangle rebuilt from it, and the
factor's strict upper triangle is zeroed at the end.

On a sparse ``A`` (see :mod:`lpipm.sparse`) the array holds only a lower
triangle, its strict upper one zero, so the factor needs no zeroing,
and a retry rebuilds the array from the matrix's assembly plan.  The
normal matrix may arrive with a set ``S`` of rows already eliminated:
its array is then the Schur complement over the other rows ``R``,
``dpotrf`` factors only that ``|R| x |R|`` block, and the factor keeps
the diagonal pivots of ``S`` and the sparse coupling block beside ``L``.
Apart from that the order is the natural one: a dense factor does the
same flops in any order.

:func:`minimum_degree_ordering` computes a symmetric minimum-degree
ordering of a sparse pattern.  The factorization does not use it.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dtrmv, dtrsv
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
    """Factor ``M + sigma*I = P^T L L^T P``, with ``sigma`` the applied
    ``diag_regularization`` and ``P`` the permutation that orders the rows
    of ``M`` as ``(S, R)``.

    In that order the factor is ``[[diag(root_S), 0], [W, L]]``: the rows
    ``S`` were eliminated ahead of the dense factor, with ``root_S =
    sqrt(d_S + sigma)`` and the sparse ``W = M_RS (D_S + sigma I)^{-1/2}``
    (given with its transpose ``W_T``, both CSR on patterns fixed by the
    assembly plan), and ``L`` is the dense lower factor of the Schur
    complement over the rows ``R`` (see :mod:`lpipm.sparse`).  Without
    an eliminated block (``S`` None) ``P`` is the identity and ``L`` is
    the whole factor.  ``L`` is LAPACK's column-major output, read-only,
    which the BLAS triangular solves read in place.

    ``solve`` and ``product`` work in the coordinates of ``M``.  The
    half-solves are a pair for symmetric preconditioning:
    :meth:`half_solve` maps ``M``'s coordinates to the permuted ones and
    :meth:`half_solve_transpose` maps them back, so
    ``half_solve(X half_solve_transpose(v))`` applies ``L^-1 P X P^T L^-T``,
    which is similar to ``(M + sigma I)^-1 X``.
    """

    __slots__ = ("L", "diag_regularization", "S", "R", "root_S", "W", "_W_T")

    def __init__(self, L: np.ndarray, diag_regularization: float, S=None, R=None,
                 root_S=None, W=None, W_T=None):
        self.L = L
        self.diag_regularization = diag_regularization
        self.S, self.R, self.root_S, self.W, self._W_T = S, R, root_S, W, W_T

    @property
    def dimension(self) -> int:
        return self.L.shape[0] + (0 if self.S is None else self.S.size)

    def _checked(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.dimension,):
            raise ValueError(f"rhs has length {v.size}, expected {self.dimension}")
        return v

    def _forward(self, b) -> np.ndarray:
        """``L^-1 P b`` with the whole factor, in the permuted coordinates."""
        if self.S is None:
            return dtrsv(self.L, b, lower=1)
        y_S = b[self.S] / self.root_S
        y_R = dtrsv(self.L, b[self.R] - self.W @ y_S, overwrite_x=1, lower=1)
        return np.concatenate((y_S, y_R))

    def _backward(self, y) -> np.ndarray:
        """``P^T L^-T y`` with the whole factor, in ``M``'s coordinates."""
        if self.S is None:
            return dtrsv(self.L, y, lower=1, trans=1)
        k = self.S.size
        x_R = dtrsv(self.L, y[k:], lower=1, trans=1)
        x = np.empty(self.dimension)
        x[self.R] = x_R
        x[self.S] = (y[:k] - self._W_T @ x_R) / self.root_S
        return x

    def solve(self, rhs) -> np.ndarray:
        """Solve ``(M + sigma I) x = rhs``."""
        return self._backward(self._forward(self._checked(rhs)))

    def half_solve(self, rhs) -> np.ndarray:
        """``L^-1 P rhs``: takes ``M``'s coordinates and returns the
        permuted ones (used to symmetrize preconditioned operators)."""
        return self._forward(self._checked(rhs))

    def half_solve_transpose(self, rhs) -> np.ndarray:
        """``P^T L^-T rhs``: takes the permuted coordinates and returns
        ``M``'s."""
        return self._backward(self._checked(rhs))

    def product(self, v) -> np.ndarray:
        """``P^T L L^T P v = (M + sigma I) v`` as the factor computes it."""
        v = self._checked(v)
        L = self.L
        if self.S is None:
            return dtrmv(L, dtrmv(L, v, lower=1, trans=1), lower=1, overwrite_x=1)
        v_R = v[self.R]
        u_S = self.root_S * v[self.S] + self._W_T @ v_R
        x = np.empty(self.dimension)
        x[self.S] = self.root_S * u_S
        x[self.R] = self.W @ u_S + dtrmv(L, dtrmv(L, v_R, lower=1, trans=1), lower=1,
                                         overwrite_x=1)
        return x


def cholesky_factorize(M: NormalMatrix) -> CholeskyFactor:
    """Factorize a normal matrix, escalating a diagonal shift on failure.

    The first attempt uses sigma = 0.  If the matrix is not numerically
    positive definite, sigma starts at ``1e-12 * max|M_ii|`` and grows
    by a decade per retry, up to 10 retries; the applied sigma is
    recorded on the factor.  No retry makes a further m x m array: on
    the dense path it rebuilds the lower triangle from the untouched
    strict upper one and a saved copy of the diagonal, and on the sparse
    path it zeroes the array and fills it again from the matrix's
    :class:`~lpipm.sparse.AssemblyPlan`.

    The :class:`NormalMatrix` is symmetric by construction, so no
    symmetry check is made, and it is spent: its array becomes ``L``,
    and afterwards it reports its shape but no entries.  When it carries
    eliminated rows, its array is the Schur complement ``C``; the shift
    applies to the whole ``M``, so each retry rebuilds ``C(sigma) = M_RR
    + sigma I - M_RS (D_S + sigma I)^-1 M_SR``, and ``max|M_ii|`` runs
    over the whole diagonal.
    """
    if M.nrows != M.ncols:
        raise ValueError("matrix must be square")
    plan, lower = M.plan, M.lower
    # on the dense path the array is symmetric, so it or its transpose is
    # M in Fortran order; on the sparse path it is F-ordered already
    a = M.take_array()
    a = a if a.flags.f_contiguous else a.T

    diag = np.diagonal(a).copy() if plan is None else plan.diagonal(lower)
    scale = np.abs(diag)
    base = _REG_BASE_SCALE * (scale.max() if scale.size and scale.max() > 0 else 1.0)
    sigma = 0.0
    for _ in range(_MAX_REG_RETRIES + 1):
        if sigma != 0.0 and plan is not None:
            a.fill(0.0)
            plan.fill(a, lower, sigma)
        elif sigma != 0.0:
            # the failed attempt left the strict upper triangle intact
            for j in range(a.shape[0]):
                a[j + 1:, j] = a[j, j + 1:]
            np.fill_diagonal(a, diag + sigma)
        L, info = dpotrf(a, lower=1, clean=0, overwrite_a=1)
        if info != 0:
            sigma = base if sigma == 0.0 else sigma * 10.0
            continue
        if plan is None:
            for j in range(1, L.shape[0]):  # the strict upper triangle still holds the matrix
                L[:j, j] = 0.0
        L.flags.writeable = False
        if plan is None or plan.S.size == 0:
            return CholeskyFactor(L, sigma)
        return CholeskyFactor(L, sigma, plan.S, plan.R, *plan.coupling(lower, sigma))
    raise FactorizationFailed(
        f"no acceptable pivots after {_MAX_REG_RETRIES} regularization retries "
        f"(last sigma {sigma:.3e})"
    )
