"""Dense LAPACK Cholesky factorization of the normal matrices.

:func:`cholesky_factorize` factors ``M + sigma I`` with LAPACK ``potrf``,
escalating the diagonal shift ``sigma`` when ``M`` is not numerically
positive definite.  It factors in place, in one buffer that becomes the
dense factor ``L``: a :class:`NormalMatrix` hands its own array over,
already in the layout ``potrf`` reads on either assembly path
(:mod:`lpipm.sparse`): F-ordered, a lower triangle, and a strict upper
triangle of zeros, which ``potrf`` leaves as it is, so the factor needs
no zeroing and no copy is made.  A retry has the matrix refill the
array at the next shift (:meth:`NormalMatrix.refill`).

The array's precision picks the routine: ``dpotrf`` on a double array,
``spotrf`` on a single one, which the primal engine's refresh assembles
where single precision pays (:func:`lpipm.sparse.single_pays`).  The
shift escalation and the check of the pivots are the same for both.  A
single factor applies ``strsv`` and ``strmv`` to its dense block, and
its solves and products still take and return double vectors.

On a sparse ``A`` the plan's rounds of elimination may take rows ahead
of ``potrf``, each round an independent set in the pattern the rounds
before it left, taken by one rule: when it saves ``potrf`` at least
:data:`~lpipm.sparse.MIN_SAVED_FLOPS` net of its gathers.  The array is
then the Schur complement they leave over the other rows, ``potrf``
factors only that block, and the factor keeps, level by level, the
diagonal pivots of each round's rows and its sparse coupling block
beside ``L``, in double whatever the block's precision.  Apart from that
the order is the natural one: a dense factor does the same flops in any
order.

:func:`minimum_degree_ordering` computes a symmetric minimum-degree
ordering of a sparse pattern.  The factorization does not use it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.blas import dtrmv, dtrsv, strmv, strsv
from scipy.linalg.lapack import dpotrf, spotrf

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
    ``diag_regularization``, ``diag_max`` the largest ``|M_ii|`` (before
    the shift) and ``P`` the permutation that orders the rows
    of ``M`` as the ``levels`` eliminate them, the dense factor's rows
    last.

    Each :class:`~lpipm.sparse.Level` eliminates its rows ``S`` from the
    matrix the levels before it left, over the rows it keeps, ``R``: in
    the order ``(S, R)`` that matrix's factor is ``[[diag(root), 0], [W,
    L']]``, with ``L'`` the factor of the next level, and the last
    level's ``L'`` is ``L``, the dense lower factor of the Schur
    complement over the rows no level eliminates (see
    :mod:`lpipm.sparse`).  Without levels ``P`` is the identity and ``L``
    is the whole factor.  ``L`` is LAPACK's column-major output,
    read-only, which the BLAS triangular solves read in place.  ``L``
    is double or, on a ``single`` factor, single precision; the levels
    are double either way.  A single factor is a preconditioner: its
    solve is accurate to about ``kappa(M) u`` with ``u`` its
    :attr:`unit_roundoff`.

    ``solve`` and ``product`` work in the coordinates of ``M``, and take
    and return double vectors whatever the precision of ``L``.
    """

    __slots__ = ("L", "diag_regularization", "diag_max", "levels", "dimension", "single",
                 "_trsv", "_trmv")

    def __init__(self, L: np.ndarray, diag_regularization: float, diag_max: float, levels=()):
        self.L = L
        self.diag_regularization = diag_regularization
        self.diag_max = diag_max
        self.levels = levels
        self.dimension = L.shape[0] + sum(level.S.size for level in levels)
        self.single = L.dtype == np.float32
        self._trsv, self._trmv = (strsv, strmv) if self.single else (dtrsv, dtrmv)

    @property
    def unit_roundoff(self) -> float:
        """The unit roundoff of ``L``'s precision."""
        return float(np.finfo(self.L.dtype).eps) / 2.0

    def _on_block(self, kernel, v, **kwargs) -> np.ndarray:
        """A BLAS triangular ``kernel`` of ``L`` on the double ``v`` in
        ``L``'s precision, returned in double; on a double ``L`` the
        kernel reads ``v`` as it is."""
        if self.single:
            return kernel(self.L, v.astype(np.float32), lower=1, **kwargs).astype(np.float64)
        return kernel(self.L, v, lower=1, **kwargs)

    def _checked(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.dimension,):
            raise ValueError(f"rhs has length {v.size}, expected {self.dimension}")
        return v

    def _forward(self, b) -> np.ndarray:
        """``L^-1 P b`` with the whole factor, in the permuted coordinates.
        Without levels a double ``b`` reaches ``dtrsv`` as the caller
        passed it, so it is not overwritten."""
        parts = []
        for level in self.levels:
            y_S = b[level.S] / level.root
            b = b[level.R] - level.W @ y_S
            parts.append(y_S)
        parts.append(self._on_block(self._trsv, b))
        return np.concatenate(parts)

    def _backward(self, y) -> np.ndarray:
        """``P^T L^-T y`` with the whole factor, in ``M``'s coordinates."""
        end = y.size - self.L.shape[0]
        x_R = self._on_block(self._trsv, y[end:], trans=1)
        for level in reversed(self.levels):
            start = end - level.S.size
            x = np.empty(end - start + x_R.size)
            x[level.R] = x_R
            x[level.S] = (y[start:end] - level.W_T @ x_R) / level.root
            x_R, end = x, start
        return x_R

    def solve(self, rhs) -> np.ndarray:
        """Solve ``(M + sigma I) x = rhs``."""
        return self._backward(self._forward(self._checked(rhs)))

    def product(self, v) -> np.ndarray:
        """``P^T L L^T P v = (M + sigma I) v`` as the factor computes it."""
        return self._product(self._checked(v), 0)

    def _product(self, v, k) -> np.ndarray:
        """The product with the factor of levels ``k`` on, ``v`` in the
        coordinates of the rows level ``k`` starts from."""
        if k == len(self.levels):
            return self._on_block(self._trmv, self._on_block(self._trmv, v, trans=1),
                                  overwrite_x=1)
        level = self.levels[k]
        v_R = v[level.R]
        u_S = level.root * v[level.S] + level.W_T @ v_R
        x = np.empty(v.size)
        x[level.S] = level.root * u_S
        x[level.R] = level.W @ u_S + self._product(v_R, k + 1)
        return x


def cholesky_factorize(M: NormalMatrix) -> CholeskyFactor:
    """Factorize a normal matrix, escalating a diagonal shift on failure,
    with ``dpotrf`` or ``spotrf`` as its array is double or single.

    The first attempt uses sigma = 0.  If the matrix is not numerically
    positive definite, sigma starts at ``1e-12 * max|M_ii|`` and grows
    by a decade per retry, up to 10 retries; the applied sigma and
    ``max|M_ii|`` are recorded on the factor.  Each retry has the matrix
    refill the array it handed over at ``M + sigma I``, so no retry makes
    a further m x m array.

    The :class:`NormalMatrix` is symmetric by construction, so no
    symmetry check is made, and it is spent: its array becomes ``L``.
    When it carries eliminated levels, its array is the Schur complement
    ``C`` they leave; the shift applies to the whole ``M``, so each
    refill rebuilds every level and ``C`` at ``M + sigma I``, and
    ``max|M_ii|`` runs over the whole diagonal.  A pivot of a level that
    is not positive fails like a pivot of ``potrf``: the next shift is
    tried, and the pivot is never divided by.  A non-finite entry in a
    column reaches that column's pivot, and ``potrf`` reports success
    on a NaN one, so a factor whose diagonal is not finite raises
    :class:`FactorizationFailed` at once.  In single precision a shift
    below half an ulp of the diagonal is lost in rounding, so there the
    escalation may take more retries.
    """
    levels = M.levels
    a = M.take_array()
    potrf = spotrf if a.dtype == np.float32 else dpotrf
    base = _REG_BASE_SCALE * (M.diag_max if M.diag_max > 0 else 1.0)
    sigma = 0.0
    for _ in range(_MAX_REG_RETRIES + 1):
        if sigma != 0.0:
            levels = M.refill(sigma)
        if levels is not None:  # None: a pivot of an eliminated level failed
            L, info = potrf(a, lower=1, clean=0, overwrite_a=1)
            if info == 0:
                # potrf passes a NaN pivot, and no shift makes it finite;
                # the finite pivots are positive, at most 1.4e154 each
                # (1.8e19 in single precision)
                if not math.isfinite(L.trace()):
                    raise FactorizationFailed("non-finite pivot in the factorization")
                L.flags.writeable = False
                return CholeskyFactor(L, sigma, M.diag_max, levels)
        sigma = base if sigma == 0.0 else sigma * 10.0
    raise FactorizationFailed(
        f"no acceptable pivots after {_MAX_REG_RETRIES} regularization retries "
        f"(last sigma {sigma:.3e})"
    )
