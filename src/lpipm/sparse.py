"""Constraint-matrix storage and dense assembly of ``A D^2 A^T``.

:class:`SparseMatrix` stores ``A`` in canonical CSC form.  When ``A`` is
filled to at least :data:`DENSE_FILL`, it also keeps one read-only dense
copy of itself, built on first use, and its products and the normal
matrix run on that copy through BLAS.  Below the threshold they run
through scipy's sparse kernels.

:func:`form_normal_matrix` returns ``M = A D^2 A^T`` as a
:class:`NormalMatrix`, the one-shot input of the dense LAPACK
factorization in :mod:`lpipm.cholesky`, which factors it in its own
array.  On the dense path that array is the whole m x m ``M``.  On the
sparse path, ``A`` also picks once a set ``S`` of rows whose column
supports are pairwise disjoint (:func:`disjoint_rows`).  Then ``M_SS``
is diagonal for every scaling ``D``, so eliminating ``S`` first is an
exact Cholesky step with no fill inside ``S`` (one step of multiple
minimum-degree elimination), and the array is only the Schur complement
``C = M_RR - M_RS M_SS^-1 M_SR`` over the other rows ``R``.  The split is
taken when it saves at least :data:`MIN_SAVED_FLOPS` of the dense
factorization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sps

# Fill nnz / (m n) from which A keeps a dense copy.  Per iteration an
# engine assembles once and applies A and A^T a few (pd) to a few dozen
# (primal PCG) times; with one BLAS thread, one assembly plus 10 to 30
# product pairs is cheaper dense from a fill of about 0.05 (m = 1500,
# n = 3300) or 0.03 (m = 280, n = 630) upward.  0.1 leaves a margin.
DENSE_FILL = 0.1

# dpotrf flops, (m^3 - |R|^3) / 3, that eliminating the rows S must save
# before a sparse A splits.  The split costs a few ms of sparse work per
# assembly (slicing M, the product W W^T, the scatter into C).  With one
# BLAS thread, on sparse_wide's family (4 nonzeros per column, n = 2.2 m)
# with the split at m = 600, 800, 1000, 1200 and 1500, assembly plus
# factorization plus 3 solves breaks even at 7e7 to 9e7 saved flops: the
# split is 18% slower at m 600 (3e7 saved) and 27% faster at m 1500
# (4.7e8 saved).
MIN_SAVED_FLOPS = 1e8


def _on_arrays(kind, shape, data, indices, indptr):
    """A scipy matrix of ``kind`` (csc or csr) whose arrays are the given
    canonical ones, not copies.

    scipy's constructor would copy int64 index arrays to int32; set after
    construction they stay int64, which its kernels accept.  The matrix
    is marked canonical, as the arrays are: scipy neither scans them for
    it nor sorts or sums them in place.
    """
    mat = kind(shape)
    mat.data, mat.indices, mat.indptr = data, indices, indptr
    mat.has_canonical_format = True
    return mat


@dataclass(frozen=True)
class SparseMatrix:
    """Immutable CSC matrix of 64-bit floats.

    Canonical form is enforced on construction: ``col_ptr`` is
    nondecreasing with ``col_ptr[0] == 0`` and ``col_ptr[-1] == nnz``,
    row indices are strictly increasing within each column, and no
    explicit zeros are stored.
    """

    nrows: int
    ncols: int
    col_ptr: np.ndarray
    row_idx: np.ndarray
    values: np.ndarray
    _csc: sps.csc_matrix = field(init=False, repr=False, compare=False)
    _csc_T: sps.csr_matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        col_ptr = np.ascontiguousarray(self.col_ptr, dtype=np.int64)
        row_idx = np.ascontiguousarray(self.row_idx, dtype=np.int64)
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if col_ptr.shape != (self.ncols + 1,):
            raise ValueError("col_ptr must have length ncols + 1")
        if col_ptr[0] != 0 or col_ptr[-1] != row_idx.size:
            raise ValueError("col_ptr endpoints do not match nnz")
        if np.any(np.diff(col_ptr) < 0):
            raise ValueError("col_ptr must be nondecreasing")
        if row_idx.size != values.size:
            raise ValueError("row_idx and values length mismatch")
        if row_idx.size:
            if row_idx.min() < 0 or row_idx.max() >= self.nrows:
                raise ValueError("row index out of range")
            # strictly increasing rows within each column (vectorized:
            # adjacent pairs that do not straddle a column boundary)
            if row_idx.size > 1:
                starts = np.zeros(row_idx.size, dtype=bool)
                inner = col_ptr[1:-1]
                starts[inner[inner < row_idx.size]] = True
                within = ~starts[1:]
                if np.any((np.diff(row_idx) <= 0) & within):
                    raise ValueError("rows not strictly increasing within a column")
        if np.any(values == 0.0):
            raise ValueError("explicit zeros are not allowed after canonicalization")
        for arr in (col_ptr, row_idx, values):
            arr.flags.writeable = False
        object.__setattr__(self, "col_ptr", col_ptr)
        object.__setattr__(self, "row_idx", row_idx)
        object.__setattr__(self, "values", values)
        csc = _on_arrays(sps.csc_matrix, (self.nrows, self.ncols), values, row_idx, col_ptr)
        object.__setattr__(self, "_csc", csc)
        # the transpose as a csr view, built once
        csr_T = _on_arrays(sps.csr_matrix, (self.ncols, self.nrows), values, row_idx, col_ptr)
        object.__setattr__(self, "_csc_T", csr_T)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_scipy(mat) -> "SparseMatrix":
        csc = sps.csc_matrix(mat, dtype=np.float64, copy=True)
        return SparseMatrix._from_owned_csc(csc)

    @staticmethod
    def _from_owned_csc(csc) -> "SparseMatrix":
        """Canonicalize in place; the caller must not reuse ``csc``."""
        csc.sum_duplicates()
        csc.sort_indices()
        csc.eliminate_zeros()
        return SparseMatrix(
            csc.shape[0],
            csc.shape[1],
            csc.indptr.astype(np.int64),
            csc.indices.astype(np.int64),
            csc.data.astype(np.float64),
        )

    @staticmethod
    def from_dense(arr) -> "SparseMatrix":
        return SparseMatrix.from_scipy(sps.csc_matrix(np.asarray(arr, dtype=np.float64)))

    @staticmethod
    def from_coo(nrows, ncols, rows, cols, vals) -> "SparseMatrix":
        coo = sps.coo_matrix(
            (np.asarray(vals, dtype=np.float64), (rows, cols)), shape=(nrows, ncols)
        )
        return SparseMatrix.from_scipy(coo)

    @staticmethod
    def identity(n) -> "SparseMatrix":
        return SparseMatrix.from_scipy(sps.identity(n, format="csc"))

    # -- queries ------------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def to_scipy(self) -> sps.csc_matrix:
        return self._csc

    def to_dense(self) -> np.ndarray:
        return self._csc.toarray()

    @cached_property
    def _dense(self) -> np.ndarray | None:
        """The read-only dense copy when the fill reaches DENSE_FILL, else
        None; computed once per matrix."""
        if self.nnz < DENSE_FILL * self.nrows * self.ncols:
            return None
        dense = self._csc.toarray()
        dense.flags.writeable = False
        return dense

    @cached_property
    def _row_split(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``(S, R)``: the rows :func:`form_normal_matrix` eliminates ahead
        of the dense factor, and the other rows, both ascending.  None on
        the dense path, when ``S`` or ``R`` would be empty, or when the
        split saves fewer than ``MIN_SAVED_FLOPS``; computed once per
        matrix."""
        if self._dense is not None:
            return None
        S = disjoint_rows(self)
        m, r = self.nrows, self.nrows - S.size
        if not 0 < r < m or (m**3 - r**3) / 3 < MIN_SAVED_FLOPS:
            return None
        keep = np.ones(m, dtype=bool)
        keep[S] = False
        return S, np.flatnonzero(keep)

    def matvec(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        dense = self._dense
        return self._csc.dot(v) if dense is None else dense @ v

    def rmatvec(self, v) -> np.ndarray:
        """Transpose product ``A.T @ v``."""
        v = np.asarray(v, dtype=np.float64)
        dense = self._dense
        return self._csc_T.dot(v) if dense is None else dense.T @ v

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix.from_scipy(self._csc.T)


def disjoint_rows(A: SparseMatrix) -> np.ndarray:
    """Ascending indices of rows of ``A`` whose column supports are
    pairwise disjoint, chosen greedily: rows with fewer entries first, ties
    to the lower index, and a row joins when it shares no column with a
    row already chosen.  Empty rows are never chosen: their pivot in
    ``A D^2 A^T`` is zero."""
    rows = A._csc.tocsr()
    ptr, cols = rows.indptr, rows.indices
    counts = np.diff(ptr)
    order = np.argsort(counts, kind="stable")
    taken = np.zeros(A.ncols, dtype=bool)
    chosen = []
    for i in order[counts[order] > 0].tolist():
        support = cols[ptr[i]:ptr[i + 1]]
        if not taken[support].any():
            taken[support] = True
            chosen.append(i)
    return np.sort(np.array(chosen, dtype=np.int64))


class EliminatedRows(NamedTuple):
    """The blocks of a symmetric ``M`` that the elimination of the rows
    ``S`` ahead of the dense factor needs: ``d_S`` the diagonal
    ``M_SS``, and the sparse ``M_RS`` and ``M_RR`` over the other rows
    ``R``."""

    S: np.ndarray
    R: np.ndarray
    d_S: np.ndarray
    M_RS: sps.csr_matrix
    M_RR: sps.csr_matrix

    @classmethod
    def of(cls, M: sps.csr_matrix, S: np.ndarray, R: np.ndarray) -> "EliminatedRows":
        """The blocks of ``M`` over the rows ``S`` and ``R``, sliced."""
        M_R = M[R]
        return cls(S, R, M.diagonal()[S], M_R[:, S], M_R[:, R])

    def coupling(self, sigma: float) -> tuple[np.ndarray, sps.csr_matrix]:
        """``sqrt(d_S + sigma)`` and ``W = M_RS (D_S + sigma I)^{-1/2}``,
        the eliminated block of the factor of ``M + sigma I``."""
        root = np.sqrt(self.d_S + sigma)
        M_RS = self.M_RS
        W = sps.csr_matrix((M_RS.data / root[M_RS.indices], M_RS.indices, M_RS.indptr),
                           shape=M_RS.shape)
        return root, W

    def schur_complement_into(self, out: np.ndarray, sigma: float) -> None:
        """Write ``C = M_RR + sigma I - W W^T`` into the square ``out``,
        C- or F-ordered.  Each entry of the sparse ``W W^T`` on or below
        the diagonal is subtracted at its place and at its mirror, so
        ``C`` is bitwise symmetric whatever the rounding of the product,
        and no sparse matrix the size of ``C`` is made."""
        self.M_RR.toarray(out=out)
        r = out.shape[0]
        # C is symmetric, so the row-major view of either order will do
        flat = (out if out.flags.c_contiguous else out.T).reshape(-1)
        if sigma != 0.0:
            flat[::r + 1] += sigma
        _, W = self.coupling(sigma)
        rows, cols, vals = _lower_entries(W @ W.T)
        np.subtract.at(flat, rows * r + cols, vals)
        strict = rows > cols
        np.subtract.at(flat, cols[strict] * r + rows[strict], vals[strict])


def _lower_entries(T: sps.csr_matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row and column indices (int64) and values of the entries of ``T``
    on or below the diagonal."""
    rows = np.repeat(np.arange(T.shape[0], dtype=T.indices.dtype), np.diff(T.indptr))
    lower = rows >= T.indices
    return rows[lower].astype(np.int64), T.indices[lower].astype(np.int64), T.data[lower]


class NormalMatrix:
    """Symmetric ``M = A D^2 A^T``, a one-shot operand of
    :func:`lpipm.cholesky.cholesky_factorize`.

    The matrix owns one dense array, read-only until :meth:`take_array`
    hands it over.  The factorization takes the array and overwrites it
    with the factor, so a factored matrix still reports its shape, but
    ``to_dense``, ``matvec`` and ``nnz`` raise.

    Without ``eliminated``, the array is ``M`` itself and ``to_dense``
    returns it without a copy.  With ``eliminated`` (an
    :class:`EliminatedRows`), the array is the Schur complement ``C`` of
    ``M_SS`` over the rows ``R``; ``full`` holds the whole ``M`` as a
    sparse matrix, from which ``to_dense`` builds a fresh read-only
    array and ``matvec`` and ``nnz`` work.  Either way both triangles of
    the array are bitwise equal, so the factorization needs no symmetry
    check, and ``nrows``, ``ncols`` and ``nnz`` describe the whole ``M``.
    """

    __slots__ = ("_array", "_shape", "_full", "eliminated")

    def __init__(self, array: np.ndarray, full: sps.csr_matrix | None = None,
                 eliminated: EliminatedRows | None = None):
        array.flags.writeable = False
        self._array = array
        self._full = full
        self.eliminated = eliminated
        self._shape = array.shape if full is None else full.shape

    @property
    def nrows(self) -> int:
        return self._shape[0]

    @property
    def ncols(self) -> int:
        return self._shape[1]

    @property
    def nnz(self) -> int:
        """Entries that are not zero (structural fill of ``A D^2 A^T``)."""
        array = self._entries()
        return int(np.count_nonzero(array if self._full is None else self._full.data))

    def _entries(self) -> np.ndarray:
        if self._array is None:
            raise RuntimeError("the array of this NormalMatrix was handed to a factorization")
        return self._array

    def take_array(self) -> np.ndarray:
        """Hand the array over, writeable, to a caller that overwrites it;
        this matrix keeps only its shape.  A caller that needs
        ``eliminated`` reads it first."""
        array = self._entries()
        self._array = self._full = self.eliminated = None
        array.flags.writeable = True
        return array

    def to_dense(self) -> np.ndarray:
        array = self._entries()
        if self._full is None:
            return array
        dense = self._full.toarray()
        dense.flags.writeable = False
        return dense

    def matvec(self, v) -> np.ndarray:
        array = self._entries()
        operand = array if self._full is None else self._full
        return operand @ np.asarray(v, dtype=np.float64)


def form_normal_matrix(A: SparseMatrix, d) -> NormalMatrix:
    """Assemble ``M = A @ diag(d**2) @ A.T`` for
    :func:`lpipm.cholesky.cholesky_factorize`, which overwrites the
    matrix's fresh array with the factor.

    With ``B = A diag(d)``, a dense ``A`` gives ``B B^T`` in one BLAS
    product; numpy computes a matrix times its own transpose with SYRK
    and mirrors the computed triangle, so both triangles are bitwise
    equal, and the array is the m x m ``M``.  A sparse ``A`` goes
    through scipy's sparse product; there each entry pair is replaced by
    ``(m_ij + m_ji) * 0.5``, which IEEE addition makes exactly equal on
    both sides.  When ``A`` splits its rows (``A._row_split``), the
    blocks over ``S`` and ``R`` are sliced from that one product, and the
    array is the ``|R| x |R|`` Schur complement; otherwise the product
    is densified whole.
    """
    d = np.asarray(d, dtype=np.float64)
    if d.shape != (A.ncols,):
        raise ValueError(f"scaling vector has length {d.size}, expected {A.ncols}")
    if np.any(d <= 0.0) or not np.all(np.isfinite(d)):
        raise ValueError("scaling entries must be strictly positive and finite")

    dense = A._dense
    if dense is not None:
        B = dense * d
        return NormalMatrix(B @ B.T)
    # column scaling on the raw CSC arrays avoids sparse-object churn
    col_of_entry = np.repeat(np.arange(A.ncols), np.diff(A.col_ptr))
    values = A.values * d[col_of_entry]
    B = _on_arrays(sps.csc_matrix, A.shape, values, A.row_idx, A.col_ptr)
    P = B @ _on_arrays(sps.csr_matrix, A.shape[::-1], values, A.row_idx, A.col_ptr)
    M = (P + P.T) * 0.5
    del P  # released before the dense array is made
    split = A._row_split
    if split is None:
        return NormalMatrix(M.toarray())
    M = M.tocsr()
    eliminated = EliminatedRows.of(M, *split)
    C = np.empty((eliminated.R.size, eliminated.R.size))
    eliminated.schur_complement_into(C, 0.0)
    return NormalMatrix(C, M, eliminated)
