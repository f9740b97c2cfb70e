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
sparse path the pattern of ``M`` is the same for every scaling ``D``, so
``A`` analyses it once, on its first assembly, into an
:class:`AssemblyPlan` (George and Liu, *Computer Solution of Large
Sparse Positive Definite Systems*, 1981), and each assembly does numeric
work only: scipy's product for the values of ``M``, and gathers into a
zero-filled array of which only the lower triangle, the one LAPACK
reads, is written.  The plan also picks a set ``S`` of rows whose
column supports are pairwise disjoint (:func:`disjoint_rows`).  Then
``M_SS`` is diagonal for every ``D``, so eliminating ``S`` first is an
exact Cholesky step with no fill inside ``S`` (one step of multiple
minimum-degree elimination), and the array is only the Schur complement
``C = M_RR - M_RS M_SS^-1 M_SR`` over the other rows ``R``.  The split is
taken when it saves at least :data:`MIN_SAVED_FLOPS` of the dense
factorization.
"""

from __future__ import annotations

import copy
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
# before a sparse A splits.  The split costs sparse work per assembly and
# solve (the Schur update, the coupling block W).  With one BLAS thread,
# on sparse_wide's family (4 nonzeros per column, n = 2.2 m) with the
# split at m = 600, 800, 1000, 1200 and 1500, assembly plus factorization
# plus 3 solves broke even at 7e7 to 9e7 saved flops when each assembly
# sliced M and formed W W^T in scipy: the split was 18% slower at m 600
# (3e7 saved) and 27% faster at m 1500 (4.7e8 saved).  The plan's
# gathers make the Schur update cheaper, so the break-even may now lie
# lower; it has not been measured again.
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
    def _plan(self) -> "AssemblyPlan | None":
        """The :class:`AssemblyPlan` of ``A D^2 A^T``, or None on the dense
        path; built on the first assembly, not with the matrix, and kept
        for every later one."""
        if self._dense is not None:
            return None
        S = disjoint_rows(self)
        m, r = self.nrows, self.nrows - S.size
        if not 0 < r < m or (m**3 - r**3) / 3 < MIN_SAVED_FLOPS:
            S = np.empty(0, dtype=np.int64)
        return AssemblyPlan(self, S)

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


def _index_dtype(bound: int):
    """int32 when it holds ``bound``, else int64."""
    return np.int32 if bound <= np.iinfo(np.int32).max else np.int64


def _starts(counts: np.ndarray) -> np.ndarray:
    """The index pointer of a compressed pattern with these row counts."""
    ptr = np.zeros(counts.size + 1, dtype=_index_dtype(int(counts.sum())))
    np.cumsum(counts, out=ptr[1:])
    return ptr


class _Elimination(NamedTuple):
    """The part of an :class:`AssemblyPlan` that eliminates the rows ``S``.

    ``entries`` are the positions, in the plan's lower-triangle values, of
    the entries of ``M_RS``, ordered by their row of ``S`` (``s``) and
    then by their row of ``R``: the CSR order of ``W^T`` (``|S| x |R|``,
    pattern ``t_ptr``, ``t_cols``).  ``w_order`` reorders them into the
    CSR order of ``W`` (pattern ``w_ptr``, ``w_cols``).  Pair ``k`` of the
    Schur update is ``W_is W_js`` with ``(i, s)`` entry ``pair_a[k]`` and
    ``(j, s)`` entry ``pair_b[k]`` of ``W^T``, ``i >= j``; it lands in
    slot ``pair_slot[k]``, whose place in the F-ordered array is
    ``slot_dest``."""

    entries: np.ndarray
    s: np.ndarray
    t_ptr: np.ndarray
    t_cols: np.ndarray
    w_order: np.ndarray
    w_ptr: np.ndarray
    w_cols: np.ndarray
    pair_a: np.ndarray
    pair_b: np.ndarray
    pair_slot: np.ndarray
    slot_dest: np.ndarray


class AssemblyPlan:
    """The symbolic analysis of ``M = A D^2 A^T`` on a sparse ``A``: its
    pattern is the same for every positive scaling ``D``, so it is
    analysed once per matrix and each assembly does numeric work only.

    The rows of ``M`` split into ``S``, eliminated ahead of the dense
    factor (empty when that does not pay), and the other rows ``R``.  The
    values of ``M`` come from scipy's product ``B B^T`` with ``B = A D``;
    only the entries on and below its diagonal are read, and the plan
    records where each one goes: an entry of ``M_RR`` to its place in the
    lower triangle of the F-ordered ``|R| x |R|`` array that the
    factorization takes, an entry of ``M_RS`` to the coupling block ``W``
    of the factor, whose CSR patterns (of ``W`` and ``W^T``) are fixed
    here, and a diagonal entry to the diagonal of ``M``.  It also holds the gather lists of the
    Schur update ``sum_s M_is M_js / (M_ss + sigma)``, one pair of
    entries of ``M_RS`` per ``(i >= j, s)``.  Its memory is O(nnz(M) +
    those pairs).
    """

    __slots__ = ("S", "R", "_shape", "_values", "_row_idx", "_col_ptr", "_col_of_entry",
                 "_indptr", "_lower_src", "_lower_rows", "_diag_idx", "_diag_rows",
                 "_rr", "_rr_dest", "_elimination")

    def __init__(self, A: SparseMatrix, S: np.ndarray):
        keep = np.ones(A.nrows, dtype=bool)
        keep[S] = False
        self.S, self.R = S, np.flatnonzero(keep)
        self._shape, self._values = A.shape, A.values
        # int32 operands keep scipy's product in int32: int64 ones make it
        # build int64 indices and then an int32 copy, which on a 640k-entry
        # M raised the peak of an assembly by 5.6 MB
        itype = _index_dtype(max(A.nrows, A.ncols, A.nnz))
        self._row_idx = A.row_idx.astype(itype)
        self._col_ptr = A.col_ptr.astype(itype)
        self._col_of_entry = np.repeat(np.arange(A.ncols, dtype=itype), np.diff(A.col_ptr))
        # with every value positive no entry of the product cancels, so
        # this is the pattern of every scaling; its values go before the
        # analysis starts
        P = self._product(np.ones(A.nnz))
        indptr, indices = P.indptr, P.indices
        del P
        self._analyse(indptr, indices)

    def _product(self, values: np.ndarray) -> sps.csc_matrix:
        """``B B^T`` for the ``B`` of ``A``'s pattern with these values."""
        B = _on_arrays(sps.csc_matrix, self._shape, values, self._row_idx, self._col_ptr)
        return B @ _on_arrays(sps.csr_matrix, self._shape[::-1], values, self._row_idx,
                              self._col_ptr)

    def _analyse(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        """Record where each entry on or below the diagonal of the product
        with this CSC pattern goes."""
        m, S, R = self._shape[0], self.S, self.R
        r = R.size
        itype = _index_dtype(max(indices.size, m))
        cols = np.repeat(np.arange(m, dtype=itype), np.diff(indptr))
        src = np.flatnonzero(indices >= cols).astype(itype)
        rows, cols = indices[src].astype(itype), cols[src]
        self._indptr, self._lower_src, self._lower_rows = indptr, src, rows
        diag = np.flatnonzero(rows == cols).astype(itype)
        self._diag_idx, self._diag_rows = diag, rows[diag]
        dtype = _index_dtype(r * r)
        pos = np.full(m, -1, dtype=dtype)
        pos[R] = np.arange(r, dtype=dtype)
        pr, pc = pos[rows], pos[cols]
        if S.size == 0:
            self._rr, self._rr_dest, self._elimination = None, pr + pc * r, None
            return
        in_r, in_c = pr >= 0, pc >= 0
        rr = np.flatnonzero(in_r & in_c).astype(itype)
        self._rr, self._rr_dest = rr, pr[rr] + pc[rr] * r

        # an entry of M_RS sits below the diagonal as (i, s) or as (s, i)
        coupled = np.flatnonzero(in_r != in_c)
        row_in_r = in_r[coupled]
        i_R = np.where(row_in_r, pr[coupled], pc[coupled])
        s_pos = np.full(m, -1, dtype=itype)
        s_pos[S] = np.arange(S.size, dtype=itype)
        s = s_pos[np.where(row_in_r, cols[coupled], rows[coupled])]
        order = np.lexsort((i_R, s))
        entries, t_cols, s = coupled[order].astype(itype), i_R[order], s[order]
        t_ptr = _starts(np.bincount(s, minlength=S.size))
        w_order = np.argsort(t_cols, kind="stable").astype(itype)

        # per row of W^T, every pair (a, b) with b at or before a: the row
        # is ascending in R, so (t_cols[a], t_cols[b]) is on or below the
        # diagonal; pairs come in ascending s, the order in which scipy's
        # W W^T would sum them
        first = t_ptr[s]
        per = np.arange(entries.size) - first + 1
        pair_a = np.repeat(np.arange(entries.size, dtype=itype), per)
        block = np.repeat(np.cumsum(per) - per, per)
        pair_b = (np.repeat(first, per) + (np.arange(pair_a.size) - block)).astype(itype)
        slot_dest, pair_slot = np.unique(t_cols[pair_a] + t_cols[pair_b] * r,
                                         return_inverse=True)
        self._elimination = _Elimination(
            entries, s, t_ptr, t_cols, w_order, _starts(np.bincount(t_cols, minlength=r)),
            s[w_order], pair_a, pair_b, pair_slot.astype(_index_dtype(slot_dest.size)),
            slot_dest,
        )

    def lower_values(self, d: np.ndarray) -> tuple["AssemblyPlan", np.ndarray]:
        """The values on and below the diagonal of ``A diag(d^2) A^T`` in
        plan order, and the plan they follow: this one, or one analysed
        afresh for this product when its pattern differs (scipy drops an
        entry that cancels to zero)."""
        P = self._product(self._values * d[self._col_of_entry])
        plan = self
        if not (np.array_equal(P.indptr, self._indptr)
                and np.array_equal(P.indices[self._lower_src], self._lower_rows)):
            plan = copy.copy(self)
            plan._analyse(P.indptr, P.indices)
        return plan, P.data[plan._lower_src]

    def diagonal(self, lower: np.ndarray) -> np.ndarray:
        """The diagonal of ``M`` from its lower-triangle values."""
        diag = np.zeros(self._shape[0])
        diag[self._diag_rows] = lower[self._diag_idx]
        return diag

    def fill(self, out: np.ndarray, lower: np.ndarray, sigma: float) -> None:
        """Write the lower triangle of ``C(sigma) = M_RR + sigma I - W W^T``
        into the zero-filled, F-ordered ``|R| x |R|`` array ``out``, with
        ``W`` the coupling block at ``sigma``; without eliminated rows
        that is ``M + sigma I``.  The strict upper triangle stays zero."""
        if not out.flags.f_contiguous:
            raise ValueError("the array must be F-ordered")
        r = out.shape[0]
        flat = out.reshape(-1, order="F")  # a view, so the writes land in out
        flat[self._rr_dest] = lower if self._rr is None else lower[self._rr]
        if sigma != 0.0:
            flat[::r + 1] += sigma
        e = self._elimination
        if e is not None:
            _, w_t = self._scaled_coupling(lower, sigma)
            flat[e.slot_dest] -= np.bincount(e.pair_slot, w_t[e.pair_a] * w_t[e.pair_b],
                                             minlength=e.slot_dest.size)

    def _scaled_coupling(self, lower, sigma) -> tuple[np.ndarray, np.ndarray]:
        """``root_S = sqrt(d_S + sigma)`` and the values of ``W^T``."""
        e = self._elimination
        root = np.sqrt(self.diagonal(lower)[self.S] + sigma)
        return root, lower[e.entries] / root[e.s]

    def coupling(self, lower, sigma) -> tuple[np.ndarray, sps.csr_matrix, sps.csr_matrix]:
        """``(root_S, W, W^T)``: the eliminated block of the factor of ``M +
        sigma I``, ``W = M_RS (D_S + sigma I)^{-1/2}``, with ``W`` and
        ``W^T`` in CSR on the plan's fixed patterns."""
        e = self._elimination
        root, w_t = self._scaled_coupling(lower, sigma)
        r, k = self.R.size, self.S.size
        W_T = _on_arrays(sps.csr_matrix, (k, r), w_t, e.t_cols, e.t_ptr)
        W = _on_arrays(sps.csr_matrix, (r, k), w_t[e.w_order], e.w_cols, e.w_ptr)
        return root, W, W_T

    def nnz(self, lower: np.ndarray) -> int:
        """Entries of ``M`` that are not zero, from its lower triangle."""
        return 2 * int(np.count_nonzero(lower)) - int(np.count_nonzero(lower[self._diag_idx]))

    def whole(self, lower: np.ndarray) -> sps.csr_matrix:
        """The whole ``M`` from its lower triangle, mirrored, so both
        triangles are bitwise equal."""
        rows = self._lower_rows
        cols = np.searchsorted(self._indptr, self._lower_src, side="right") - 1
        strict = rows != cols
        coo = sps.coo_matrix(
            (np.concatenate((lower, lower[strict])),
             (np.concatenate((rows, cols[strict])), np.concatenate((cols, rows[strict])))),
            shape=(self._shape[0],) * 2,
        )
        return coo.tocsr()


class NormalMatrix:
    """Symmetric ``M = A D^2 A^T``, a one-shot operand of
    :func:`lpipm.cholesky.cholesky_factorize`.

    The matrix owns one dense array, read-only until :meth:`take_array`
    hands it over.  The factorization takes the array and overwrites it
    with the factor, so a factored matrix still reports its shape, but
    ``to_dense``, ``matvec`` and ``nnz`` raise.

    Without a ``plan`` (the dense path), the array is ``M`` itself with
    both triangles bitwise equal, and ``to_dense`` returns it without a
    copy.  With one (a sparse ``A``), ``lower`` holds the values on and
    below the diagonal of ``M`` in the plan's order, and the array is the
    lower triangle of the Schur complement ``C`` of ``M_SS`` over the
    rows ``R`` (of ``M`` itself when no row is eliminated), its strict
    upper triangle zero; ``to_dense`` and ``matvec`` build the whole
    ``M`` from ``lower`` on first use.  Either way ``nrows``, ``ncols``
    and ``nnz`` describe the whole ``M``.
    """

    __slots__ = ("_array", "_shape", "plan", "lower", "_whole")

    def __init__(self, array: np.ndarray, plan: AssemblyPlan | None = None,
                 lower: np.ndarray | None = None):
        array.flags.writeable = False
        self._array = array
        self.plan, self.lower = plan, lower
        self._whole = None
        self._shape = array.shape if plan is None else (plan.S.size + plan.R.size,) * 2

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
        return int(np.count_nonzero(array)) if self.plan is None else self.plan.nnz(self.lower)

    def _entries(self) -> np.ndarray:
        if self._array is None:
            raise RuntimeError("the array of this NormalMatrix was handed to a factorization")
        return self._array

    def _operand(self):
        """The whole ``M``: the array, or the sparse matrix built from
        ``lower`` once."""
        array = self._entries()
        if self.plan is None:
            return array
        if self._whole is None:
            self._whole = self.plan.whole(self.lower)
        return self._whole

    def take_array(self) -> np.ndarray:
        """Hand the array over, writeable, to a caller that overwrites it;
        this matrix keeps only its shape.  A caller that needs ``plan`` and
        ``lower`` reads them first."""
        array = self._entries()
        self._array = self.plan = self.lower = self._whole = None
        array.flags.writeable = True
        return array

    def to_dense(self) -> np.ndarray:
        operand = self._operand()
        if self.plan is None:
            return operand
        dense = operand.toarray()
        dense.flags.writeable = False
        return dense

    def matvec(self, v) -> np.ndarray:
        return self._operand() @ np.asarray(v, dtype=np.float64)


def form_normal_matrix(A: SparseMatrix, d) -> NormalMatrix:
    """Assemble ``M = A @ diag(d**2) @ A.T`` for
    :func:`lpipm.cholesky.cholesky_factorize`, which overwrites the
    matrix's fresh array with the factor.

    With ``B = A diag(d)``, a dense ``A`` gives ``B B^T`` in one BLAS
    product; numpy computes a matrix times its own transpose with SYRK
    and mirrors the computed triangle, so both triangles are bitwise
    equal, and the array is the m x m ``M``.  A sparse ``A`` assembles
    from its :class:`AssemblyPlan`, analysed on the first assembly:
    scipy's sparse product gives the values of ``M``, and gathers place
    those on and below the diagonal into a zero-filled ``|R| x |R|``
    array, less the Schur update of the eliminated rows ``S``.
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
    plan, lower = A._plan.lower_values(d)
    r = plan.R.size
    array = np.zeros((r, r), order="F")
    plan.fill(array, lower, 0.0)
    return NormalMatrix(array, plan, lower)
