"""Constraint-matrix storage and dense assembly of ``A D^2 A^T``.

:class:`SparseMatrix` stores ``A`` in canonical CSC form.  When ``A`` is
filled to at least :data:`DENSE_FILL`, it also keeps one read-only dense
copy of itself, built on first use, and its products and the normal
matrix run on that copy through BLAS.  Below the threshold they run
through scipy's sparse kernels.

:func:`form_normal_matrix` returns ``M = A D^2 A^T`` as a
:class:`NormalMatrix`, the one-shot input of the dense LAPACK
factorization in :mod:`lpipm.cholesky`, which factors it in its own
array.  Both paths give that array one layout, the one ``dpotrf``
reads: F-ordered, a lower triangle, and a strict upper triangle of
zeros, and :meth:`NormalMatrix.refill` rewrites it at a diagonal shift.
On the dense path it is the lower triangle of the m x m ``M``, from one
BLAS SYRK of ``B = A D``.  On the sparse path the pattern of ``M`` is
the same for every scaling ``D``, so ``A`` analyses it once, on its
first assembly, into an :class:`AssemblyPlan` (George and Liu, *Computer
Solution of Large Sparse Positive Definite Systems*, 1981), and each
assembly does numeric work only: scipy's product for the values of
``M``, and gathers into one zero-filled buffer, where every entry and
every product of a Schur update has one place: the lower triangle of
the array at its head, or a slot after the array for an entry that a
round eliminates.  The plan also orders the elimination by rounds of multiple minimum-degree
elimination (Liu, ACM TOMS 11(2), 1985), all by one rule
(:func:`_next_round`).  Each round takes an independent set ``S`` in the
pattern of the matrix the rounds before it left, ``M`` itself for the
first, fewest neighbours first, while a row's share of the Schur update
costs less than the dense work its elimination saves.
``C_SS`` is then diagonal for every ``D``, so eliminating ``S`` is an
exact Cholesky step with no fill inside ``S``; on ``M`` an independent
set is a set of rows of ``A`` whose column supports are pairwise
disjoint.  A round is taken when it saves at least
:data:`MIN_SAVED_FLOPS` of the dense factorization net of its gathers,
at :data:`PAIR_FLOPS` flops a gather.  The array is only the Schur
complement over the rows ``R`` that no round takes, and each level of
the factor keeps its coupling block in one pattern, read as ``W`` (CSC)
and as ``W^T`` (CSR).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sps
from scipy.linalg.blas import dsyrk

# Fill nnz / (m n) from which A keeps a dense copy.  Per iteration an
# engine assembles once and applies A and A^T a few (pd) to a few dozen
# (primal PCG) times; with one BLAS thread, one assembly plus 10 to 30
# product pairs is cheaper dense from a fill of about 0.05 (m = 1500,
# n = 3300) or 0.03 (m = 280, n = 630) upward.  0.1 leaves a margin.
DENSE_FILL = 0.1

# dpotrf flops, (r^3 - |R|^3) / 3 from an order r down to |R|, that a
# round of elimination must save net of its gathers (PAIR_FLOPS each)
# before it is taken; the first round, on M itself, by the same rule as
# every later one.  A level of elimination costs sparse work per assembly
# and per solve (the Schur update, the coupling block W).  With one BLAS
# thread, on sparse_wide's family (4 nonzeros per column, n = 2.2 m),
# interleaved medians of assembly plus factorization plus k solves, with
# a first round of row-disjoint rows against without it (flops saved
# before its gathers): at m 400 (8.7e6 flops saved) +6.5%
# at k = 3; at m 500 (1.7e7) -7.6% at k = 3 and +2.0% at k = 16; at m 600
# (3.0e7) -10% and -3%; at m 700 (4.8e7) -19% and -14%; at m 1500 (4.7e8)
# -36%.  A later round, forced at m 800, 1000 and 1200 (1.4e7, 2.7e7 and
# 7.3e7 flops saved, 1.2e7 net of its gathers at m 1000), read -0.4%,
# -4.3% and -10% at k = 3 and +4%, 0% and -8% at k = 16.  So a level breaks
# even near 1.2e7 for pd (about 3 solves per factorization) and 2e7 for
# the primal engine (about 16 per refresh).  Before the plan made the
# Schur update gathers (when each assembly sliced M and formed W W^T in
# scipy) the first round broke even at 7e7 to 9e7.  The 600 x 1320 LP of
# the memory and face tests (seed 7) has a first round that saves 1.92e7
# net, so it takes none.
MIN_SAVED_FLOPS = 2e7

# dpotrf flops that one gather of a Schur update is priced at: a row
# joins a round only while its gathers cost less than the dense flops its
# elimination saves (see _next_round).  On the first
# sparse_wide instance (m 1500, one BLAS thread) the second round's update
# takes 7.2 ns a gather (74k gathers, 70k of them pairs) and dpotrf 17.5 ps
# a flop between orders 1250 and 1136: about 400.  With the protocol of
# MIN_SAVED_FLOPS there (k = 3, 31 scalings, two runs), 350, 500, 700, 1000
# and 1400 took 109, 106, 100, 92 and 73 rows and read -12.9%, -12.4%,
# -11.3%, -11.6% and -7.8%.  700 is kept: the rows that 400 would add
# bring a fifth more pairs and 0.1 to 0.2 MB more plan for about 1% of a
# refresh.
PAIR_FLOPS = 700.0


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
        """The read-only, F-ordered dense copy when the fill reaches
        DENSE_FILL, else None; computed once per matrix."""
        if self.nnz < DENSE_FILL * self.nrows * self.ncols:
            return None
        dense = self._csc.toarray(order="F")
        dense.flags.writeable = False
        return dense

    @cached_property
    def _plan(self) -> "AssemblyPlan | None":
        """The :class:`AssemblyPlan` of ``A D^2 A^T``, or None on the dense
        path; built on the first assembly, not with the matrix, and kept
        for every later one."""
        if self._dense is not None:
            return None
        return AssemblyPlan(self)

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


# Entries of a coupling block whose pairs of the Schur update an assembly
# multiplies and sums at a time.  All of a round's products at once held
# 16 bytes a pair beside the array (62k to 81k pairs in the second round
# on sparse_wide): over 3 rounds of the benchmark's 9 solves, forked as
# it forks them, their peak RSS read 0.2 to 0.3 MB above the chunked
# fill's on average (seeds 1 and 4).  From 512 entries up the fill takes
# no longer.
_ENTRIES = 1024


def _next_round(pattern: np.ndarray, r: int) -> np.ndarray:
    """Ascending rows that the next round eliminates from the order-``r``
    matrix with this symmetric boolean pattern, which holds its entries
    between the rows not yet eliminated; empty when no round pays.

    Rows with a diagonal entry are taken greedily, fewest neighbours
    first, ties to the lower index, when no neighbour of theirs was taken:
    an independent set, so the round's pivots are diagonal entries and it
    makes no fill among its own rows.  A row with ``g`` neighbours adds
    ``g (g + 1) / 2`` pairs to the Schur update, and ``g + 1`` entries to
    gather (its coupling entries and pivot), and takes about ``q^2``
    flops off ``dpotrf``, ``q`` the order it leaves behind; it joins while
    those ``(g + 1) (g + 2) / 2`` gathers cost less than that at
    :data:`PAIR_FLOPS` flops each, and the round is taken when the flops
    it saves, less those of its gathers, reach :data:`MIN_SAVED_FLOPS`.
    At least one row stays.
    """
    rows = np.flatnonzero(pattern.diagonal())
    degree = pattern.sum(axis=1, dtype=np.int32)[rows] - 1
    order = np.argsort(degree, kind="stable")
    blocked = np.zeros(pattern.shape[0], dtype=bool)
    taken, gathers, left = [], 0, r
    for v, g in zip(rows[order].tolist(), degree[order].tolist()):
        cost = (g + 1) * (g + 2) // 2
        if left == 1 or PAIR_FLOPS * cost >= left * left:
            break
        if not blocked[v]:
            blocked |= pattern[v]
            taken.append(v)
            gathers += cost
            left -= 1
    if not taken or (r**3 - left**3) / 3 - PAIR_FLOPS * gathers < MIN_SAVED_FLOPS:
        return np.empty(0, dtype=np.int64)
    return np.sort(np.array(taken, dtype=np.int64))


def _pairs(t_ptr: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(per, pair_b)``: the pairs of the Schur update of a coupling block
    whose transpose has the CSR pattern ``t_ptr`` (rows ``s``).

    Per row of the pattern, every pair ``(a, b)`` of its entries with
    ``b`` at or before ``a``: pairs come in ascending rows, the order in
    which scipy's product would sum them, and in ascending ``a``, each
    entry ``a`` in ``per[a]`` of them; pair ``k`` has ``b = pair_b[k]``.
    """
    first = t_ptr[s]
    per = np.arange(s.size, dtype=first.dtype) - first + 1
    ends = np.cumsum(per)
    n = int(ends[-1]) if ends.size else 0
    ptype = _index_dtype(n)
    pair_b = np.repeat((first + per - ends).astype(ptype), per)
    pair_b += np.arange(n, dtype=ptype)
    return per, pair_b


def _index_dtype(bound: int):
    """int32 when it holds ``bound``, else int64."""
    return np.int32 if bound <= np.iinfo(np.int32).max else np.int64


def _starts(counts: np.ndarray) -> np.ndarray:
    """The index pointer of a compressed pattern with these row counts."""
    ptr = np.zeros(counts.size + 1, dtype=_index_dtype(int(counts.sum())))
    np.cumsum(counts, out=ptr[1:])
    return ptr


class Level(NamedTuple):
    """One level of the factor: the rows ``S`` eliminated ahead of the
    rows ``R`` that the next level, or the dense factor, takes.  Both are
    positions among the rows the level before kept (the rows of ``M``
    for the first level).  ``root`` holds the square roots of the pivots
    of ``S`` and ``W`` (``|R| x |S|``) the coupling block: the entries of
    ``C_RS diag(root)^-1`` for the matrix ``C`` that the level eliminates
    from.  ``W`` is CSC and its transpose ``W_T`` CSR on the same three
    arrays, one pattern and one array of values."""

    S: np.ndarray
    R: np.ndarray
    root: np.ndarray
    W: sps.csc_matrix
    W_T: sps.csr_matrix


class _Round(NamedTuple):
    """The symbolic part of one :class:`Level` in an :class:`AssemblyPlan`.

    The round's slots in the plan's buffer hold the entries that it
    eliminates: its pivots, the diagonal entries of ``S``, from place
    ``start`` on, and then the entries of ``C_RS``, ordered by their row
    of ``S`` (``s``) and then by their row of ``R``: the CSR order of
    ``W^T`` (``|S| x |R|``, pattern ``t_ptr``, ``t_cols``), which is also
    the CSC order of ``W``.  The pairs of the Schur update, ``W_is W_js``
    with ``i >= j``, come entry by entry of ``W^T``: those with ``(i, s)``
    entry ``a`` are ``pair_ptr[a]`` up to ``pair_ptr[a + 1]``; pair ``k``
    has ``(j, s)`` entry ``pair_b[k]`` of ``W^T``, and it lands in
    destination ``pair_dest[k]``, whose place in the buffer is
    ``to[pair_dest[k]]``: in the array, or in the slot of an entry that a
    later round eliminates."""

    S: np.ndarray
    R: np.ndarray
    start: int
    s: np.ndarray
    t_ptr: np.ndarray
    t_cols: np.ndarray
    pair_ptr: np.ndarray
    pair_b: np.ndarray
    pair_dest: np.ndarray
    to: np.ndarray


class AssemblyPlan:
    """The symbolic analysis of ``M = A D^2 A^T`` on a sparse ``A``: its
    pattern is the same for every positive scaling ``D``, so it is
    analysed once per matrix and each assembly does numeric work only.

    Rounds of elimination take rows ahead of the dense factor, each an
    independent set in the pattern the rounds before left, ``M``'s own
    for the first (:func:`_next_round`), while one pays.  The other rows,
    ``R``, form the dense factor.  The values of ``M`` come from scipy's product
    ``B B^T`` with ``B = A D``; only the entries on and below its diagonal
    are read.  An assembly writes into one flat buffer of ``size``
    entries: its head is the F-ordered ``|R| x |R|`` array that the
    factorization takes, and a slot follows it for every entry that a
    round eliminates.  Every write has one place in the buffer: ``_dest``
    gives each entry of ``M``'s lower triangle its place, in the lower
    triangle of the array or in a slot, and each round gives each
    destination of its Schur update its place.  Per round the plan holds
    the fixed pattern of its coupling block and the gather lists of its
    Schur update, one pair of coupling entries per ``(i >= j, s)``.  Its
    memory is O(nnz(M) + those pairs).
    """

    __slots__ = ("R", "size", "_shape", "_values", "_row_idx", "_col_ptr",
                 "_col_of_entry", "_indptr", "_lower_src", "_lower_rows", "_diag_idx",
                 "_diag_rows", "_dest", "_rounds")

    def __init__(self, A: SparseMatrix):
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
        """Pick the rounds for the product with this CSC pattern, and
        record where each entry on or below its diagonal goes."""
        m = self._shape[0]
        itype = _index_dtype(max(indices.size, m))
        cols = np.repeat(np.arange(m, dtype=itype), np.diff(indptr))
        src = np.flatnonzero(indices >= cols).astype(itype)
        rows, cols = indices[src].astype(itype), cols[src]
        self._indptr, self._lower_src, self._lower_rows = indptr, src, rows
        diag = np.flatnonzero(rows == cols).astype(itype)
        self._diag_idx, self._diag_rows = diag, rows[diag]

        # each round works on the pattern of the matrix the rounds before
        # it left, between the rows not yet eliminated
        pattern = np.zeros((m, m), dtype=bool)
        pattern[rows, cols] = pattern[cols, rows] = True
        gtype = _index_dtype(m * m)
        kept = np.arange(m)  # the rows no round has taken
        rounds, keys = [], []
        while (S := _next_round(pattern, kept.size)).size:
            coupled = pattern[S]
            coupled[np.arange(S.size), S] = False
            s, g = np.nonzero(coupled)
            pattern[S] = False
            pattern[:, S] = False
            s, g = s.astype(itype), g.astype(gtype)
            S_pos = np.searchsorted(kept, S)
            keep = np.ones(kept.size, dtype=bool)
            keep[S_pos] = False
            R_pos = np.flatnonzero(keep)
            kept = kept[R_pos]
            t_ptr = _starts(np.bincount(s, minlength=S.size))
            rounds.append((S_pos, R_pos, s, t_ptr, np.searchsorted(kept, g).astype(itype), g))
            # the keys of its slots, its pivots and then its entries of
            # C_RS, are their places j m + i, i >= j
            e = S[s]
            keys += [S * (m + 1), np.minimum(e, g) * m + np.maximum(e, g)]
            # the round's fill, where its pairs' products land; each work
            # array goes once it is spent: the heap that the analysis's
            # peak leaves behind stays resident under the solve
            per, pair_b = _pairs(t_ptr, s)
            i, j = np.repeat(g, per), g[pair_b]
            del per, pair_b
            pattern[i, j] = pattern[j, i] = True
            del i, j
        del pattern

        # the buffer: the r x r array, then the slots, numbered round by
        # round as their keys were listed
        self.R = kept
        r = kept.size
        keys = np.concatenate(keys + [np.empty(0, dtype=np.int64)])
        order = np.argsort(keys)
        keys = keys[order]
        self.size = r * r + keys.size
        dtype = _index_dtype(self.size)
        order = order.astype(dtype) + r * r
        final = np.full(m, -1, dtype=dtype)
        final[kept] = np.arange(r, dtype=dtype)

        def place(row, col):
            # the places of the entries (row, col), row >= col, in the buffer
            fr, fc = final[row], final[col]
            to = fr + fc * r
            gone = (fr < 0) | (fc < 0)
            to[gone] = order[np.searchsorted(keys, col[gone].astype(np.int64) * m + row[gone])]
            return to

        self._dest = place(rows, cols)

        def record(S_pos, R_pos, s, t_ptr, t_cols, g, start):
            # the pairs' destinations, distinct and ascending as g[b] m +
            # g[a], the order of their places in a column-major array
            per, pair_b = _pairs(t_ptr, s)
            places = g[pair_b] * m  # g's type holds m^2
            places += np.repeat(g, per)
            dests, pair_dest = np.unique(places, return_inverse=True)
            del places
            col, row = np.divmod(dests, m)
            return _Round(S_pos, R_pos, start, s, t_ptr, t_cols, _starts(per), pair_b,
                          pair_dest.astype(_index_dtype(dests.size)), place(row, col))

        self._rounds = ()
        start = r * r
        for rd in rounds:
            rd = record(*rd, start)
            self._rounds += (rd,)
            start += rd.S.size + rd.s.size

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

    def fill(self, buf: np.ndarray, lower: np.ndarray, sigma: float) -> tuple[Level, ...] | None:
        """Write the lower triangle of the Schur complement ``C(sigma)`` of
        ``M + sigma I`` over the rows ``R`` into the head of the zero-filled
        buffer ``buf`` of :attr:`size` entries, the F-ordered ``|R| x |R|``
        array, and return the eliminated levels of the factor at
        ``sigma``; without eliminated rows ``C(sigma)`` is ``M + sigma I``
        and there are no levels.  The strict upper triangle stays zero.  A
        pivot that is not positive is not divided by: the buffer is left
        incomplete and None returned."""
        buf[self._dest] = lower
        r = self.R.size
        if sigma != 0.0:
            buf[:r * r:r + 1] += sigma
        levels = []
        for rd in self._rounds:
            entries = rd.start + rd.S.size
            pivots = buf[rd.start:entries] + sigma
            if not np.all(pivots > 0.0):
                return None
            root = np.sqrt(pivots)
            w_t = buf[entries:entries + rd.s.size] / root[rd.s]
            # each destination sums its products from zero in pair order, as
            # scipy's W W^T would, and its entry then drops by the sum
            update = np.zeros(rd.to.size)
            for e in range(0, w_t.size, _ENTRIES):
                ptr = rd.pair_ptr[e:e + _ENTRIES + 1]
                products = np.repeat(w_t[e:e + _ENTRIES], np.diff(ptr))
                products *= w_t[rd.pair_b[ptr[0]:ptr[-1]]]
                np.add.at(update, rd.pair_dest[ptr[0]:ptr[-1]], products)
            np.subtract.at(buf, rd.to, update)
            shape = (rd.R.size, rd.S.size)
            levels.append(Level(
                rd.S, rd.R, root, _on_arrays(sps.csc_matrix, shape, w_t, rd.t_cols, rd.t_ptr),
                _on_arrays(sps.csr_matrix, shape[::-1], w_t, rd.t_cols, rd.t_ptr),
            ))
        return tuple(levels)

    def nnz(self, lower: np.ndarray) -> int:
        """Entries of ``M`` that are not zero, from its lower triangle."""
        return 2 * int(np.count_nonzero(lower)) - int(np.count_nonzero(lower[self._diag_idx]))


class NormalMatrix:
    """Symmetric ``M = A D^2 A^T`` as :func:`form_normal_matrix` assembles
    it, the one-shot operand of :func:`lpipm.cholesky.cholesky_factorize`.

    The matrix owns one array in the layout LAPACK's ``dpotrf`` reads:
    F-ordered, the lower triangle of ``M``, or of the Schur complement
    ``C`` over the rows ``R`` when the plan's rounds eliminate the others,
    and a strict upper triangle of zeros.  On a sparse ``A`` it is the
    head of the plan's buffer ``buf``.  ``levels`` are the eliminated
    levels of the factor (:meth:`AssemblyPlan.fill`), ``()`` without
    any, or None when one of their pivots is not positive; ``diag_max``
    is the largest ``|M_ii|`` over the whole ``M``.

    The array is read-only until :meth:`take_array` hands it over to be
    overwritten with the factor, and :meth:`refill` then rewrites it at
    a shift: from ``B = A D`` on a dense ``A``, and on a sparse one from
    ``plan`` and ``lower``, the values on and below the diagonal of
    ``M`` in the plan's order, into the whole buffer.  ``nrows`` and
    ``nnz`` describe the whole ``M``; ``nnz`` raises once the array is
    handed over.
    """

    __slots__ = ("_array", "_taken", "_B", "_buf", "plan", "lower", "levels", "diag_max",
                 "nrows")

    def __init__(self, array: np.ndarray, B: np.ndarray | None = None,
                 plan: AssemblyPlan | None = None, buf: np.ndarray | None = None,
                 lower: np.ndarray | None = None, levels: tuple[Level, ...] | None = ()):
        array.flags.writeable = False
        self._array, self._taken, self._B, self._buf = array, False, B, buf
        self.plan, self.lower, self.levels = plan, lower, levels
        diag = np.diagonal(array) if plan is None else plan.diagonal(lower)
        self.diag_max = float(np.abs(diag).max(initial=0.0))
        self.nrows = array.shape[0] if plan is None else plan._shape[0]

    def _fresh(self) -> np.ndarray:
        if self._taken:
            raise RuntimeError("the array of this NormalMatrix was handed to a factorization")
        return self._array

    @property
    def nnz(self) -> int:
        """Entries of ``M`` that are not zero, from its lower triangle."""
        a = self._fresh()
        if self.plan is not None:
            return self.plan.nnz(self.lower)
        return 2 * int(np.count_nonzero(a)) - int(np.count_nonzero(np.diagonal(a)))

    def take_array(self) -> np.ndarray:
        """Hand the array over, writeable, to a caller that overwrites it."""
        a = self._fresh()
        self._taken = True
        a.flags.writeable = True
        return a

    def refill(self, sigma: float) -> tuple[Level, ...] | None:
        """Rewrite the array handed over with the lower triangle of ``M +
        sigma I``, or of its Schur complement ``C(sigma)``, and return the
        levels at ``sigma``: None when one of their pivots is not
        positive.  The strict upper triangle stays zero."""
        if self.plan is not None:
            self._buf.fill(0.0)  # the Schur updates' fill entries start at zero
            return self.plan.fill(self._buf, self.lower, sigma)
        a = self._array
        dsyrk(1.0, self._B, beta=0.0, c=a, lower=1, overwrite_c=1)
        a.reshape(-1, order="F")[::a.shape[0] + 1] += sigma
        return ()


def form_normal_matrix(A: SparseMatrix, d) -> NormalMatrix:
    """Assemble ``M = A @ diag(d**2) @ A.T`` for
    :func:`lpipm.cholesky.cholesky_factorize`, which overwrites the
    matrix's fresh array with the factor.

    A dense ``A`` gives the lower triangle of ``B B^T``, ``B = A
    diag(d)``, in one BLAS SYRK, which leaves the strict upper triangle
    zero; ``B`` is F-ordered, as ``A``'s dense copy is, so SYRK reads it
    without a copy, and the matrix keeps it for :meth:`NormalMatrix.refill`.
    A sparse ``A`` assembles from its :class:`AssemblyPlan`, analysed on
    the first assembly: scipy's sparse product gives the values of
    ``M``, and gathers place those on and below the diagonal into the
    plan's zero-filled buffer, less the Schur updates of its rounds of
    elimination; the matrix's array is the buffer's ``|R| x |R|`` head.
    """
    d = np.asarray(d, dtype=np.float64)
    if d.shape != (A.ncols,):
        raise ValueError(f"scaling vector has length {d.size}, expected {A.ncols}")
    if np.any(d <= 0.0) or not np.all(np.isfinite(d)):
        raise ValueError("scaling entries must be strictly positive and finite")

    dense = A._dense
    if dense is not None:
        B = dense * d
        return NormalMatrix(dsyrk(1.0, B, lower=1), B)
    plan, lower = A._plan.lower_values(d)
    r = plan.R.size
    buf = np.zeros(plan.size)
    levels = plan.fill(buf, lower, 0.0)
    return NormalMatrix(buf[:r * r].reshape((r, r), order="F"), plan=plan, buf=buf,
                        lower=lower, levels=levels)
