"""Standard-form conversion, dualization, residuals, and metrics."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps

from .errors import ModelError
from .mps import LpProblem
from .sparse import SparseMatrix

_EMPTY_ROW_TOL = 1e-9


@dataclass(frozen=True)
class RecoveryMap:
    """Affine rules mapping a standard-form point back to the original
    variables, plus the bookkeeping needed to undo the objective
    transformations.

    Each rule is ``('const', value)`` or ``('affine', shift, terms)``
    with ``terms`` a tuple of ``(coef, std_index)`` pairs (two terms for
    split free variables, one otherwise).
    """

    rules: tuple
    objective_constant: float
    sense: str  # sense of the original problem

    def apply(self, x_std) -> np.ndarray:
        x_std = np.asarray(x_std, dtype=np.float64)
        out = np.empty(len(self.rules))
        for i, rule in enumerate(self.rules):
            if rule[0] == "const":
                out[i] = rule[1]
            else:
                _, shift, terms = rule
                out[i] = shift + sum(coef * x_std[idx] for coef, idx in terms)
        return out

    def original_objective(self, min_objective_value) -> float:
        val = min_objective_value + self.objective_constant
        return val if self.sense == "min" else -val


@dataclass(frozen=True)
class StandardLp:
    """``min <c, x>  s.t.  A x = b,  0 <= x <= u`` with u possibly infinite;
    ``bounded`` holds the indices of the finite entries of u, read-only."""

    A: SparseMatrix
    b: np.ndarray
    c: np.ndarray
    u: np.ndarray
    recovery: RecoveryMap
    row_names: tuple = ()
    col_names: tuple = ()
    bounded: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        for name in ("b", "c", "u"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        m, n = self.A.shape
        if self.b.shape != (m,) or self.c.shape != (n,) or self.u.shape != (n,):
            raise ValueError("inconsistent standard-form dimensions")
        bounded = np.flatnonzero(np.isfinite(self.u))
        bounded.flags.writeable = False
        object.__setattr__(self, "bounded", bounded)

    @property
    def nrows(self) -> int:
        return self.A.nrows

    @property
    def ncols(self) -> int:
        return self.A.ncols

    def objective_value(self, x) -> float:
        return float(self.c @ np.asarray(x, dtype=np.float64))

    def original_objective(self, x) -> float:
        return self.recovery.original_objective(self.objective_value(x))


@dataclass
class IterateState:
    """Current primal-dual point of any engine, and a complete start.

    ``s`` is the reduced cost, and the dual residual is
    ``A^T y + s - v - c``.  The bound slack ``w = u - x`` and its
    multiplier ``v`` are length-n arrays, zero where u is infinite, so
    an unbounded problem runs the bounded path with an empty bounded set
    and its start carries ``w = v = 0``.  ``mu`` is the barrier
    parameter; on a start handed to the primal engine it is the first
    target.
    """

    x: np.ndarray
    y: np.ndarray
    s: np.ndarray
    mu: float
    w: np.ndarray
    v: np.ndarray

    def copy(self) -> "IterateState":
        return IterateState(
            x=self.x.copy(),
            y=self.y.copy(),
            s=self.s.copy(),
            mu=self.mu,
            w=self.w.copy(),
            v=self.v.copy(),
        )


# ---------------------------------------------------------------------------
# standard-form conversion
# ---------------------------------------------------------------------------


def to_standard_form(p: LpProblem) -> StandardLp:
    """Convert a parsed LP into ``min <c,x> s.t. Ax = b, 0 <= x <= u``.

    Inequality rows get slack columns (with finite slack bounds encoding
    RANGES), finite lower bounds are shifted to zero, free variables are
    split, upper-bound-only variables are mirrored, and fixed variables
    are eliminated.  Column order is deterministic: original columns,
    then split negative parts, then slacks in row order.

    The standard-form ``A`` is built in one pass over the arrays of
    ``p.A``, so set-up holds one more copy of ``A``, not a chain of them.
    """
    m_orig, n_orig = p.nrows, p.ncols
    if p.A.shape != (m_orig, n_orig):
        raise ModelError(
            f"coefficient matrix is {p.A.nrows}x{p.A.ncols}, expected {m_orig}x{n_orig}"
        )
    sign = 1.0 if p.sense == "min" else -1.0
    row_index = {name: i for i, name in enumerate(p.row_names)}
    b = np.zeros(m_orig)
    for name, val in p.rhs.items():
        b[row_index[name]] = val

    # per-original-column data in the minimization convention
    cmin = sign * np.array([p.objective.get(name, 0.0) for name in p.col_names])
    bounds = np.array([p.bounds_of(name) for name in p.col_names], dtype=np.float64)
    lo, up = bounds.reshape(n_orig, 2).T
    crossed = np.flatnonzero(lo > up)
    if crossed.size:
        j = crossed[0]
        raise ModelError(
            f"column {p.col_names[j]!r} has lower bound {lo[j]} above upper {up[j]}"
        )

    # column kinds, in the order the rules are tried
    empty = np.diff(p.A.col_ptr) == 0
    fixed = ~empty & (lo == up)
    kept = ~empty & ~fixed
    lower = kept & np.isfinite(lo)
    mirror = kept & ~lower & np.isfinite(up)
    free = kept & ~lower & ~mirror

    # the value each column is shifted by (fixed columns: their value)
    shift = np.where(lower | fixed, lo, 0.0)
    shift[mirror] = up[mirror]
    for j in np.flatnonzero(empty).tolist():
        # empty column: pin it at its best bound or reject
        name, cval = p.col_names[j], cmin[j]
        if cval > 0 or (cval == 0 and np.isfinite(lo[j])):
            if not np.isfinite(lo[j]):
                raise ModelError(f"empty column {name!r} is unbounded below")
            shift[j] = lo[j]
        elif cval < 0:
            if not np.isfinite(up[j]):
                raise ModelError(f"empty column {name!r} makes the problem unbounded")
            shift[j] = up[j]
        else:
            shift[j] = up[j] if np.isfinite(up[j]) else 0.0
    shifted = np.flatnonzero(shift)
    if shifted.size:
        b -= p.A.to_scipy()[:, shifted] @ shift[shifted]
    const_min = sign * p.objective_constant + float(cmin[shifted] @ shift[shifted])

    # standard columns: kept originals (mirrored ones negated), then the
    # negative halves of the free ones
    first = np.flatnonzero(kept)
    split = np.flatnonzero(free)
    source = np.concatenate([first, split])
    col_sign = np.concatenate([np.where(mirror[first], -1.0, 1.0), -np.ones(split.size)])
    std_index = np.cumsum(kept) - 1
    minus_index = first.size + np.cumsum(free) - 1
    rules, names, minus_names = [], [], []
    for j, name in enumerate(p.col_names):
        idx = int(std_index[j])
        if not kept[j]:
            rules.append(("const", float(shift[j])))
        elif lower[j]:
            rules.append(("affine", float(lo[j]), ((1.0, idx),)))
            names.append(name)
        elif mirror[j]:
            rules.append(("affine", float(up[j]), ((-1.0, idx),)))
            names.append(name + "-")
        else:
            rules.append(("affine", 0.0, ((1.0, idx), (-1.0, int(minus_index[j])))))
            names.append(name + "+")
            minus_names.append(name + "-")
    names += minus_names

    # rows: slack columns for inequalities, RANGES as slack upper bounds
    in_kept = p.A.row_idx[np.repeat(kept, np.diff(p.A.col_ptr))]
    nonempty = np.bincount(in_kept, minlength=m_orig) > 0
    del in_kept  # nnz long: freed before the copy of A is built
    b_scale = 1.0 + (np.abs(b).max() if b.size else 0.0)
    for r in np.flatnonzero(~nonempty).tolist():
        name = p.row_names[r]
        lo_r, hi_r = _row_interval(p.row_types[name], b[r], p.ranges.get(name, 0.0))
        if lo_r <= _EMPTY_ROW_TOL * b_scale and hi_r >= -_EMPTY_ROW_TOL * b_scale:
            warnings.warn(f"dropping empty row {name!r}", stacklevel=2)
            continue
        raise ModelError(f"empty row {name!r} is infeasible (rhs {b[r]})")
    keep = np.flatnonzero(nonempty)
    m = keep.size

    rtype = np.array([p.row_types[name] for name in p.row_names], dtype="<U1")
    ranged = np.array([name in p.ranges for name in p.row_names], dtype=bool)
    rng = np.array([p.ranges.get(name, 0.0) for name in p.row_names], dtype=np.float64)
    # a zero range pins the row to equality; an E row with a range
    # reaches above its rhs for a positive range, below it otherwise
    slacked = nonempty & ~(ranged & (rng == 0.0)) & ((rtype != "E") | ranged)
    slack_rows = np.flatnonzero(slacked)
    slack_coef = np.where(
        (rtype == "G") | ((rtype == "E") & (rng > 0)), -1.0, 1.0
    )[slack_rows]
    slack_u = np.where(ranged, np.abs(rng), np.inf)[slack_rows]
    names += [p.row_names[r] + ".slack" for r in slack_rows.tolist()]

    n = source.size + slack_rows.size
    if m > n:
        raise ModelError(f"conversion left more rows ({m}) than columns ({n})")
    A = _standard_matrix(p.A, kept, mirror, free, slack_rows, slack_coef, nonempty)
    c = np.concatenate([cmin[source] * col_sign, np.zeros(slack_rows.size)])
    u = np.concatenate([np.where(lower, up - lo, np.inf)[source], slack_u])

    recovery = RecoveryMap(tuple(rules), const_min, p.sense)
    return StandardLp(
        A=A,
        b=b[keep],
        c=c,
        u=u,
        recovery=recovery,
        row_names=tuple(p.row_names[r] for r in keep.tolist()),
        col_names=tuple(names),
    )


def _standard_matrix(A, kept, mirror, free, slack_rows, slack_coef, nonempty) -> SparseMatrix:
    """The standard-form matrix in one pass over the arrays of ``A``.

    Its columns are the ``kept`` columns of ``A``, the ``mirror`` ones
    among them negated, then the ``free`` ones negated, then one slack
    column per entry of ``slack_rows``; its rows are the ``nonempty``
    rows of ``A``.  Rows stay in order within each column, so the arrays
    are canonical as built and are copied once.
    """
    per_col = np.diff(A.col_ptr)
    counts = np.concatenate([per_col[kept], per_col[free], np.ones(slack_rows.size, np.int64)])
    col_ptr = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=col_ptr[1:])
    row_idx = np.empty(col_ptr[-1], dtype=np.int64)
    values = np.empty(col_ptr[-1], dtype=np.float64)
    at = 0
    for cols, negate in ((kept, np.repeat(mirror[kept], per_col[kept])), (free, True)):
        take = np.repeat(cols, per_col)
        part = slice(at, at + np.count_nonzero(take))
        np.compress(take, A.row_idx, out=row_idx[part])
        np.compress(take, A.values, out=values[part])
        np.negative(values[part], out=values[part], where=negate)
        at = part.stop
    row_idx[at:] = slack_rows
    values[at:] = slack_coef
    if not nonempty.all():
        row_idx = (np.cumsum(nonempty) - 1)[row_idx]
    return SparseMatrix(int(np.count_nonzero(nonempty)), counts.size, col_ptr, row_idx, values)


def _row_interval(rtype, rhs, rng):
    if rtype == "E":
        if rng == 0.0:
            return rhs, rhs
        return (rhs, rhs + rng) if rng > 0 else (rhs + rng, rhs)
    if rtype == "L":
        return (rhs - abs(rng) if rng else -np.inf), rhs
    return rhs, (rhs + abs(rng) if rng else np.inf)


# ---------------------------------------------------------------------------
# symmetric form and dualization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetricLp:
    """Inequality-form problem whose dual has the same shape.

    ``sense == 'min'`` reads ``min <c,x> s.t. Ax >= b, x >= 0``;
    ``sense == 'max'`` reads ``max <c,x> s.t. Ax <= b, x >= 0``.
    """

    A: SparseMatrix
    b: np.ndarray
    c: np.ndarray
    sense: str = "min"

    def __post_init__(self):
        for name in ("b", "c"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.b.shape != (self.A.nrows,) or self.c.shape != (self.A.ncols,):
            raise ValueError("inconsistent symmetric-form dimensions")
        if self.sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")


def dualize(p: SymmetricLp) -> SymmetricLp:
    """Swap to the dual problem: transpose A, exchange b and c, flip the
    sense flag.  Applying it twice recovers the original data bitwise."""
    return SymmetricLp(
        A=p.A.transpose(),
        b=p.c,
        c=p.b,
        sense="max" if p.sense == "min" else "min",
    )


def to_symmetric_form(std: StandardLp) -> SymmetricLp:
    """Re-express a standard-form LP as ``min <c,x> s.t. Ax >= b, x >= 0``
    by writing each equality as two inequalities and each finite upper
    bound as a row. Optimal values coincide with the standard form."""
    A = std.A.to_scipy()
    blocks = [A, -A]
    rhs = [std.b, -std.b]
    finite = std.bounded
    if finite.size:
        E = sps.coo_matrix(
            (-np.ones(finite.size), (np.arange(finite.size), finite)),
            shape=(finite.size, std.ncols),
        )
        blocks.append(E)
        rhs.append(-std.u[finite])
    A_sym = sps.vstack(blocks, format="csc")
    return SymmetricLp(
        A=SparseMatrix.from_scipy(A_sym),
        b=np.concatenate(rhs),
        c=std.c.copy(),
        sense="min",
    )


def symmetric_to_standard(p: SymmetricLp) -> StandardLp:
    """Attach inequality slacks so either symmetric orientation becomes
    ``min`` standard form. For a ``max`` problem the objective is negated
    and the recovery map undoes the negation."""
    m, n = p.A.shape
    slack_sign = -1.0 if p.sense == "min" else 1.0
    A_std = sps.hstack(
        [p.A.to_scipy(), slack_sign * sps.identity(m, format="csc")], format="csc"
    )
    c_std = np.concatenate([p.c if p.sense == "min" else -p.c, np.zeros(m)])
    rules = tuple(("affine", 0.0, ((1.0, j),)) for j in range(n))
    recovery = RecoveryMap(rules, 0.0, p.sense)
    return StandardLp(
        A=SparseMatrix.from_scipy(A_std),
        b=p.b.copy(),
        c=c_std,
        u=np.full(n + m, np.inf),
        recovery=recovery,
        col_names=tuple(f"x{j}" for j in range(n)) + tuple(f"w{i}" for i in range(m)),
    )


# ---------------------------------------------------------------------------
# residuals and convergence metrics
# ---------------------------------------------------------------------------


def feasibility_residuals(p: StandardLp, st: IterateState):
    """``r_p = Ax - b`` and ``r_d = A^T y + s - v - c``."""
    r_p = p.A.matvec(np.asarray(st.x, dtype=np.float64)) - p.b
    r_d = p.A.rmatvec(st.y) + st.s - p.c - st.v
    return r_p, r_d


def barrier_gradient(p: StandardLp, x: np.ndarray) -> np.ndarray:
    """Gradient of the negated log barrier divided by mu: X^{-1}e, with
    the upper-bound term subtracted on bounded variables."""
    grad = 1.0 / x
    fi = p.bounded
    grad[fi] -= 1.0 / (p.u[fi] - x[fi])
    return grad


def complementarity(p: StandardLp, st: IterateState) -> float:
    """Average complementarity ``(<x, s> + <w, v>) / (n + #bounded)``;
    the bound pair enters only on the coordinates with finite u."""
    total = float(st.x @ st.s) + float(st.w[p.bounded] @ st.v[p.bounded])
    return total / max(p.ncols + p.bounded.size, 1)


def dual_objective(p: StandardLp, st: IterateState) -> float:
    return float(p.b @ st.y) - float(p.u[p.bounded] @ st.v[p.bounded])


def convergence_metrics(p: StandardLp, st: IterateState):
    """Scale-normalized primal/dual infeasibility and duality gap."""
    r_p, r_d = feasibility_residuals(p, st)
    e_p = float(np.linalg.norm(r_p)) / (1.0 + float(np.linalg.norm(p.b)))
    e_d = float(np.linalg.norm(r_d)) / (1.0 + float(np.linalg.norm(p.c)))
    primal = float(p.c @ st.x)
    dual = dual_objective(p, st)
    e_g = abs(primal - dual) / (1.0 + abs(primal) + abs(dual))
    return e_p, e_d, e_g
