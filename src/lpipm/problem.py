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
    """``min <c, x>  s.t.  A x = b,  0 <= x <= u`` with u possibly infinite."""

    A: SparseMatrix
    b: np.ndarray
    c: np.ndarray
    u: np.ndarray
    recovery: RecoveryMap
    row_names: tuple = ()
    col_names: tuple = ()

    def __post_init__(self):
        for name in ("b", "c", "u"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        m, n = self.A.shape
        if self.b.shape != (m,) or self.c.shape != (n,) or self.u.shape != (n,):
            raise ValueError("inconsistent standard-form dimensions")

    @property
    def nrows(self) -> int:
        return self.A.nrows

    @property
    def ncols(self) -> int:
        return self.A.ncols

    @property
    def has_finite_bounds(self) -> bool:
        return bool(np.any(np.isfinite(self.u)))

    def objective_value(self, x) -> float:
        return float(self.c @ np.asarray(x, dtype=np.float64))

    def original_objective(self, x) -> float:
        return self.recovery.original_objective(self.objective_value(x))


@dataclass
class IterateState:
    """Current primal-dual point of any engine.

    ``s`` is the reduced cost; for upper-bounded variables the bound
    slack ``w = u - x`` and its multiplier ``v`` are carried too, and the
    dual residual uses ``A^T y + s - v - c``.
    """

    x: np.ndarray
    y: np.ndarray
    s: np.ndarray
    mu: float
    w: np.ndarray | None = None
    v: np.ndarray | None = None
    r_p: np.ndarray | None = None
    r_d: np.ndarray | None = None
    r_mu: np.ndarray | None = None

    def copy(self) -> "IterateState":
        return IterateState(
            x=self.x.copy(),
            y=self.y.copy(),
            s=self.s.copy(),
            mu=self.mu,
            w=None if self.w is None else self.w.copy(),
            v=None if self.v is None else self.v.copy(),
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
    """
    sign = 1.0 if p.sense == "min" else -1.0
    row_index = {name: i for i, name in enumerate(p.row_names)}
    m_orig = len(p.row_names)

    b = np.zeros(m_orig)
    for name, val in p.rhs.items():
        b[row_index[name]] = val

    const_min = sign * p.objective_constant

    # per-original-column data in the minimization convention
    cols = []
    for name in p.col_names:
        entries = [(row_index[r], v) for r, v in p.entries[name]]
        cmin = sign * p.objective.get(name, 0.0)
        lo, up = p.bounds_of(name)
        if lo > up:
            raise ModelError(f"column {name!r} has lower bound {lo} above upper {up}")
        cols.append((name, entries, cmin, lo, up))

    std_cols = []  # (name, entries, c, u)
    rules = [None] * len(cols)
    split_queue = []

    def _fix_column(i, entries, cval, value):
        nonlocal const_min
        for r, a in entries:
            b[r] -= a * value
        const_min += cval * value
        rules[i] = ("const", value)

    for i, (name, entries, cval, lo, up) in enumerate(cols):
        if not entries:
            # empty column: pin it at its best bound or reject
            if cval > 0 or (cval == 0 and np.isfinite(lo)):
                if not np.isfinite(lo):
                    raise ModelError(f"empty column {name!r} is unbounded below")
                _fix_column(i, entries, cval, lo)
            elif cval < 0:
                if not np.isfinite(up):
                    raise ModelError(f"empty column {name!r} makes the problem unbounded")
                _fix_column(i, entries, cval, up)
            else:
                _fix_column(i, entries, cval, up if np.isfinite(up) else 0.0)
            continue
        if lo == up:
            _fix_column(i, entries, cval, lo)
        elif np.isfinite(lo):
            for r, a in entries:
                b[r] -= a * lo
            const_min += cval * lo
            idx = len(std_cols)
            std_cols.append((name, entries, cval, up - lo))
            rules[i] = ("affine", lo, ((1.0, idx),))
        elif np.isfinite(up):
            # only an upper bound: mirror through it
            for r, a in entries:
                b[r] -= a * up
            const_min += cval * up
            idx = len(std_cols)
            std_cols.append((name + "-", [(r, -a) for r, a in entries], -cval, np.inf))
            rules[i] = ("affine", up, ((-1.0, idx),))
        else:
            idx = len(std_cols)
            std_cols.append((name + "+", entries, cval, np.inf))
            split_queue.append((i, name, entries, cval, idx))
            rules[i] = None  # completed after the split column is placed

    for i, name, entries, cval, idx_plus in split_queue:
        idx_minus = len(std_cols)
        std_cols.append((name + "-", [(r, -a) for r, a in entries], -cval, np.inf))
        rules[i] = ("affine", 0.0, ((1.0, idx_plus), (-1.0, idx_minus)))

    # rows: slack columns for inequalities, RANGES as slack upper bounds
    nonempty = np.zeros(m_orig, dtype=bool)
    for _, entries, _, _ in std_cols:
        for r, _ in entries:
            nonempty[r] = True

    b_scale = 1.0 + (np.abs(b).max() if b.size else 0.0)
    keep, slack_specs = [], []
    for name in p.row_names:
        r = row_index[name]
        rtype = p.row_types[name]
        rng = p.ranges.get(name, 0.0)
        if not nonempty[r]:
            lo_r, hi_r = _row_interval(rtype, b[r], rng)
            if lo_r <= _EMPTY_ROW_TOL * b_scale and hi_r >= -_EMPTY_ROW_TOL * b_scale:
                warnings.warn(f"dropping empty row {name!r}", stacklevel=2)
                continue
            raise ModelError(f"empty row {name!r} is infeasible (rhs {b[r]})")
        keep.append(r)
        rng_given = name in p.ranges
        if rng_given and rng == 0.0:
            continue  # zero range pins the row to equality
        if rtype == "L":
            slack_specs.append((r, name, 1.0, abs(rng) if rng_given else np.inf))
        elif rtype == "G":
            slack_specs.append((r, name, -1.0, abs(rng) if rng_given else np.inf))
        elif rng_given:  # ranged equality
            if rng > 0:
                slack_specs.append((r, name, -1.0, rng))
            else:
                slack_specs.append((r, name, 1.0, -rng))

    new_row = {r: i for i, r in enumerate(keep)}
    for r, name, coef, ub in slack_specs:
        if ub != np.inf and ub <= 0.0:
            raise ModelError(f"range on row {name!r} leaves no slack room")
        std_cols.append((name + ".slack", [(r, coef)], 0.0, ub))

    m = len(keep)
    n = len(std_cols)
    if m > n:
        raise ModelError(f"conversion left more rows ({m}) than columns ({n})")

    rows_acc, cols_acc, vals_acc = [], [], []
    c = np.zeros(n)
    u = np.full(n, np.inf)
    names = []
    for j, (name, entries, cval, ub) in enumerate(std_cols):
        names.append(name)
        c[j] = cval
        u[j] = ub
        for r, a in entries:
            if r in new_row:
                rows_acc.append(new_row[r])
                cols_acc.append(j)
                vals_acc.append(a)
    A = SparseMatrix.from_coo(m, n, rows_acc, cols_acc, vals_acc)

    recovery = RecoveryMap(tuple(rules), const_min, p.sense)
    return StandardLp(
        A=A,
        b=b[keep],
        c=c,
        u=u,
        recovery=recovery,
        row_names=tuple(p.row_names[r] for r in keep),
        col_names=tuple(names),
    )


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
    finite = np.flatnonzero(np.isfinite(std.u))
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


def residuals(p: StandardLp, st: IterateState):
    """Primal, dual, and complementarity residuals.

    ``r_p = Ax - b``, ``r_d = A^T y + s - v - c`` (the ``v`` term only on
    upper-bounded variables), ``r_mu = s - mu * (X^{-1} - (U-X)^{-1}) e``
    which reduces to ``s - mu X^{-1} e`` without bounds.
    """
    x = np.asarray(st.x, dtype=np.float64)
    r_p = p.A.matvec(x) - p.b
    r_d = p.A.rmatvec(st.y) + st.s - p.c
    if p.has_finite_bounds and st.v is not None:
        r_d = r_d - st.v
    r_mu = st.s - st.mu * barrier_gradient(p, x)
    if st.v is not None:
        r_mu = r_mu - st.v
    return r_p, r_d, r_mu


def barrier_gradient(p: StandardLp, x: np.ndarray) -> np.ndarray:
    """Gradient of the negated log barrier divided by mu: X^{-1}e, with
    the upper-bound term subtracted on bounded variables."""
    grad = 1.0 / x
    if p.has_finite_bounds:
        finite = np.isfinite(p.u)
        grad[finite] -= 1.0 / (p.u[finite] - x[finite])
    return grad


def complementarity(p: StandardLp, st: IterateState) -> float:
    """Average complementarity ``(<x, s> + <w, v>) / (n + #bounded)``;
    the bound pair enters only on the coordinates with finite u."""
    total = float(st.x @ st.s)
    count = p.ncols
    if st.w is not None:
        finite = np.isfinite(p.u)
        total += float(st.w[finite] @ st.v[finite])
        count += int(finite.sum())
    return total / max(count, 1)


def dual_objective(p: StandardLp, st: IterateState) -> float:
    val = float(p.b @ st.y)
    if st.v is not None:
        finite = np.isfinite(p.u)
        val -= float(p.u[finite] @ st.v[finite])
    return val


def convergence_metrics(p: StandardLp, st: IterateState):
    """Scale-normalized primal/dual infeasibility and duality gap."""
    r_p, r_d, _ = residuals(p, st)
    e_p = float(np.linalg.norm(r_p)) / (1.0 + float(np.linalg.norm(p.b)))
    e_d = float(np.linalg.norm(r_d)) / (1.0 + float(np.linalg.norm(p.c)))
    primal = float(p.c @ st.x)
    dual = dual_objective(p, st)
    e_g = abs(primal - dual) / (1.0 + abs(primal) + abs(dual))
    return e_p, e_d, e_g
