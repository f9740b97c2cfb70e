import warnings

import numpy as np
import pytest
import scipy.sparse as sps
from numpy.testing import assert_allclose, assert_array_equal

from lpipm import (
    IterateState,
    LpProblem,
    ModelError,
    SparseMatrix,
    SymmetricLp,
    convergence_metrics,
    dualize,
    parse_mps,
    symmetric_to_standard,
    to_standard_form,
    to_symmetric_form,
)
from lpipm.problem import feasibility_residuals
from conftest import boxed_ranged_instance, standard_lp_from_dense

TEMPLATE = """NAME T
ROWS
 N  COST
{rows}COLUMNS
{cols}RHS
{rhs}{extra}ENDATA
"""


def build(rows, cols, rhs, extra=""):
    return parse_mps(TEMPLATE.format(rows=rows, cols=cols, rhs=rhs, extra=extra))


class TestToStandardForm:
    def test_already_standard(self):
        p = build(" E  R1\n", "    X1  COST  1.0  R1  1.0\n    X2  R1  1.0\n",
                  "    RHS  R1  2.0\n")
        std = to_standard_form(p)
        assert_array_equal(std.A.to_dense(), [[1.0, 1.0]])
        assert_array_equal(std.b, [2.0])
        assert_array_equal(std.c, [1.0, 0.0])
        assert np.all(np.isposinf(std.u))

    def test_inequality_gets_slack(self):
        p = build(" L  R1\n", "    X1  COST  -1.0  R1  1.0\n    X2  R1  1.0\n",
                  "    RHS  R1  3.0\n")
        std = to_standard_form(p)
        assert_array_equal(std.A.to_dense(), [[1.0, 1.0, 1.0]])
        assert_array_equal(std.b, [3.0])
        assert_array_equal(std.c, [-1.0, 0.0, 0.0])

    def test_shifted_lower_and_upper(self):
        p = build(" E  R1\n", "    X1  COST  1.0  R1  1.0\n    X2  R1  1.0\n",
                  "    RHS  R1  6.0\n",
                  "BOUNDS\n LO BND  X1  1.0\n UP BND  X1  4.0\nENDATA\n".replace("ENDATA\n", ""))
        std = to_standard_form(p)
        assert_array_equal(std.b, [5.0])     # b - A l
        assert std.u[0] == 3.0               # u - l
        x_std = np.array([2.0, 3.0])
        x_orig = std.recovery.apply(x_std)
        assert x_orig[0] == 3.0              # shift added back

    def test_free_variable_split(self):
        p = build(" E  R1\n", "    X1  COST  1.0  R1  1.0\n    X2  R1  1.0\n",
                  "    RHS  R1  2.0\n", "BOUNDS\n FR BND  X2\n")
        std = to_standard_form(p)
        assert std.ncols == 3  # X1, X2+, X2-
        x_orig = std.recovery.apply(np.array([1.0, 0.25, 1.5]))
        assert x_orig[1] == 0.25 - 1.5

    def test_fixed_variable_eliminated(self):
        p = build(" E  R1\n", "    X1  COST  2.0  R1  1.0\n    X2  R1  1.0\n",
                  "    RHS  R1  5.0\n", "BOUNDS\n FX BND  X1  2.0\n")
        std = to_standard_form(p)
        assert std.ncols == 1
        assert_array_equal(std.b, [3.0])
        assert std.recovery.apply(np.array([3.0]))[0] == 2.0
        # objective constant carries the eliminated contribution
        assert std.original_objective(np.array([3.0])) == 4.0

    def test_maximization_negated(self):
        p = build(" L  R1\n", "    X1  COST  1.0  R1  1.0\n", "    RHS  R1  2.0\n")
        p.sense = "max"
        std = to_standard_form(p)
        assert std.c[0] == -1.0
        assert std.original_objective(np.array([2.0, 0.0])) == 2.0

    def test_empty_row_dropped_with_warning(self):
        p = build(" E  R1\n E  R2\n",
                  "    X1  COST  1.0  R1  1.0\n    X2  R1  1.0\n",
                  "    RHS  R1  2.0\n")
        with pytest.warns(UserWarning, match="empty row"):
            std = to_standard_form(p)
        assert std.nrows == 1

    def test_infeasible_empty_row_raises(self):
        p = build(" E  R1\n E  R2\n",
                  "    X1  COST  1.0  R1  1.0\n    X2  R1  1.0\n",
                  "    RHS  R1  2.0\n    RHS  R2  1.0\n")
        with pytest.raises(ModelError):
            to_standard_form(p)

    def test_bad_bound_pair(self):
        p = build(" E  R1\n", "    X1  COST  1.0  R1  1.0\n", "    RHS  R1  2.0\n")
        p.lower["X1"] = 3.0
        p.upper["X1"] = 1.0
        with pytest.raises(ModelError):
            to_standard_form(p)

    def test_range_becomes_bounded_slack(self):
        p = build(" L  R1\n", "    X1  COST  1.0  R1  1.0\n", "    RHS  R1  3.0\n",
                  "RANGES\n    RNG  R1  1.0\n")
        std = to_standard_form(p)
        assert std.ncols == 2
        assert std.u[1] == 1.0  # slack range

    def test_bounded_set_is_computed_once_and_read_only(self):
        # an upper-bounded column, a free one and a ranged row's slack
        p = build(" L  R1\n", "    X1  COST  1.0  R1  1.0\n    X2  R1  1.0\n",
                  "    RHS  R1  3.0\n",
                  "RANGES\n    RNG  R1  1.0\nBOUNDS\n UP BND  X1  4.0\n FR BND  X2\n")
        std = to_standard_form(p)
        assert_array_equal(std.bounded, np.flatnonzero(np.isfinite(std.u)))
        assert std.bounded.size == 2
        assert not std.bounded.flags.writeable
        with pytest.raises(ValueError):
            std.bounded[0] = 0

    def test_unbounded_problem_has_empty_bounded_set(self):
        std = standard_lp_from_dense([[1.0, 1.0]], [2.0], [1.0, 0.0])
        assert std.bounded.size == 0
        assert_array_equal(std.bounded, np.flatnonzero(np.isfinite(std.u)))
        assert not std.bounded.flags.writeable

    def test_zero_range_pins_row_without_slack(self):
        p = build(" L  R1\n", "    X1  COST  1.0  R1  1.0\n", "    RHS  R1  3.0\n",
                  "RANGES\n    RNG  R1  0.0\n")
        std = to_standard_form(p)
        assert std.col_names == ("X1",)
        assert_array_equal(std.b, [3.0])

    def test_round_trip_feasibility(self):
        rng = np.random.default_rng(13)
        for trial in range(10):
            m, n = 4, 7
            A = rng.standard_normal((m, n))
            x0 = rng.uniform(0.5, 2.0, n)
            b = A @ x0
            p = build(
                "".join(f" E  R{i+1}\n" for i in range(m)),
                "".join(
                    f"    X{j+1}  COST  {rng.standard_normal():.17g}  "
                    + "  ".join(f"R{i+1}  {A[i, j]:.17g}" for i in range(m)) + "\n"
                    for j in range(n)
                ),
                "".join(f"    RHS  R{i+1}  {b[i]:.17g}\n" for i in range(m)),
                "BOUNDS\n LO BND  X1  0.2\n FR BND  X2\n",
            )
            std = to_standard_form(p)
            # any standard-form feasible point must recover to a feasible point
            xs = _feasible_point(std, rng)
            x_orig = std.recovery.apply(xs)
            scale = 1e-9 * (1.0 + np.abs(b).max())
            for i in range(m):
                lhs = sum(A[i, j] * x_orig[j] for j in range(n))
                assert abs(lhs - b[i]) <= scale

    def test_more_rows_than_columns_rejected(self):
        p = build(" E  R1\n E  R2\n",
                  "    X1  COST  1.0  R1  1.0  R2  1.0\n",
                  "    RHS  R1  1.0\n    RHS  R2  1.0\n")
        with pytest.raises(ModelError):
            to_standard_form(p)


def _random_lp(seed):
    """A small LP over every row type, signed RANGES and every kind of
    column bound, feasible at a random point inside its bounds."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(2, 5)), int(rng.integers(4, 8))
    A = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.7)
    A[rng.integers(m, size=n), np.arange(n)] += 1.0  # no empty column
    A[np.arange(m), rng.integers(n, size=m)] += 1.0  # no empty row
    lower, upper, x0 = {}, {}, np.empty(n)
    cols = [f"X{j}" for j in range(n)]
    for j, name in enumerate(cols):
        kind = rng.choice(["plain", "lower", "box", "fixed", "free", "upper_only"])
        lo, up = {
            "plain": (0.0, np.inf), "lower": (-1.5, np.inf), "box": (-1.0, 2.0),
            "fixed": (0.5, 0.5), "free": (-np.inf, np.inf), "upper_only": (-np.inf, 1.5),
        }[kind]
        lower[name], upper[name] = lo, up
        x0[j] = lo if lo == up else np.clip(rng.uniform(-1.0, 1.0), lo, up)
    rows = [f"R{i}" for i in range(m)]
    types = {name: str(rng.choice(["E", "L", "G"])) for name in rows}
    activity = A @ x0
    rhs, ranges = {}, {}
    for i, name in enumerate(rows):
        width = float(rng.choice([0.0, 0.0, 1.0, -1.0, 0.0])) * rng.uniform(0.5, 2.0)
        if width != 0.0 or rng.random() < 0.2:
            ranges[name] = width
        slack = rng.uniform(0.0, 0.5) * abs(width) if width else rng.uniform(0.0, 0.5)
        rhs[name] = float({
            # activity inside the row's interval (MPS RANGES semantics)
            "E": activity[i] - np.sign(width) * slack if width else activity[i],
            "L": activity[i] + slack,
            "G": activity[i] - slack,
        }[types[name]])
    objective = {name: float(v) for name, v in zip(cols, rng.standard_normal(n))}
    return LpProblem(
        name="R", sense=str(rng.choice(["min", "max"])), row_names=rows, row_types=types,
        objective_name="COST", col_names=cols, A=SparseMatrix.from_dense(A),
        objective=objective, rhs=rhs, ranges=ranges, lower=lower, upper=upper,
        objective_constant=float(rng.standard_normal()),
    )


def _row_bounds(p):
    """Row activity intervals of an LpProblem, from the MPS definition
    of RANGES: |R| widens an L or G row away from its rhs, the sign of R
    picks the side for an E row."""
    lo, hi = [], []
    for name in p.row_names:
        b, r, t = p.rhs.get(name, 0.0), p.ranges.get(name, 0.0), p.row_types[name]
        if t == "E":
            lo.append(b + min(r, 0.0)), hi.append(b + max(r, 0.0))
        elif t == "L":
            lo.append(b - abs(r) if name in p.ranges else -np.inf), hi.append(b)
        else:
            lo.append(b), hi.append(b + abs(r) if name in p.ranges else np.inf)
    return np.array(lo), np.array(hi)


@pytest.mark.parametrize("seed", range(30))
def test_standard_form_keeps_optimum_and_feasibility(seed):
    """HiGHS on the original LP and on its standard form must agree on
    status and objective, and the recovered point must be feasible."""
    from scipy.optimize import linprog

    p = _random_lp(seed)
    A = p.A.to_dense()
    sign = 1.0 if p.sense == "min" else -1.0
    c = sign * np.array([p.objective[name] for name in p.col_names])
    lo, hi = _row_bounds(p)
    bounded_above, bounded_below = np.isfinite(hi), np.isfinite(lo)
    ref = linprog(
        c,
        A_ub=np.vstack([A[bounded_above], -A[bounded_below]]),
        b_ub=np.concatenate([hi[bounded_above], -lo[bounded_below]]),
        bounds=[p.bounds_of(name) for name in p.col_names],
        method="highs",
    )
    std = to_standard_form(p)
    got = linprog(
        std.c, A_eq=std.A.to_dense(), b_eq=std.b,
        bounds=[(0.0, None if np.isinf(u) else u) for u in std.u], method="highs",
    )
    assert got.status == ref.status
    if ref.status != 0:
        return
    expected = sign * ref.fun + p.objective_constant
    assert std.original_objective(got.x) == pytest.approx(expected, rel=1e-7, abs=1e-7)
    x = std.recovery.apply(got.x)
    tol = 1e-7 * (1.0 + np.abs(A).sum(axis=1) * np.abs(x).max())
    assert np.all(A @ x >= lo - tol) and np.all(A @ x <= hi + tol)
    bounds = np.array([p.bounds_of(name) for name in p.col_names])
    assert np.all(x >= bounds[:, 0] - 1e-7) and np.all(x <= bounds[:, 1] + 1e-7)


def _standard_arrays_by_scipy(p):
    """``A``, ``b``, ``c`` and ``u`` of the standard form, built the way
    scipy builds it: the columns selected and signed, the slack columns
    stacked beside them, the empty rows cut, then canonicalized."""
    n_orig = p.ncols
    sign = 1.0 if p.sense == "min" else -1.0
    b = np.array([p.rhs.get(name, 0.0) for name in p.row_names])
    cmin = sign * np.array([p.objective.get(name, 0.0) for name in p.col_names])
    lo, up = np.array([p.bounds_of(name) for name in p.col_names]).reshape(n_orig, 2).T
    empty = np.diff(p.A.col_ptr) == 0
    fixed = ~empty & (lo == up)
    kept = ~empty & ~fixed
    lower = kept & np.isfinite(lo)
    mirror = kept & ~lower & np.isfinite(up)
    free = kept & ~lower & ~mirror
    shift = np.where(lower | fixed, lo, 0.0)
    shift[mirror] = up[mirror]
    shifted = np.flatnonzero(shift)
    if shifted.size:
        b -= p.A.to_scipy()[:, shifted] @ shift[shifted]
    first, split = np.flatnonzero(kept), np.flatnonzero(free)
    source = np.concatenate([first, split])
    col_sign = np.concatenate([np.where(mirror[first], -1.0, 1.0), -np.ones(split.size)])
    B = sps.csc_matrix(p.A.to_dense())[:, source]
    B.data *= np.repeat(col_sign, np.diff(B.indptr))
    nonempty = np.bincount(B.indices, minlength=p.nrows) > 0
    rtype = np.array([p.row_types[name] for name in p.row_names], dtype="<U1")
    ranged = np.array([name in p.ranges for name in p.row_names], dtype=bool)
    rng = np.array([p.ranges.get(name, 0.0) for name in p.row_names])
    slack_rows = np.flatnonzero(nonempty & ~(ranged & (rng == 0.0)) & ((rtype != "E") | ranged))
    slack_coef = np.where((rtype == "G") | ((rtype == "E") & (rng > 0)), -1.0, 1.0)[slack_rows]
    slacks = sps.csc_matrix(
        (slack_coef, (slack_rows, np.arange(slack_rows.size))),
        shape=(p.nrows, slack_rows.size),
    )
    A = SparseMatrix.from_scipy(sps.hstack([B, slacks], format="csc")[np.flatnonzero(nonempty)])
    c = np.concatenate([cmin[source] * col_sign, np.zeros(slack_rows.size)])
    u = np.concatenate([
        np.where(lower, up - lo, np.inf)[source],
        np.where(ranged, np.abs(rng), np.inf)[slack_rows],
    ])
    return A.col_ptr, A.row_idx, A.values, b[nonempty], c, u


# a shifted (XS), mirrored (XM), free (XF), fixed (XX), empty (XE) and
# plain (XP) column; R2 holds only the fixed column's entry, so its row
# of the standard form is empty and is dropped
EVERY_KIND = """NAME          KINDS
ROWS
 N  COST
 L  R1
 E  R2
 G  R3
 E  R4
COLUMNS
    XS  COST  1.0  R1  1.5
    XS  R3  2.0
    XM  COST  -1.0  R1  -1.0
    XM  R4  3.0
    XF  R3  1.0  R4  -2.0
    XX  R1  2.0  R2  5.0
    XE  COST  1.0
    XP  R1  1.0  R3  0.25
    XP  R4  1.0
RHS
    RHS  R1  4.0  R3  1.0
    RHS  R4  2.0  R2  10.0
RANGES
    RNG  R3  3.0  R4  -1.0
BOUNDS
 LO BND  XS  1.0
 MI BND  XM
 UP BND  XM  4.0
 FR BND  XF
 FX BND  XX  2.0
 LO BND  XE  -1.0
ENDATA
"""


@pytest.mark.parametrize("instance", ["every_kind", "boxed_ranged_smoke"])
def test_standard_form_arrays_match_scipy(instance):
    p = parse_mps(EVERY_KIND if instance == "every_kind" else boxed_ranged_instance().mps_text)
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        std = to_standard_form(p)
    got = (std.A.col_ptr, std.A.row_idx, std.A.values, std.b, std.c, std.u)
    for name, mine, ref in zip(("col_ptr", "row_idx", "values", "b", "c", "u"),
                               got, _standard_arrays_by_scipy(p)):
        assert mine.dtype == ref.dtype and mine.tobytes() == ref.tobytes(), name


def test_every_kind_of_column_and_row():
    p = parse_mps(EVERY_KIND)
    with pytest.warns(UserWarning, match="dropping empty row 'R2'"):
        std = to_standard_form(p)
    assert std.row_names == ("R1", "R3", "R4")
    assert std.col_names == ("XS", "XM-", "XF+", "XP", "XF-", "R1.slack", "R3.slack", "R4.slack")
    assert_array_equal(std.A.to_dense(), [
        [1.5, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0],
        [2.0, 0.0, 1.0, 0.25, -1.0, 0.0, -1.0, 0.0],
        [0.0, -3.0, -2.0, 1.0, 2.0, 0.0, 0.0, 1.0],
    ])


def _feasible_point(std, rng):
    """A point on the affine space A x = b (signs are irrelevant for the
    equality part of the recovery check)."""
    A = std.A.to_dense()
    z = rng.uniform(0.5, 1.0, std.ncols)
    corr = np.linalg.lstsq(A, std.b - A @ z, rcond=None)[0]
    return z + corr


class TestDualize:
    def test_hand_example(self):
        p = SymmetricLp(
            A=SparseMatrix.from_dense([[1.0, 1.0]]),
            b=np.array([1.0]),
            c=np.array([1.0, 0.0]),
        )
        d = dualize(p)
        assert d.sense == "max"
        assert_array_equal(d.A.to_dense(), [[1.0], [1.0]])
        assert_array_equal(d.b, [1.0, 0.0])  # A^T y <= c rows
        assert_array_equal(d.c, [1.0])

    def test_self_dual_identity(self):
        c = np.array([1.0, 2.0])
        p = SymmetricLp(A=SparseMatrix.identity(2), b=c.copy(), c=c.copy())
        d = dualize(p)
        assert d.sense == "max"
        assert_array_equal(d.A.to_dense(), np.eye(2))
        assert_array_equal(d.b, p.b)
        assert_array_equal(d.c, p.c)

    def test_involution_bit_identical(self):
        rng = np.random.default_rng(14)
        A = rng.standard_normal((3, 5))
        p = SymmetricLp(
            A=SparseMatrix.from_dense(A),
            b=rng.standard_normal(3),
            c=rng.standard_normal(5),
        )
        dd = dualize(dualize(p))
        assert dd.sense == p.sense
        assert np.array_equal(dd.A.to_dense(), A)
        assert np.array_equal(dd.b, p.b)
        assert np.array_equal(dd.c, p.c)

    def test_symmetric_standard_solve_value(self):
        # min x1 s.t. x1 + x2 >= 1: optimum 0
        from lpipm import PdConfig, pd_solve

        p = SymmetricLp(
            A=SparseMatrix.from_dense([[1.0, 1.0]]),
            b=np.array([1.0]),
            c=np.array([1.0, 0.0]),
        )
        primal_std = symmetric_to_standard(p)
        res = pd_solve(primal_std, PdConfig())
        assert res.status.value == "Optimal"
        assert abs(primal_std.recovery.original_objective(res.objective)) <= 1e-8
        dual_std = symmetric_to_standard(dualize(p))
        res_d = pd_solve(dual_std, PdConfig())
        assert res_d.status.value == "Optimal"
        assert abs(dual_std.recovery.original_objective(res_d.objective)) <= 1e-8

    def test_to_symmetric_preserves_value(self):
        from lpipm import PdConfig, pd_solve

        std = standard_lp_from_dense([[1.0, 1.0]], [2.0], [1.0, 0.0])
        sym = to_symmetric_form(std)
        res = pd_solve(symmetric_to_standard(sym), PdConfig())
        assert abs(res.objective - 0.0) <= 1e-8


class TestResidualsAndMetrics:
    def test_on_path_zero(self, tiny_lp):
        mu = 0.5
        x1 = 1 + mu - np.sqrt(1 + mu * mu)
        x = np.array([x1, 2 - x1])
        y = np.array([-mu / (2 - x1)])
        s = tiny_lp.c - tiny_lp.A.rmatvec(y)
        st = IterateState(x=x, y=y, s=s, mu=mu, w=np.zeros(2), v=np.zeros(2))
        r_p, r_d = feasibility_residuals(tiny_lp, st)
        assert np.linalg.norm(r_p) <= 1e-12
        assert np.linalg.norm(r_d) <= 1e-12

    def test_hand_example(self, tiny_lp):
        st = IterateState(
            x=np.array([1.0, 1.0]), y=np.zeros(1), s=np.array([1.0, 0.0]), mu=1.0,
            w=np.zeros(2), v=np.zeros(2),
        )
        r_p, r_d = feasibility_residuals(tiny_lp, st)
        assert_array_equal(r_p, [0.0])
        assert_array_equal(r_d, [0.0, 0.0])

    def test_residuals_match_dense_oracle(self):
        rng = np.random.default_rng(15)
        A = rng.standard_normal((3, 6))
        p = standard_lp_from_dense(A, rng.standard_normal(3), rng.standard_normal(6))
        x = rng.uniform(0.5, 2.0, 6)
        y = rng.standard_normal(3)
        s = rng.uniform(0.5, 2.0, 6)
        st = IterateState(x=x, y=y, s=s, mu=0.7, w=np.zeros(6), v=np.zeros(6))
        r_p, r_d = feasibility_residuals(p, st)
        assert_allclose(r_p, A @ x - p.b, rtol=1e-14)
        assert_allclose(r_d, A.T @ y + s - p.c, rtol=1e-14)
        # doubling x changes r_p exactly per the formula
        st2 = IterateState(x=2 * x, y=y, s=s, mu=0.7, w=np.zeros(6), v=np.zeros(6))
        r_p2, _ = feasibility_residuals(p, st2)
        assert_allclose(r_p2, A @ (2 * x) - p.b, rtol=1e-14)

    def test_metric_formulas(self, tiny_lp):
        # optimal strictly complementary point
        st = IterateState(
            x=np.array([0.0 + 1e-300, 2.0]), y=np.array([0.0]),
            s=np.array([1.0, 0.0]), mu=1e-300, w=np.zeros(2), v=np.zeros(2),
        )
        e_p, e_d, e_g = convergence_metrics(tiny_lp, st)
        assert e_p <= 1e-15 and e_d <= 1e-15 and e_g <= 1e-15

    def test_gap_half(self):
        # <c,x> = 1, <b,y> = 0 with feasible x: e_g = 1/2
        p = standard_lp_from_dense([[1.0, 0.0]], [1.0], [1.0, 0.0])
        st = IterateState(
            x=np.array([1.0, 1.0]), y=np.array([0.0]),
            s=np.array([1.0, 0.0]), mu=1.0, w=np.zeros(2), v=np.zeros(2),
        )
        _, _, e_g = convergence_metrics(p, st)
        assert e_g == 0.5

    def test_ep_one_when_b_zero(self):
        p = standard_lp_from_dense([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], [1.0, 1.0])
        st = IterateState(
            x=np.array([1.0, 1e-300]), y=np.zeros(2), s=np.ones(2), mu=1.0,
            w=np.zeros(2), v=np.zeros(2),
        )
        e_p, _, _ = convergence_metrics(p, st)
        assert abs(e_p - 1.0) <= 1e-12

    def test_ep_recomputation_under_scaling(self):
        rng = np.random.default_rng(16)
        A = rng.standard_normal((3, 6))
        x = rng.uniform(0.5, 2.0, 6)
        for t in (0.1, 1.0, 37.5):
            p = standard_lp_from_dense(A, t * (A @ x) + 1.0, rng.standard_normal(6))
            st = IterateState(
                x=t * x, y=np.zeros(3), s=np.ones(6), mu=1.0, w=np.zeros(6), v=np.zeros(6)
            )
            e_p, _, _ = convergence_metrics(p, st)
            direct = np.linalg.norm(p.A.matvec(t * x) - p.b) / (1.0 + np.linalg.norm(p.b))
            assert e_p == direct
