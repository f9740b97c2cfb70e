"""Infeasible primal-dual IPM with Mehrotra predictor-corrector.

Normal-equations form: one factorization of ``A D^2 A^T`` per iteration
(``d^2 = 1/(s/x + v/w)``, which is ``x/s`` off the bounded coordinates) shared
by the affine predictor and the corrector solve.  Each iteration hands
the driver hook the PCG budget of its factor (see
:func:`lpipm.face.pcg_budget`), the counted price of a factorization in
PCG iterations; the hybrid controller's switch rule reads it.  The wall
times of the factorization and of the step go only to the trace.

Where the factor is large enough that PCG on it is cheap, and once the
candidate basis of the scaling holds for two iterations, each iteration
tries to end the solve by projecting onto the optimal face, by PCG
preconditioned by the factor it has just built (see :mod:`lpipm.face`).

The starting point is Mehrotra's least-squares point with the bound
pair ``(w, v)`` inside both least-squares problems, from one
factorization of ``A H A^T`` (``H`` = 1/2 on the bounded coordinates,
1 elsewhere) that a solve does not count; Mehrotra's shifts run over
both pairs, and ``w = u - x`` exactly.  Without finite bounds it is the
textbook start on ``A A^T``."""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cholesky import CholeskyFactor, cholesky_factorize
from .errors import FactorizationFailed, NumericalBreakdown
from .face import MIN_PCG_BUDGET, face_partition, pcg_budget, project_onto_face
from .problem import IterateState, StandardLp, complementarity, convergence_metrics
from .results import SolveResult, SolveStatus
from .scaling import NU, thresholded_distance
from .sparse import form_normal_matrix
from .trace import TraceRecord

_SIGMA_MIN = 1e-8
_SIGMA_MAX = 1.0 - 1e-8
_DIVERGENCE_LIMIT = 1e150  # iterates beyond this signal an infeasible LP
_STEP_FRACTION = 0.9995  # share of the distance to the boundary taken


@dataclass
class PdConfig:
    max_iter: int = 100
    tol: float = 1e-10

    def __post_init__(self):
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 0:
            raise ValueError("max_iter must not be negative")


def pd_starting_point(p: StandardLp) -> IterateState:
    """Mehrotra's starting point, with the bound pair in both of its
    least-squares problems, shifted to strict positivity and strictly
    inside the bound box.

    With ``F`` the bounded coordinates, ``x~`` minimizes
    ``1/2 ||x||^2 + 1/2 ||u_F - x_F||^2`` s.t. ``A x = b``, and
    ``(y~, s~, v~)`` minimizes ``1/2 ||s||^2 + 1/2 ||v_F||^2`` s.t.
    ``A^T y + s - v = c``.  Both solve with one factorization of
    ``A H A^T``, ``H`` = 1/2 on F and 1 elsewhere (see
    :func:`_least_squares_point`); a solve does not count it among its
    factorizations.  Mehrotra's two shifts then run over both pairs at
    once: the primal shift over ``x`` and ``w~_F = u_F - x~_F``, the dual
    shift over ``s`` and ``v_F``, with ``<x, s> + <w_F, v_F>`` and the
    sums of both pairs in the centering terms.  The bounded ``x`` are
    clipped into the box and the returned ``w`` is ``u - x`` exactly, so
    the state carries its own bound pair."""
    if p.nrows == 0:
        raise ValueError("problem has no rows")
    n = p.ncols
    fi = p.bounded
    uf = p.u[fi]
    x_tilde, y_tilde, s_tilde, v_tilde = _least_squares_point(p)

    # the shifts run on the stacked pairs [x; w_F] and [s; v_F]
    xw = np.concatenate([x_tilde, uf - x_tilde[fi]])
    sv = np.concatenate([s_tilde, v_tilde[fi]])
    dx = max(-1.5 * float(xw.min(initial=0.0)), 0.0)
    ds = max(-1.5 * float(sv.min(initial=0.0)), 0.0)
    xw_hat = xw + dx
    sv_hat = sv + ds
    dot = float(xw_hat @ sv_hat)
    sum_s = float(sv_hat.sum())
    sum_x = float(xw_hat.sum())
    dx_hat = dx + (0.5 * dot / sum_s if sum_s > 0 else 1.0)
    ds_hat = ds + (0.5 * dot / sum_x if sum_x > 0 else 1.0)
    xw = xw + dx_hat
    sv = sv + ds_hat
    if float(xw.min(initial=1.0)) <= 0.0:
        xw = xw + (1.0 - float(xw.min()))
    if float(sv.min(initial=1.0)) <= 0.0:
        sv = sv + (1.0 - float(sv.min()))

    x = xw[:n]
    x[fi] = np.clip(x[fi], 0.01 * np.minimum(uf, 1.0), 0.99 * uf)
    w = np.zeros(n)
    w[fi] = uf - x[fi]
    v = np.zeros(n)
    v[fi] = sv[n:]
    st = IterateState(x=x, y=y_tilde, s=sv[:n], mu=0.0, w=w, v=v)
    st.mu = complementarity(p, st)
    return st


def _least_squares_point(p: StandardLp):
    """``(x~, y~, s~, v~)`` of the start's two least-squares problems.

    With ``E`` the 0/1 diagonal of the bounded coordinates F,
    ``x~ = H (A^T l + E u)`` with ``A H A^T l = b - A H E u``;
    ``A H A^T y~ = A H c``, ``s~ = H (c - A^T y~)``, and ``v~ = -s~`` on
    F and zero off it.  With F empty, ``H = I`` and ``E u = 0``, and
    these are Mehrotra's ``x~ = A^T (A A^T)^-1 b`` and
    ``y~ = (A A^T)^-1 A c``, bit for bit."""
    n = p.ncols
    fi = p.bounded
    h = np.ones(n)
    h[fi] = 0.5
    hu = np.zeros(n)
    hu[fi] = 0.5 * p.u[fi]
    factor = cholesky_factorize(form_normal_matrix(p.A, np.sqrt(h)))
    x_tilde = h * p.A.rmatvec(factor.solve(p.b - p.A.matvec(hu)))
    x_tilde[fi] += hu[fi]
    y_tilde = factor.solve(p.A.matvec(h * p.c))
    s_tilde = h * (p.c - p.A.rmatvec(y_tilde))
    v_tilde = np.zeros(n)
    v_tilde[fi] = -s_tilde[fi]
    return x_tilde, y_tilde, s_tilde, v_tilde


def _scaling_sq(st: IterateState, fi) -> np.ndarray:
    """``d^2 = 1 / (s/x + v/w)``, the bound term on the coordinates fi."""
    sx = st.s / st.x
    sx[fi] += st.v[fi] / st.w[fi]
    return 1.0 / sx


@dataclass
class MehrotraStep:
    dx: np.ndarray
    dy: np.ndarray
    ds: np.ndarray
    dw: np.ndarray
    dv: np.ndarray
    alpha_p: float
    alpha_d: float
    sigma: float
    mu_aff: float


def _step_limit(z, dz) -> float:
    neg = dz < 0.0
    if not neg.any():
        return np.inf
    return float(np.min(-z[neg] / dz[neg]))


def mehrotra_step(
    p: StandardLp,
    st: IterateState,
    factor: CholeskyFactor,
    d2: np.ndarray,
    tol: float,
) -> MehrotraStep:
    """One predictor-corrector step from a strictly interior state, using
    the supplied factorization of ``A D^2 A^T``; ``d2`` is the ``D^2``
    the factor was built from.

    Each normal-equation solve is refined by one more solve on the same
    factor when its residual ``rhs - A D^2 A^T dy`` exceeds
    ``0.1 tol (1 + ||b||)``, with ``tol`` the solve's tolerance: as
    ``A D^2 A^T`` turns singular on a degenerate LP, a residual tiny
    next to the right-hand side can still be large next to ``r_p``, and
    every full step would inject it as primal infeasibility.

    The bound pair ``(w, v)`` of the state is zero off the bounded
    coordinates ``fi``, and so are the returned full-length ``dw`` and
    ``dv``; all bound arithmetic runs on ``fi``, which is empty on an
    unbounded problem."""
    x, y, s, w, v = st.x, st.y, st.s, st.w, st.v
    n = p.ncols
    fi = p.bounded
    wf, vf = w[fi], v[fi]

    r_p = p.A.matvec(x) - p.b
    r_d = p.A.rmatvec(y) + s - p.c - v
    r_u = x[fi] + wf - p.u[fi]
    vw = vf / wf

    mu = complementarity(p, st)
    refine_above = 0.1 * tol * (1.0 + float(np.linalg.norm(p.b)))

    def solve_directions(rhs_xs, rhs_wv):
        rhs_combined = rhs_xs / x + r_d
        rhs_combined[fi] = rhs_combined[fi] - rhs_wv / wf - vw * r_u
        rhs = -r_p - p.A.matvec(d2 * rhs_combined)
        dy = factor.solve(rhs)
        Aty = p.A.rmatvec(dy)
        res = rhs - p.A.matvec(d2 * Aty)
        if np.linalg.norm(res) > refine_above:
            dy = dy + factor.solve(res)
            Aty = p.A.rmatvec(dy)
        dx = d2 * (rhs_combined + Aty)
        dw = np.zeros(n)
        dw[fi] = -r_u - dx[fi]
        dv = np.zeros(n)
        dv[fi] = (rhs_wv - vf * dw[fi]) / wf
        ds = -r_d - Aty + dv
        return dx, dy, ds, dw, dv

    # affine predictor
    dx_a, dy_a, ds_a, dw_a, dv_a = solve_directions(-x * s, -(wf * vf))

    ap = min(1.0, _step_limit(x, dx_a), _step_limit(w, dw_a))
    ad = min(1.0, _step_limit(s, ds_a), _step_limit(v, dv_a))
    mu_aff = complementarity(p, IterateState(
        x=x + ap * dx_a, y=y, s=s + ad * ds_a, mu=mu,
        w=w + ap * dw_a, v=v + ad * dv_a,
    ))
    sigma = float(np.clip((max(mu_aff, 0.0) / mu) ** 3, _SIGMA_MIN, _SIGMA_MAX))

    # corrector with second-order term
    dx, dy, ds, dw, dv = solve_directions(
        sigma * mu - x * s - dx_a * ds_a,
        sigma * mu - wf * vf - dw_a[fi] * dv_a[fi],
    )

    limit_p = min(_step_limit(x, dx), _step_limit(w, dw))
    limit_d = min(_step_limit(s, ds), _step_limit(v, dv))
    alpha_p = min(1.0, _STEP_FRACTION * limit_p)
    alpha_d = min(1.0, _STEP_FRACTION * limit_d)
    return MehrotraStep(
        dx=dx, dy=dy, ds=ds, dw=dw, dv=dv,
        alpha_p=alpha_p, alpha_d=alpha_d, sigma=sigma, mu_aff=mu_aff,
    )


@dataclass
class PdIterationInfo:
    """Snapshot handed to a driver hook after each accepted iteration:
    ``pcg_budget`` is the PCG iterations one solve on its factor may take
    before it costs a quarter of a factorization."""

    k: int
    x_prev: np.ndarray
    state: IterateState
    pcg_budget: int


def pd_solve(
    p: StandardLp,
    cfg: PdConfig,
    trace_log=None,
    start: IterateState | None = None,
    hook: Callable[[PdIterationInfo], bool] | None = None,
) -> SolveResult:
    """Iterate Mehrotra steps to the termination criteria.

    ``hook`` is called after each iteration with a
    :class:`PdIterationInfo`; returning True halts the loop with status
    ``Halted`` (the hybrid controller switches engines this way).  Its
    ``state`` is the live state, which the next iteration changes, so a
    hook that keeps states keeps copies.  Trace rows are numbered on
    from the rows already in ``trace_log``.
    """
    t_start = time.perf_counter()
    factorizations = 0
    iterations = 0
    cg_iterations = 0
    status = SolveStatus.ITERATION_LIMIT
    message = ""
    face = None  # the candidate face (B, U) of the previous iteration
    nan = np.full(p.ncols, np.nan)  # the state reported if the start fails
    st = IterateState(x=nan, y=np.full(p.nrows, np.nan), s=nan, mu=np.nan, w=nan, v=nan)

    try:
        st = (start or pd_starting_point(p)).copy()
        st.mu = complementarity(p, st)
        e_p, e_d, e_g = convergence_metrics(p, st)
        for k in range(1, cfg.max_iter + 1):
            if max(e_p, e_d, e_g) <= cfg.tol:
                status = SolveStatus.OPTIMAL
                break

            t0 = time.perf_counter()
            d2 = _scaling_sq(st, p.bounded)
            if np.any(d2 <= 0.0) or not np.all(np.isfinite(d2)):
                raise NumericalBreakdown("primal-dual scaling left positivity")
            factorizations += 1  # counted whether or not it succeeds
            factor = cholesky_factorize(form_normal_matrix(p.A, np.sqrt(d2)))
            t_factor = time.perf_counter() - t0

            t1 = time.perf_counter()
            x_prev = st.x
            # a projection is tried once B holds for a second iteration,
            # and only where its PCG can cost less than a factorization
            projected, cg_iters = None, 0
            budget = pcg_budget(factor, p.A.nnz)
            if budget >= MIN_PCG_BUDGET:
                prev_face, face = face, face_partition(p, st, d2)
                if prev_face is not None and np.array_equal(prev_face[0], face[0]):
                    projected, cg_iters = project_onto_face(
                        p, factor, d2, *face, max_iter=budget, tol=cfg.tol
                    )
                    cg_iterations += cg_iters
            if projected is not None:
                st, ap = projected, 1.0
                message = (
                    f"ended by projection onto the face of {int(face[0].sum())} "
                    f"columns after {cg_iters} PCG iterations"
                )
            else:
                step = mehrotra_step(p, st, factor, d2, cfg.tol)
                del factor  # one m x m array at a time: gone before the next assembly
                ap, ad = step.alpha_p, step.alpha_d
                saved = st.copy()
                mu_prev = st.mu
                st.x = st.x + ap * step.dx
                st.y = st.y + ad * step.dy
                st.s = st.s + ad * step.ds
                st.w = st.w + ap * step.dw
                st.v = st.v + ad * step.dv
                scale = max(np.abs(st.x).max(), np.abs(st.s).max(), np.abs(st.y).max())
                if not np.isfinite(scale) or scale > _DIVERGENCE_LIMIT:
                    # runaway iterates: the problem is primal or dual
                    # infeasible; keep the last sane state, whose metrics
                    # are the ones in hand, and stop
                    st = saved
                    iterations = k
                    message = "iterates diverged (problem likely infeasible)"
                    break
                if np.any(st.x <= 0.0) or np.any(st.s <= 0.0):
                    raise NumericalBreakdown("iterate lost strict interiority")
                st.mu = complementarity(p, st)
                if st.mu > mu_prev * (1.0 + 1e-12):
                    warnings.warn(
                        f"complementarity increased at iteration {k} "
                        f"({mu_prev:.3e} -> {st.mu:.3e})",
                        stacklevel=2,
                    )
            t_solve = time.perf_counter() - t1

            iterations = k
            e_p, e_d, e_g = convergence_metrics(p, st)
            if trace_log is not None:
                trace_log.add(
                    TraceRecord(
                        iter=len(trace_log) + 1,
                        phase="pd",
                        mu=st.mu,
                        e_p=e_p,
                        e_d=e_d,
                        e_g=e_g,
                        step_norm=float(np.linalg.norm(st.x - x_prev)),
                        # a projected x has zeros: the row scales by the last interior x
                        thresholded_step=thresholded_distance(
                            st.x, x_prev, st.x if projected is None else x_prev, NU
                        ),
                        delta=None,
                        alpha=ap,
                        factorized=True,
                        cg_iters=cg_iters,
                        wall_factor_ms=t_factor * 1e3,
                        wall_solve_ms=t_solve * 1e3,
                    )
                )
            if projected is not None:
                status = SolveStatus.OPTIMAL
                break
            if hook is not None and hook(
                PdIterationInfo(k=k, x_prev=x_prev, state=st, pcg_budget=budget)
            ):
                status = SolveStatus.HALTED
                break
        else:
            if max(e_p, e_d, e_g) <= cfg.tol:
                status = SolveStatus.OPTIMAL
    except (FactorizationFailed, NumericalBreakdown) as exc:
        status = SolveStatus.NUMERICAL_FAILURE
        message = str(exc)
        e_p, e_d, e_g = convergence_metrics(p, st)

    return SolveResult(
        status=status,
        x=st.x,
        y=st.y,
        s=st.s,
        objective=p.objective_value(st.x),
        e_p=e_p,
        e_d=e_d,
        e_g=e_g,
        iterations=iterations,
        factorizations=factorizations,
        cg_iterations=cg_iterations,
        wall_s=time.perf_counter() - t_start,
        message=message,
    )
