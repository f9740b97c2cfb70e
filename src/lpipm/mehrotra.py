"""Infeasible primal-dual IPM with Mehrotra predictor-corrector.

Normal-equations form: one factorization of ``A D^2 A^T`` per iteration
(``d^2 = 1/(s/x + v/w)``, which is ``x/s`` without upper bounds) shared
by the affine predictor and the corrector solve.  The wall time spent in
factorization versus forward/backward substitution is measured per
iteration and exponentially averaged; the hybrid controller's switch
rule consumes that ratio.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cholesky import CholeskyFactor, cholesky_factorize
from .errors import FactorizationFailed, NumericalBreakdown
from .problem import IterateState, StandardLp, complementarity, convergence_metrics
from .results import SolveResult, SolveStatus
from .scaling import thresholded_distance
from .sparse import form_normal_matrix
from .trace import TraceRecord

_SIGMA_MIN = 1e-8
_SIGMA_MAX = 1.0 - 1e-8
_RATIO_EMA = 0.3  # weight of the newest factor/solve time ratio
_DIVERGENCE_LIMIT = 1e150  # iterates beyond this signal an infeasible LP


@dataclass
class PdConfig:
    max_iter: int = 100
    tol: float = 1e-10
    step_fraction: float = 0.9995
    starting_point: str = "least_squares"  # or 'uniform'

    def __post_init__(self):
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if not 0.0 < self.step_fraction < 1.0:
            raise ValueError("step_fraction must lie in (0, 1)")
        if self.starting_point not in ("least_squares", "uniform"):
            raise ValueError("starting_point must be 'least_squares' or 'uniform'")


def pd_starting_point(p: StandardLp, mode: str = "least_squares") -> IterateState:
    """Mehrotra's least-squares starting point, shifted to strict
    positivity (and strictly inside the bound box when u is finite).
    ``mode='uniform'`` skips the least-squares solves and starts from the
    all-ones point instead."""
    n = p.ncols
    if p.nrows == 0:
        raise ValueError("problem has no rows")
    if mode == "uniform":
        x_tilde = np.ones(n)
        y_tilde = np.zeros(p.nrows)
    else:
        aat = cholesky_factorize(form_normal_matrix(p.A, np.ones(n)))
        x_tilde = p.A.rmatvec(aat.solve(p.b))
        y_tilde = aat.solve(p.A.matvec(p.c))
    s_tilde = p.c - p.A.rmatvec(y_tilde)

    dx = max(-1.5 * float(x_tilde.min(initial=0.0)), 0.0)
    ds = max(-1.5 * float(s_tilde.min(initial=0.0)), 0.0)
    x_hat = x_tilde + dx
    s_hat = s_tilde + ds
    dot = float(x_hat @ s_hat)
    sum_s = float(s_hat.sum())
    sum_x = float(x_hat.sum())
    dx_hat = dx + (0.5 * dot / sum_s if sum_s > 0 else 1.0)
    ds_hat = ds + (0.5 * dot / sum_x if sum_x > 0 else 1.0)
    x = x_tilde + dx_hat
    s = s_tilde + ds_hat
    if float(x.min(initial=1.0)) <= 0.0:
        x = x + (1.0 - float(x.min()))
    if float(s.min(initial=1.0)) <= 0.0:
        s = s + (1.0 - float(s.min()))

    w = v = None
    if p.has_finite_bounds:
        finite = np.isfinite(p.u)
        uf = p.u[finite]
        x = x.copy()
        x[finite] = np.clip(x[finite], 0.01 * np.minimum(uf, 1.0), 0.99 * uf)
        w = np.zeros(n)
        w[finite] = uf - x[finite]
        mu_est = max(float(x @ s) / n, 1e-2)
        v = np.zeros(n)
        v[finite] = mu_est / w[finite]

    st = IterateState(x=x, y=y_tilde, s=s, mu=0.0, w=w, v=v)
    st.mu = complementarity(p, st)
    return st



def _masked_div(num, den, mask):
    out = np.zeros_like(num)
    out[mask] = num[mask] / den[mask]
    return out

@dataclass
class MehrotraStep:
    dx: np.ndarray
    dy: np.ndarray
    ds: np.ndarray
    dw: np.ndarray | None
    dv: np.ndarray | None
    alpha_p: float
    alpha_d: float
    sigma: float
    mu_aff: float


def _step_limit(z, dz, mask=None) -> float:
    if mask is not None:
        z, dz = z[mask], dz[mask]
    neg = dz < 0.0
    if not neg.any():
        return np.inf
    return float(np.min(-z[neg] / dz[neg]))


def mehrotra_step(
    p: StandardLp,
    st: IterateState,
    factor: CholeskyFactor,
    step_fraction: float = 0.9995,
) -> MehrotraStep:
    """One predictor-corrector step from a strictly interior state, using
    the supplied factorization of ``A D^2 A^T``."""
    x, y, s = st.x, st.y, st.s
    n = p.ncols
    finite = np.isfinite(p.u)
    bounded = bool(finite.any())
    w = st.w if bounded else None
    v = st.v if bounded else None

    r_p = p.A.matvec(x) - p.b
    r_d = p.A.rmatvec(y) + s - p.c
    if bounded:
        r_d = r_d - v
        r_u = np.zeros(n)
        r_u[finite] = x[finite] + w[finite] - p.u[finite]
        vw = _masked_div(v, w, finite)
    else:
        r_u = None
        vw = 0.0
    d2 = 1.0 / (s / x + vw)

    mu = complementarity(p, st)

    def solve_directions(rhs_xs, rhs_wv):
        rhs_combined = rhs_xs / x + r_d
        if bounded:
            rhs_combined = rhs_combined - _masked_div(rhs_wv, w, finite) - vw * r_u
        dy = factor.solve(-r_p - p.A.matvec(d2 * rhs_combined))
        dx = d2 * (rhs_combined + p.A.rmatvec(dy))
        if bounded:
            dw = np.where(finite, -r_u - dx, 0.0)
            dv = _masked_div(rhs_wv - v * dw, w, finite)
        else:
            dw = dv = None
        ds = -r_d - p.A.rmatvec(dy) + (dv if bounded else 0.0)
        return dx, dy, ds, dw, dv

    # affine predictor
    rhs_xs = -x * s
    rhs_wv = -(w * v) if bounded else None
    dx_a, dy_a, ds_a, dw_a, dv_a = solve_directions(rhs_xs, rhs_wv)

    ap = min(1.0, _step_limit(x, dx_a))
    ad = min(1.0, _step_limit(s, ds_a))
    if bounded:
        ap = min(ap, _step_limit(w, dw_a, finite))
        ad = min(ad, _step_limit(v, dv_a, finite))
    mu_aff = complementarity(p, IterateState(
        x=x + ap * dx_a, y=y, s=s + ad * ds_a, mu=mu,
        w=w + ap * dw_a if bounded else None,
        v=v + ad * dv_a if bounded else None,
    ))
    sigma = float(np.clip((max(mu_aff, 0.0) / mu) ** 3, _SIGMA_MIN, _SIGMA_MAX))

    # corrector with second-order term
    rhs_xs = sigma * mu - x * s - dx_a * ds_a
    if bounded:
        rhs_wv = np.where(finite, sigma * mu - w * v - dw_a * dv_a, 0.0)
    dx, dy, ds, dw, dv = solve_directions(rhs_xs, rhs_wv)

    limit_p = _step_limit(x, dx)
    limit_d = _step_limit(s, ds)
    if bounded:
        limit_p = min(limit_p, _step_limit(w, dw, finite))
        limit_d = min(limit_d, _step_limit(v, dv, finite))
    alpha_p = min(1.0, step_fraction * limit_p)
    alpha_d = min(1.0, step_fraction * limit_d)
    return MehrotraStep(
        dx=dx, dy=dy, ds=ds, dw=dw, dv=dv,
        alpha_p=alpha_p, alpha_d=alpha_d, sigma=sigma, mu_aff=mu_aff,
    )


@dataclass
class PdIterationInfo:
    """Snapshot handed to a driver hook after each accepted iteration."""

    k: int
    x_prev: np.ndarray
    state: IterateState
    time_ratio: float
    e_p: float
    e_d: float
    e_g: float


def pd_solve(
    p: StandardLp,
    cfg: PdConfig,
    trace_log=None,
    start: IterateState | None = None,
    hook: Callable[[PdIterationInfo], bool] | None = None,
    collect_iterates: bool = False,
    time_ratio_override: float | None = None,
    phase: str = "pd",
    iter_offset: int = 0,
) -> SolveResult:
    """Iterate Mehrotra steps to the termination criteria.

    ``hook`` is called after each iteration with a
    :class:`PdIterationInfo`; returning True halts the loop with status
    ``Halted`` (the hybrid controller switches engines this way).
    ``time_ratio_override`` pins the measured factor/solve time ratio so
    runs are reproducible in tests.
    """
    t_start = time.perf_counter()
    st = (start or pd_starting_point(p, cfg.starting_point)).copy()
    finite = np.isfinite(p.u)
    st.mu = complementarity(p, st)

    factorizations = 0
    iterations = 0
    status = SolveStatus.ITERATION_LIMIT
    message = ""
    ema_ratio = None
    iterates = []
    e_p = e_d = e_g = float("inf")

    try:
        for k in range(1, cfg.max_iter + 1):
            e_p, e_d, e_g = convergence_metrics(p, st)
            if max(e_p, e_d, e_g) <= cfg.tol:
                status = SolveStatus.OPTIMAL
                break

            t0 = time.perf_counter()
            vw = _masked_div(st.v, st.w, finite) if st.w is not None else 0.0
            d2 = 1.0 / (st.s / st.x + vw)
            if np.any(d2 <= 0.0) or not np.all(np.isfinite(d2)):
                raise NumericalBreakdown("primal-dual scaling left positivity")
            factor = cholesky_factorize(form_normal_matrix(p.A, np.sqrt(d2)))
            factorizations += 1
            t_factor = time.perf_counter() - t0

            t1 = time.perf_counter()
            step = mehrotra_step(p, st, factor, cfg.step_fraction)
            ap, ad = step.alpha_p, step.alpha_d
            saved = st.copy()
            x_prev = saved.x
            mu_prev = st.mu
            st.x = st.x + ap * step.dx
            st.y = st.y + ad * step.dy
            st.s = st.s + ad * step.ds
            if st.w is not None:
                st.w = st.w + ap * step.dw
                st.v = st.v + ad * step.dv
            scale = max(np.abs(st.x).max(), np.abs(st.s).max(), np.abs(st.y).max())
            if not np.isfinite(scale) or scale > _DIVERGENCE_LIMIT:
                # runaway iterates: the problem is primal or dual
                # infeasible; keep the last sane state and stop
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

            ratio = t_factor / max(t_solve, 1e-9)
            ema_ratio = (
                ratio
                if ema_ratio is None
                else (1.0 - _RATIO_EMA) * ema_ratio + _RATIO_EMA * ratio
            )
            reported_ratio = (
                time_ratio_override if time_ratio_override is not None else ema_ratio
            )

            iterations = k
            e_p, e_d, e_g = convergence_metrics(p, st)
            step_norm = float(np.linalg.norm(st.x - x_prev))
            thresh = thresholded_distance(st.x, x_prev, st.x, 1.0)
            if trace_log is not None:
                trace_log.add(
                    TraceRecord(
                        iter=k + iter_offset,
                        phase=phase,
                        mu=st.mu,
                        e_p=e_p,
                        e_d=e_d,
                        e_g=e_g,
                        step_norm=step_norm,
                        thresholded_step=thresh,
                        delta=None,
                        alpha=ap,
                        factorized=True,
                        cg_iters=0,
                        wall_factor_ms=t_factor * 1e3,
                        wall_solve_ms=t_solve * 1e3,
                        wall_other_ms=0.0,
                    )
                )
            if collect_iterates:
                iterates.append(
                    IterateState(x=st.x.copy(), y=st.y.copy(), s=st.s.copy(), mu=st.mu)
                )
            if hook is not None and hook(
                PdIterationInfo(
                    k=k, x_prev=x_prev, state=st, time_ratio=reported_ratio,
                    e_p=e_p, e_d=e_d, e_g=e_g,
                )
            ):
                status = SolveStatus.HALTED
                break
        else:
            e_p, e_d, e_g = convergence_metrics(p, st)
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
        cg_iterations=0,
        trace=list(trace_log) if trace_log is not None else [],
        wall_s=time.perf_counter() - t_start,
        mu=st.mu,
        iterates=iterates,
        message=message,
    )
