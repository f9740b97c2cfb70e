"""Primal barrier engine, and the normal-equation service of every engine.

Both modes run the same iteration:

1. in the delayed mode, on a feasible iterate, a tangent predictor:
   :func:`affine_direction` is solved on the standing cache, repaired,
   and followed for 0.9 of its step to the boundary, which also lowers
   the barrier target (see :func:`primal_solve`);
2. the :class:`NormalSolver` refreshes its factorization of the scaled
   normal matrix on schedule, at the predicted point;
3. the Newton direction is :func:`projected_direction`, computed through
   that solver at the scaling point: by the cached factor's solve where
   the cache sits at that point and its factor is double, else by PCG
   preconditioned by that factor; off the feasible path its
   solve carries ``-r_p``, which makes it the infeasible-start Newton
   step with ``A dx = -r_p``;
4. a feasibility repair, scaled by the cache point, restores
   ``A dx = -r_p`` (0 on the feasible path) by one solve with the
   cached factor; after a direct solve it is one step of iterative
   refinement;
5. the next barrier target is chosen from the step just taken: its
   length and the complementarity it reached (see :func:`primal_solve`).

The two modes differ only inside the solver and in the scaling point of
the direction:

* ``exact`` refreshes the cache at x every iteration, solves with its
  factor, directly on a double one, and scales at x.
* ``delayed_scaling`` keeps the cached factorization as PCG
  preconditioner, refreshes it when the iterate moves a scaled distance
  ``_THETA`` from the cache point, thresholded at
  :data:`~lpipm.scaling.NU`, and scales at the delayed scaling point,
  which keeps the cached factorization useful; a row that has just
  refreshed solves with the new factor, directly on a double one.

A refresh factors in single precision when the flops of its dense
factor exceed those of its assembly (:func:`~lpipm.sparse.single_pays`;
sparse_wide's, not dense_tail's), and in double otherwise; no other
factorization in the package is single.  A single factor is only ever a
preconditioner, corrected by PCG in double, also at its own point,
where it takes a few iterations (Carson and Higham, SIAM J. Sci.
Comput. 40(2), 2018).  Its probe's bound scales with the square root of
its unit roundoff.  When single precision stops serving, which the
solver sees as a single factor that fails, needs a shift, fails its
probe or misses while fresh, the solver refactors in double and stays
there.

A PCG miss refreshes the cache at x and retries, unless the cache is
already fresh and double; then the miss is the attainable residual
floor and the repair keeps the step usable.

The state always carries the bound pair ``(w, v)``, zero off the bounded
coordinates, so an unbounded problem runs the same code with an empty
bounded set.  The start is a complete :class:`IterateState`: its pair
is taken as it is, and its ``mu`` is the first barrier target.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .cg import CgOutcome, pcg_solve
from .cholesky import CholeskyFactor, cholesky_factorize
from .errors import FactorizationFailed, InteriorityViolation, NumericalBreakdown
from .problem import (
    IterateState,
    StandardLp,
    barrier_gradient,
    complementarity,
    convergence_metrics,
)
from .results import SolveResult, SolveStatus
from .scaling import NU, bound_scaling_diag, delayed_scaling_point, thresholded_distance
from .sparse import form_normal_matrix, single_pays
from .trace import TraceRecord

EXACT = "exact"
DELAYED_SCALING = "delayed_scaling"

_FEASIBLE_PATH_TOL = 1e-12
_THETA = 0.1  # distance from the cache point that triggers a refresh
_STEP_FRACTION = 0.9995  # share of the distance to the boundary taken
# a step this short leaves x and mu where they were; this many in a row
# end the solve as stalled
_STALL_ALPHA = 1e-3
_STALL_STEPS = 4
# PCG iterations of one solve, a Newton solve's or the tangent predictor's
_CG_MAX_ITER = 200
# the tangent predictor takes this share of its step to the boundary
_PREDICTOR_FRACTION = 0.9
# the probe's bound on a double factor's backward error, scaled by the
# square root of the unit roundoff for a single one
_PROBE_BOUND = 1e-8
_DOUBLE_ROUNDOFF = float(np.finfo(np.float64).eps) / 2.0
# PCG iterations that a single-precision factor may take at its own
# point, where it preconditions the matrix it factors: on sparse_wide
# (cg_tol 1e-12) it converges there in 2 or 3 throughout the solve, and
# on degenerate LPs the last refreshes need 7 to 11 as kappa u grows
_SINGLE_ITERS = 4


@dataclass
class PrimalConfig:
    """Settings of :func:`primal_solve`.  ``tau`` is the barrier cut of
    one full step, applied to the complementarity measured after the
    step; the schedule is documented on :func:`primal_solve`.  The
    threshold of the delayed mode's scaled distances is no setting: it
    is :data:`~lpipm.scaling.NU`, as in the hybrid's switch."""

    tau: float | None = None  # None: 1 / (10 sqrt(n))
    cg_tol: float = 1e-10
    max_iter: int = 100
    mode: str = EXACT
    tol: float = 1e-10

    def __post_init__(self):
        if self.tau is not None and not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        if self.tol <= 0.0 or self.cg_tol <= 0.0:
            raise ValueError("tol, cg_tol must be positive")
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")
        if self.mode not in (EXACT, DELAYED_SCALING):
            raise ValueError(f"unknown mode {self.mode!r}")

    def effective_tau(self, n: int) -> float:
        return self.tau if self.tau is not None else 1.0 / (10.0 * math.sqrt(n))


@dataclass
class PreconditionerCache:
    """The factorization of ``A D_z^2 A^T``, with its point z and squared
    scaling ``d_sq``; both are None after :meth:`NormalSolver.factorize`."""

    z: np.ndarray | None
    factor: CholeskyFactor
    d_sq: np.ndarray | None


def refresh_cache(p: StandardLp, z, single: bool = False) -> PreconditionerCache:
    """Factorize the normal matrix at z, in single precision with
    ``single``, and verify the factor with one random probe of its
    backward error against the matrix-free operator:
    ``||L L^T v - M v|| / ((max_i M_ii + sigma) ||v||)``, with ``M``
    including the factor's diagonal shift ``sigma``.  ``max_i M_ii`` is
    at most ``||M||``, so the probe is at least as strict as one scaled
    by the norm.  The bound is ``1e-8 sqrt(u / u_64)`` for the factor's
    unit roundoff ``u``: 1e-8 on a double factor, 2.3e-4 on a single
    one.  A single-precision factor that needed a shift raises
    :class:`FactorizationFailed`: its shift was escalated past what
    rounding in single precision explains."""
    z = np.asarray(z, dtype=np.float64).copy()
    d = bound_scaling_diag(z, p.u)
    factor = cholesky_factorize(form_normal_matrix(p.A, d, single))
    d_sq = d * d
    sigma = factor.diag_regularization
    if factor.single and sigma != 0.0:
        raise FactorizationFailed(f"single-precision factor needed a shift of {sigma:.2e}")

    v = np.random.default_rng(0xCACE).standard_normal(p.nrows)
    Mv = p.A.matvec(d_sq * p.A.rmatvec(v)) + sigma * v
    err = np.linalg.norm(factor.product(v) - Mv) / ((factor.diag_max + sigma) * np.linalg.norm(v))
    # a stale factor errs at the size of the scaling change (>= _THETA); a
    # correct one at rounding level u, whatever the condition number, so
    # a bound near sqrt(u) separates the two by many orders of magnitude:
    # 1e-8 in double, 2.3e-4 in single
    bound = _PROBE_BOUND * math.sqrt(factor.unit_roundoff / _DOUBLE_ROUNDOFF)
    if not err <= bound:  # a NaN error fails too
        raise NumericalBreakdown(f"preconditioner probe failed (backward error {err:.2e})")
    return PreconditionerCache(z=z, factor=factor, d_sq=d_sq)


class NormalSolver:
    """The one place where an engine factors ``A D^2 A^T`` or runs PCG on
    it, and the one count of that work.

    Its one factor is its cache's, which :meth:`pcg` preconditions with.
    :meth:`factorize` and a refresh drop it before they assemble the
    next, so one m x m array lives at a time unless a caller keeps one.
    ``factorizations`` counts every factorization requested, one that
    raises or fails its probe included; ``cg_iterations`` counts every
    PCG iteration, a breakdown's included.

    With ``cfg`` it runs the primal engine's refresh rule: the cache,
    refreshed at a point by :func:`refresh_cache`, solves directly at its
    point and elsewhere preconditions PCG.  ``exact`` mode refreshes at x
    every iteration; ``delayed_scaling`` mode when the thresholded
    distance reaches ``_THETA``, and once after a PCG miss.

    A refresh factors in single precision where that pays
    (:func:`~lpipm.sparse.single_pays`), the one place in the package
    that does.  A single factor only preconditions: at its own point it
    runs PCG too, at most ``_SINGLE_ITERS`` iterations.  ``single`` is
    the precision of the next refresh, and it turns to double for good
    when a single factor fails, needs a shift or fails its probe, or
    misses while fresh: once ``kappa u`` in single precision is no
    longer small, a single factor costs more PCG than its
    factorization saves.  :meth:`factorize`, pd's, is always double.
    """

    def __init__(self, p: StandardLp, cfg: PrimalConfig | None = None):
        self.p = p
        self.cfg = cfg
        self.cache: PreconditionerCache | None = None
        self.factorizations = 0
        self.cg_iterations = 0
        self.converged = True  # every PCG run of at() since the last reset converged
        # the precision of the next refresh: single while it pays, double
        # for good from the first single factor that does not serve
        self.single = cfg is not None and single_pays(p.A)

    def factorize(self, d) -> CholeskyFactor:
        """Factor ``A D^2 A^T`` at the scaling ``d``; hold and return it."""
        self.factorizations += 1
        self.cache = None
        factor = cholesky_factorize(form_normal_matrix(self.p.A, d))
        self.cache = PreconditionerCache(z=None, factor=factor, d_sq=None)
        return factor

    def pcg(self, d_sq, rhs, tol: float, max_iter: int) -> CgOutcome:
        """PCG on ``A diag(d_sq) A^T t = rhs`` preconditioned by the factor."""
        A = self.p.A
        try:
            outcome = pcg_solve(
                lambda v: A.matvec(d_sq * A.rmatvec(v)), self.cache.factor, rhs, tol, max_iter
            )
        except NumericalBreakdown as exc:
            self.cg_iterations += exc.iterations
            raise
        self.cg_iterations += outcome.iterations
        return outcome

    def update(self, x) -> None:
        """Refresh the cache on schedule: every iteration in exact mode,
        else when there is no cache yet or x has moved ``_THETA`` from its
        point."""
        if self.cfg.mode == EXACT or self.cache is None or self._distance(x) >= _THETA:
            self._refresh(x)

    def _distance(self, x) -> float:
        return thresholded_distance(x, self.cache.z, x, NU)

    def _refresh(self, x) -> None:
        """Refresh the cache at x, in single precision while
        :attr:`single` holds.  A single factor that fails, needs a shift
        or fails its probe is redone in double, both counted, and turns
        :attr:`single` off for good."""
        self.factorizations += 1
        self.cache = None
        if self.single:
            try:
                self.cache = refresh_cache(self.p, x, single=True)
                return
            except (FactorizationFailed, NumericalBreakdown):
                self.single = False
                self.factorizations += 1
        self.cache = refresh_cache(self.p, x)

    def _cache_is_fresh(self, x) -> bool:
        """A refresh can only help when the cache point has actually moved;
        otherwise a PCG miss means the attainable residual floor was hit."""
        return self._distance(x) <= 0.1 * _THETA

    def scaling_point(self, x) -> np.ndarray:
        """x itself, or in delayed mode the delayed scaling point: cached
        values on the large coordinates, current ones on the small."""
        if self.cfg.mode == DELAYED_SCALING:
            return delayed_scaling_point(x, self.cache.z, NU)
        return x

    def at(self, w) -> Callable[[np.ndarray], np.ndarray]:
        """``rhs -> (A D_w^2 A^T)^{-1} rhs``: the cached factor's solve
        when the cache sits at w (every exact-mode row, and a delayed row
        that has just refreshed) and its factor is double, else
        :meth:`pcg` at w to ``cg_tol``, with at most ``_CG_MAX_ITER``
        iterations, or ``_SINGLE_ITERS`` where a single factor
        preconditions the very matrix it factors."""
        budget = _CG_MAX_ITER
        if np.array_equal(w, self.cache.z):
            if not self.cache.factor.single:
                return self.cache.factor.solve
            budget = _SINGLE_ITERS
        d = bound_scaling_diag(w, self.p.u)
        d_sq = d * d

        def solve(rhs):
            outcome = self.pcg(d_sq, rhs, self.cfg.cg_tol, budget)
            self.converged = self.converged and outcome.converged
            return outcome.solution

        return solve

    def direction(self, x, step):
        """Return ``step(w, self.at(w))`` with w the scaling point of x.
        After a PCG miss the cache is refreshed at x and the step
        recomputed, unless the cache is already fresh and double: a miss
        on a fresh single factor switches the solver to double for good
        (:meth:`_refresh`).  Right after a refresh the cache is fresh, so
        this retries at most twice."""
        while True:
            self.converged = True
            w = self.scaling_point(x)
            out = step(w, self.at(w))
            if self.converged:
                return out
            if self._cache_is_fresh(x):
                if not self.cache.factor.single:
                    return out
                self.single = False
            self._refresh(x)

    def predictor(self, x, step):
        """``step(w, solve)`` at the scaling point w of x on the standing
        cache, never refreshed; None after a PCG miss."""
        self.converged = True
        w = self.scaling_point(x)
        out = step(w, self.at(w))
        return out if self.converged else None

    def repair(self, dx, r_p=None) -> np.ndarray:
        """Feasibility repair of a step, restoring ``A dx = -r_p`` (0 when
        ``r_p`` is None) to the accuracy of one solve with the cached
        factor; after a direct solve on that factor it is one step of
        iterative refinement.  A single factor keeps a share of about
        ``kappa u`` of the error, in single precision, of steps that PCG
        already solved to ``cg_tol``: on sparse_wide's instances (seeds
        1, 4 and 7) ``e_p`` stays at or below 1.4e-15 once on the
        feasible path, as with a double factor, against the path's
        ``_FEASIBLE_PATH_TOL`` of 1e-12.

        The error ``zeta = A dx + r_p`` is removed in the metric of the
        cache point: ``dx - D_z^2 A^T F^{-1} zeta``, with ``F`` the cached
        factor of ``A D_z^2 A^T``.  That correction moves each coordinate
        in proportion to its squared scale, so it cannot push a coordinate
        near a bound across it.  The least-norm :func:`feasibility_repair`
        spreads it evenly instead, and on degenerate LPs, where
        coordinates sit near 1e-10, that cuts full steps short until the
        solve stalls."""
        A = self.p.A
        zeta = A.matvec(dx) if r_p is None else A.matvec(dx) + r_p
        return dx - self.cache.d_sq * A.rmatvec(self.cache.factor.solve(zeta))


# ---------------------------------------------------------------------------
# direction operations
# ---------------------------------------------------------------------------


def ratio_test(x, dx, fraction: float, u) -> float:
    """Largest step (capped at 1) keeping ``x + alpha dx`` strictly inside
    the box: ``alpha = min(1, fraction * min(-x_j / dx_j : dx_j < 0))``,
    plus the mirrored test against finite upper bounds."""
    x = np.asarray(x, dtype=np.float64)
    dx = np.asarray(dx, dtype=np.float64)
    limit = np.inf
    neg = dx < 0.0
    if neg.any():
        limit = float(np.min(-x[neg] / dx[neg]))
    u = np.asarray(u, dtype=np.float64)
    pos = (dx > 0.0) & np.isfinite(u)
    if pos.any():
        limit = min(limit, float(np.min((u[pos] - x[pos]) / dx[pos])))
    return min(1.0, fraction * limit)


def feasibility_repair(p: StandardLp, dx_raw, zeta=None, aat_factor: CholeskyFactor = None) -> np.ndarray:
    """Least-norm correction removing the constraint-space error of an
    inexact step: ``dx - A^T (A A^T)^{-1} zeta`` with ``zeta = A dx`` by
    default.  Without ``aat_factor``, a :class:`NormalSolver` of its own
    factors ``A A^T``."""
    dx_raw = np.asarray(dx_raw, dtype=np.float64)
    if zeta is None:
        zeta = p.A.matvec(dx_raw)
    if aat_factor is None:
        aat_factor = NormalSolver(p).factorize(np.ones(p.ncols))
    return dx_raw - p.A.rmatvec(aat_factor.solve(zeta))


class Direction(NamedTuple):
    dx: np.ndarray
    y: np.ndarray
    s: np.ndarray
    delta: float | None


def projected_direction(
    p: StandardLp,
    x: np.ndarray,
    w: np.ndarray,
    mu: float,
    y: np.ndarray,
    solve: Callable[[np.ndarray], np.ndarray],
    r_p: np.ndarray | None = None,
) -> Direction:
    """Projected Newton direction at x with the normal matrix scaled at w:
    ``-D_w P_{A D_w} D_x^{-1} D_w v`` with ``v = D_x ((c - A^T y)/mu - grad)``,
    where ``solve`` applies the inverse of ``A D_w^2 A^T``.

    At ``w = x`` this is the projected Newton direction ``-D P_{AD} v``;
    at the delayed scaling point it is the surrogate that keeps a cached
    factorization useful.  With a primal residual ``r_p = A x - b`` the
    solve's right-hand side gains ``-r_p``, and the step, which then
    satisfies ``A dx = -r_p``, is the infeasible-start Newton step of
    the barrier problem.  With a dual estimate ``y`` whose ``A^T y + s - c``
    is small, ``v`` stays bounded as mu shrinks (with ``c/mu`` instead,
    cancellation costs roughly ``log10(1/mu)`` digits); ``y = 0`` gives
    the plain direction.  The returned dual pair satisfies
    ``A^T y + s = c`` exactly.  ``delta`` is the local norm
    ``||D_x^{-1} dx||`` when ``w`` is ``x`` itself, else None; without
    ``r_p`` it is the proximity ``||P_{AD} v||``.  The step is not
    repaired.
    """
    at_x = w is x
    d_x = bound_scaling_diag(x, p.u)
    d_w = d_x if at_x else bound_scaling_diag(w, p.u)
    v = d_x * ((p.c - p.A.rmatvec(y)) / mu - barrier_gradient(p, x))
    g = (d_w / d_x) * v
    dx, t, At = _project(p, d_w, g, solve, r_p)
    delta = float(np.linalg.norm(g - d_w * At)) if at_x else None
    y_new = y + mu * t
    return Direction(dx, y_new, p.c - p.A.rmatvec(y_new), delta)


def affine_direction(
    p: StandardLp,
    w: np.ndarray,
    mu: float,
    y: np.ndarray,
    solve: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """The projected direction without its barrier term,
    ``-D_w P_{A D_w} D_w (c - A^T y) / mu``.  On the central path at mu,
    where ``c - A^T y`` is ``-mu`` times the barrier gradient, it is the
    tangent ``-mu dx/dmu`` at ``w = x``, so a step ``gamma`` along it
    predicts the path point at ``(1 - gamma) mu``.  The step is not
    repaired."""
    d_w = bound_scaling_diag(w, p.u)
    return _project(p, d_w, d_w * ((p.c - p.A.rmatvec(y)) / mu), solve)[0]


def _project(p: StandardLp, d_w, g, solve, r_p=None):
    """``(-D_w P_{A D_w} g, t, A^T t)``, with ``t`` the solution of
    ``A D_w^2 A^T t = A D_w g`` by ``solve``, so that ``P g = g - D_w A^T t``.
    With ``r_p`` the right-hand side is ``A D_w g - r_p`` and the first
    entry ``-D_w (g - D_w A^T t)`` satisfies ``A dx = -r_p`` instead."""
    rhs = p.A.matvec(d_w * g)
    t = solve(rhs if r_p is None else rhs - r_p)
    At = p.A.rmatvec(t)
    return -d_w * g + (d_w * d_w) * At, t, At


# ---------------------------------------------------------------------------
# the engine loop
# ---------------------------------------------------------------------------


def _split_composite_dual(p: StandardLp, x, s_composite):
    """Split c - A^T y into s >= 0 and an upper-bound multiplier v >= 0.

    The positive-part split is the gap-minimizing choice of v subject to
    both signs, and it converges to the exact active-bound multipliers
    (v = mu/(u-x) would keep oscillating with the barrier schedule).
    Both are zero off the bounded coordinates."""
    fi = p.bounded
    v = np.zeros_like(s_composite)
    v[fi] = np.maximum(-s_composite[fi], 0.0)
    w = np.zeros_like(s_composite)
    w[fi] = p.u[fi] - x[fi]
    return s_composite + v, v, w


def primal_solve(
    p: StandardLp,
    cfg: PrimalConfig,
    start: IterateState,
    trace_log=None,
    collect_iterates: bool = False,
) -> SolveResult:
    """Run the primal barrier iteration in the configured mode from the
    complete state ``start``, whose ``mu`` is the first barrier target
    (1 when it is not positive).  Trace rows are numbered on from the
    rows already in ``trace_log``.  Collected iterates are copies of the
    state, bound pair included, with ``mu`` the target of their step.  The
    solve starts without a cache: in the delayed mode the first
    iteration factors at the start point, and its trace row says so.
    The step lengths of a row are computed only when there is a trace to
    write.

    Every iteration takes one Newton step, :func:`projected_direction`
    at the scaling point, and splits its dual pair into ``(s, v)``.  Off
    the feasible path (``max(e_p, e_d)`` above ``_FEASIBLE_PATH_TOL``)
    the solve carries ``-r_p``, the step is the infeasible-start Newton
    step, and the repair restores ``A dx = -r_p``; being feasible gates
    only the predictor and the schedule below.  A row's ``delta`` is the
    step's local norm ``||D_x^{-1} dx||`` when the step is scaled at x
    (``exact`` mode): on the feasible path, the proximity to the central
    point of its target.

    The barrier target of an iteration's Newton step is the scheduled
    target ``mu``, lowered by the tangent predictor.  In the delayed
    mode, on the feasible path and once a cache stands, the predictor
    solves :func:`affine_direction` with ``mu_c``, the target of the
    previous step, on that cache without refreshing it.  It takes
    ``gamma = 0.9 min(1, step to the boundary)`` along the repaired
    direction and targets ``min(mu, (1 - gamma) mu_c)``.  A PCG miss skips it (``gamma = 0``); ``exact`` mode and
    infeasible steps take none.  ``mu_c`` is a target, never the
    measured complementarity, which the split dual estimate can drive
    below zero on boxed problems.  The trace row's ``predictor_step``
    is ``gamma``; its step lengths run from the iterate at the start of
    the iteration.

    The next scheduled target follows the Newton step just taken.  With
    ``mu`` the target of that step, ``alpha`` its length from
    :func:`ratio_test` and ``mu_meas`` the complementarity measured at
    the new iterate:

    * a full step (``alpha = 1``) on the feasible path sets
      ``mu+ = min((1 - tau) mu, max((1 - tau) mu_meas, mu / 2))``: the cut
      follows the iterate, is never smaller than the fixed cut and never
      more than 2x below it;
    * a damped step (``alpha < 1``), feasible or not, sets
      ``mu+ = (1 - tau alpha) mu``: the target falls only as far as the
      iterate moved;
    * a full infeasible step sets ``mu+ = (1 - tau) mu``.

    The ``mu / 2`` bound is derived, not tuned: a Newton step toward
    ``mu+`` scales a centered coordinate by ``2 - mu / mu+``, which is
    at most 0 once ``mu+ <= mu / 2``, so no full step can take a larger
    cut.  ``_STALL_STEPS`` steps in a row shorter than ``_STALL_ALPHA``
    end the solve with ``NumericalFailure`` and a "stalled" message
    (the hybrid then falls back to primal-dual).
    """
    t_start = time.perf_counter()
    A = p.A
    n = p.ncols
    fi = p.bounded
    tau = cfg.effective_tau(n)
    st = start.copy()
    if np.any(st.x <= 0.0):
        raise ValueError("starting point must satisfy x > 0")
    if np.any(st.x[fi] >= p.u[fi]):
        raise ValueError("starting point must satisfy x < u")

    if st.mu <= 0.0:
        st.mu = 1.0
    mu = st.mu
    mu_used = mu  # the target of the last step taken: the predictor's mu_c

    solver = NormalSolver(p, cfg)
    iterations = 0
    status = SolveStatus.ITERATION_LIMIT
    message = ""
    iterates = []
    e_p = e_d = e_g = float("inf")
    short_steps = 0  # consecutive steps shorter than _STALL_ALPHA

    try:
        for k in range(1, cfg.max_iter + 1):
            e_p, e_d, e_g = convergence_metrics(p, st)
            if max(e_p, e_d, e_g) <= cfg.tol:
                status = SolveStatus.OPTIMAL
                break
            if short_steps == _STALL_STEPS:
                raise NumericalBreakdown(
                    f"stalled: step length below {_STALL_ALPHA:g} "
                    f"for {_STALL_STEPS} iterations"
                )

            t0 = time.perf_counter()
            x = x_start = st.x
            factorizations_before = solver.factorizations
            cg_before = solver.cg_iterations
            feasible = max(e_p, e_d) <= _FEASIBLE_PATH_TOL
            gamma = 0.0
            if feasible and cfg.mode != EXACT and solver.cache is not None:
                # tangent predictor on the standing cache, normalized by
                # the target of the last step
                dx_aff = solver.predictor(
                    x, lambda w, solve: affine_direction(p, w, mu_used, st.y, solve)
                )
                if dx_aff is not None:
                    dx_aff = solver.repair(dx_aff)
                    gamma = _PREDICTOR_FRACTION * ratio_test(x, dx_aff, 1.0, p.u)
                    x = x + gamma * dx_aff
                    mu = min(mu, (1.0 - gamma) * mu_used)

            t1 = time.perf_counter()
            solver.update(x)
            t_factor = time.perf_counter() - t1

            # one Newton step for every iterate: off the feasible path its
            # solve carries -r_p.  y keeps (c - A^T y)/mu bounded where
            # c/mu is not
            r_p = None if feasible else A.matvec(x) - p.b
            direction = solver.direction(
                x, lambda w, solve: projected_direction(p, x, w, mu, st.y, solve, r_p)
            )
            dx = solver.repair(direction.dx, r_p)
            alpha = ratio_test(x, dx, _STEP_FRACTION, p.u)
            st.x = x + alpha * dx
            st.y = direction.y
            st.s, st.v, st.w = _split_composite_dual(p, st.x, direction.s)

            if np.any(st.x <= 0.0):
                raise NumericalBreakdown("iterate left the positive orthant")
            if np.any(st.x[fi] >= p.u[fi]):
                raise NumericalBreakdown("iterate crossed an upper bound")

            mu_used = mu
            if alpha < 1.0:
                # the target falls only as far as the iterate moved
                mu = (1.0 - tau * alpha) * mu
            elif feasible:
                measured = complementarity(p, st)
                mu = min((1.0 - tau) * mu, max((1.0 - tau) * measured, 0.5 * mu))
            else:
                mu = (1.0 - tau) * mu
            st.mu = mu
            short_steps = short_steps + 1 if alpha < _STALL_ALPHA else 0
            iterations = k
            t_solve = time.perf_counter() - t0 - t_factor
            if trace_log is not None:
                trace_log.add(
                    TraceRecord(
                        iter=len(trace_log) + 1,
                        phase="primal",
                        mu=mu_used,
                        e_p=e_p,
                        e_d=e_d,
                        e_g=e_g,
                        step_norm=float(np.linalg.norm(st.x - x_start)),
                        thresholded_step=thresholded_distance(st.x, x_start, st.x, NU),
                        delta=direction.delta,
                        alpha=alpha,
                        factorized=solver.factorizations > factorizations_before,
                        cg_iters=solver.cg_iterations - cg_before,
                        wall_factor_ms=t_factor * 1e3,
                        wall_solve_ms=t_solve * 1e3,
                        predictor_step=gamma,
                    )
                )
            if collect_iterates:
                it = st.copy()
                it.mu = mu_used
                iterates.append(it)
        else:
            e_p, e_d, e_g = convergence_metrics(p, st)
            if max(e_p, e_d, e_g) <= cfg.tol:
                status = SolveStatus.OPTIMAL
    except (FactorizationFailed, NumericalBreakdown, InteriorityViolation) as exc:
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
        factorizations=solver.factorizations,
        cg_iterations=solver.cg_iterations,
        wall_s=time.perf_counter() - t_start,
        iterates=iterates,
        message=message,
    )
