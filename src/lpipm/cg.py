"""Preconditioned conjugate gradient and a Lanczos condition probe."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .cholesky import CholeskyFactor
from .errors import NumericalBreakdown
from .sparse import NormalMatrix, SparseMatrix


# a true residual this close to the tolerance that stops falling is at
# the attainable floor
_FLOOR_FACTOR = 10.0


@dataclass(frozen=True)
class CgOutcome:
    solution: np.ndarray
    iterations: int
    relative_residual: float
    converged: bool


def pcg_solve(apply_M, precond: CholeskyFactor, rhs, rel_tol, max_iter) -> CgOutcome:
    """Standard PCG with a two-term recurrence.

    Stops when ``||M x - rhs|| / max(||rhs||, 1) <= rel_tol``.  The final
    residual is always recomputed from scratch so the reported value is
    immune to recurrence drift; when the recurrence claims convergence
    but the true residual disagrees, the iteration continues from the
    refreshed residual, recomputed every iteration from then on.  PCG
    minimizes the error in the M-norm, so the 2-norm of the residual may
    rise for an iteration; only when the true residual fails to fall
    below its smallest value on two checks in a row, or on one check
    once it lies within ``_FLOOR_FACTOR * rel_tol``, does the attainable
    floor of the solve lie above ``rel_tol``: the run stops there and
    reports no convergence.

    Finiteness is read off the dot products ``p.Mp`` and ``r.z`` the
    recurrence forms anyway: a NaN or infinite entry makes its dot
    product non-finite, also against a zero entry, so ``Mp`` or ``z`` is
    scanned only to tell which breakdown a non-finite product is.
    """
    if rel_tol <= 0.0:
        raise ValueError("rel_tol must be positive")
    rhs = np.asarray(rhs, dtype=np.float64)
    denom = max(float(np.linalg.norm(rhs)), 1.0)
    x = np.zeros_like(rhs)
    r = rhs.copy()
    if np.linalg.norm(r) / denom <= rel_tol:
        return CgOutcome(x, 0, float(np.linalg.norm(r)) / denom, True)

    z = precond.solve(r)
    p = z.copy()
    rz = float(r @ z)
    iterations = 0
    best_true = np.inf  # smallest true residual so far, once checked
    misses = 0  # consecutive checks that did not fall below best_true
    for _ in range(max_iter):
        iterations += 1
        Mp = apply_M(p)
        pMp = float(p @ Mp)
        if not 0.0 < pMp < math.inf:
            if not np.all(np.isfinite(Mp)):
                raise NumericalBreakdown("non-finite value in PCG matrix product", iterations)
            raise NumericalBreakdown("PCG curvature is not positive", iterations)
        alpha = rz / pMp
        x += alpha * p
        r -= alpha * Mp
        if best_true < np.inf or np.linalg.norm(r) / denom <= rel_tol:
            r = rhs - apply_M(x)
            true_rel = float(np.linalg.norm(r)) / denom
            if true_rel <= rel_tol:
                return CgOutcome(x, iterations, true_rel, True)
            misses = misses + 1 if true_rel >= best_true else 0
            if misses == 2 or (misses == 1 and true_rel <= _FLOOR_FACTOR * rel_tol):
                return CgOutcome(x, iterations, true_rel, False)
            best_true = min(best_true, true_rel)
        z = precond.solve(r)
        rz_new = float(r @ z)
        if not math.isfinite(rz_new) and not np.all(np.isfinite(z)):
            raise NumericalBreakdown("non-finite value in PCG preconditioner solve",
                                     iterations)
        beta = rz_new / rz
        p = z + beta * p
        rz = rz_new

    final = rhs - apply_M(x)
    rel = float(np.linalg.norm(final)) / denom
    return CgOutcome(x, iterations, rel, rel <= rel_tol)


def generalized_condition_probe(
    M1: NormalMatrix | SparseMatrix, M2_factor: CholeskyFactor, iters: int = 30
) -> float:
    """Estimate the generalized condition number kappa(M2^{-1/2} M1 M2^{-1/2}).

    Runs at most ``iters`` (at least 1) Lanczos steps with full
    reorthogonalization on the symmetrically preconditioned operator;
    the Ritz estimate is a lower bound of the true kappa.
    """
    if iters < 1:
        raise ValueError(f"iters must be at least 1, got {iters}")
    n = M1.nrows
    if M1.ncols != n or M2_factor.dimension != n:
        raise ValueError("probe dimensions do not match")

    def apply_C(v):
        a = M2_factor.half_solve_transpose(v)
        b = M1.matvec(a)
        return M2_factor.half_solve(b)

    rng = np.random.default_rng(0x5EED)
    q = rng.standard_normal(n)
    q /= np.linalg.norm(q)
    Q = [q]
    alphas, betas = [], []
    steps = min(int(iters), n)
    for k in range(steps):
        w = apply_C(Q[k])
        if not np.all(np.isfinite(w)):
            raise NumericalBreakdown("non-finite value in Lanczos iteration")
        a = float(Q[k] @ w)
        alphas.append(a)
        w = w - a * Q[k]
        if k > 0:
            w = w - betas[-1] * Q[k - 1]
        # full reorthogonalization keeps the Ritz extremes trustworthy
        for qj in Q:
            w -= (qj @ w) * qj
        b = float(np.linalg.norm(w))
        if b <= 1e-12 * max(abs(a), 1.0):
            break
        betas.append(b)
        Q.append(w / b)

    if len(alphas) == 1:
        return 1.0
    ev = sla.eigh_tridiagonal(
        np.asarray(alphas), np.asarray(betas[: len(alphas) - 1]), eigvals_only=True
    )
    lo = max(float(ev[0]), np.finfo(np.float64).tiny)
    return float(ev[-1]) / lo
