"""Preconditioned conjugate gradient.

It takes the matrix as an operator ``apply_M`` and the preconditioner
as a :class:`~lpipm.cholesky.CholeskyFactor`: it assembles no matrix,
so on ``M = A D^2 A^T`` the caller passes ``v -> A (d^2 (A^T v))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cholesky import CholeskyFactor
from .errors import NumericalBreakdown


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
    scanned only to tell which breakdown a non-finite product is.  The
    loop runs with numpy's invalid and overflow warnings off, so a
    breakdown surfaces as :class:`NumericalBreakdown` alone, also where
    warnings are raised as errors.
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
    with np.errstate(invalid="ignore", over="ignore"):
        for _ in range(max_iter):
            iterations += 1
            Mp = apply_M(p)
            pMp = float(p @ Mp)
            if not 0.0 < pMp < math.inf:
                if not np.all(np.isfinite(Mp)):
                    raise NumericalBreakdown("non-finite value in PCG matrix product",
                                             iterations)
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
