"""Central-path proximity and the distance machinery behind delayed scaling."""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import InteriorityViolation
from .problem import StandardLp, barrier_gradient


class Proximity(NamedTuple):
    delta: float
    y: np.ndarray
    s: np.ndarray


def proximity(
    p: StandardLp,
    x,
    mu: float,
    solver: Callable[[np.ndarray], np.ndarray],
    d=None,
) -> Proximity:
    """Centrality proximity of ``x`` with respect to ``mu``.

    Computes ``delta = || P_{AD} v ||`` with ``v = (1/mu) D c - D grad``
    through one normal-equation solve supplied by ``solver`` (a direct
    factor's solve or a PCG closure on ``A D^2 A^T``), where D is the
    primal scaling (bound-aware when the problem carries finite upper
    bounds, plain X otherwise, in which case v = (1/mu) X c - e).  The
    minimizing dual pair ``(y, s)`` falls out of the same solve and
    satisfies ``A^T y + s = c`` exactly.
    """
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0.0):
        raise InteriorityViolation("proximity needs x > 0")
    if d is None:
        d = bound_scaling_diag(x, p.u)
    grad = barrier_gradient(p, x)
    v = d * (p.c / mu - grad)
    t = solver(p.A.matvec(d * v))
    pvec = v - d * p.A.rmatvec(t)
    y = mu * t
    s = p.c - p.A.rmatvec(y)
    return Proximity(float(np.linalg.norm(pvec)), y, s)


def thresholded_distance(y, z, x, nu: float) -> float:
    """Distance between y and z, scaled by 1/x_j on coordinates with
    x_j >= nu and Euclidean on the rest (ties go to the scaled side)."""
    y = np.asarray(y, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if not (y.shape == z.shape == x.shape):
        raise ValueError("thresholded_distance needs vectors of equal length")
    if np.any(x <= 0.0):
        raise InteriorityViolation("thresholded_distance needs x > 0")
    scale = np.where(x >= nu, x, 1.0)
    return float(np.linalg.norm((y - z) / scale))


def delayed_scaling_point(x, z, nu: float) -> np.ndarray:
    """Take cached values z on the large coordinates (x_j >= nu) and the
    current values x on the small ones."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    w = np.where(x >= nu, z, x)
    if np.any(w <= 0.0):
        raise InteriorityViolation("delayed scaling point must stay positive")
    return w


def bound_scaling_diag(x, u) -> np.ndarray:
    """Barrier-Hessian scaling diagonal: x_j when u_j is infinite, else
    ``x (u - x) / sqrt(x^2 + (u - x)^2)``."""
    x = np.asarray(x, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if x.shape != u.shape:
        raise ValueError("bound_scaling_diag needs matching lengths")
    if np.any(x <= 0.0):
        raise InteriorityViolation("bound_scaling_diag needs x > 0")
    fi = np.flatnonzero(np.isfinite(u))
    xf = x[fi]
    gap = u[fi] - xf
    if np.any(gap <= 0.0):
        raise InteriorityViolation("bound_scaling_diag needs x < u")
    d = x.copy()
    d[fi] = xf * gap / np.sqrt(xf * xf + gap * gap)
    return d
