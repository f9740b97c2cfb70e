"""The distance machinery behind delayed scaling, and the barrier-Hessian
scaling diagonal.  The central-path proximity is the ``delta`` of the
primal engine's direction (``lpipm.primal.projected_direction``) at
``w = x`` without a primal residual."""

from __future__ import annotations

import numpy as np

from .errors import InteriorityViolation

NU = 1.0  # scaled distances measure x_j >= NU relative to x_j, the rest absolutely


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
