"""Termination by projection onto the optimal face.

Near the end of a primal-dual path the scaling ``d^2`` splits the
columns: it grows without bound on the basic ones and falls to zero on
the rest.  The m columns with the largest ``d^2``, less the bounded
columns nearer their upper bound than their lower (``w < v``), are a
candidate basis ``B``; those bounded columns form ``U`` and sit at
``u``, and the rest ``N`` at zero.  With ``D_B^2`` the scaling set to
zero off ``B``, the projection onto that face is

    (A D_B^2 A^T) t = b - A x_U,   x_B = D_B^2 A^T t,
    (A D_B^2 A^T) y = A D_B^2 c,   s = c - A^T y,

with ``s_B = s_U = 0`` and ``v_U = -(c - A^T y)_U`` (Mehrotra and Ye,
"Finding an interior point in the optimal face of linear programs",
Math. Prog. 1993).  When ``A_B`` is square and nonsingular this is
``x_B = A_B^-1 (b - A_U u)`` and ``y = A_B^-T c_B``, the vertex of the
basis.  Near the face ``A D^2 A^T`` is close to ``A D_B^2 A^T``, so the
factor the engine has just built preconditions both systems almost
exactly, and PCG solves each in a few iterations without slicing or
densifying ``A_B``.

A projection is worth trying only when its PCG can cost less than a
factorization: :func:`pcg_budget` gives the iterations one solve may
take, and an engine skips the try below :data:`MIN_PCG_BUDGET`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .cg import pcg_solve
from .cholesky import CholeskyFactor
from .errors import NumericalBreakdown
from .problem import IterateState, StandardLp, complementarity, convergence_metrics

# the last iterates of a path take 2 to 5 PCG iterations per face system;
# a budget below this is spent before the projection can be exact
MIN_PCG_BUDGET = 4
# relative PCG residual of each face system, as a share of the solve's
# tol: on sparse_wide, 1e-2 left max(e_p, e_d, e_g) at up to 6e-11 against
# tol 1e-10, 1e-3 at up to 1e-12 for at most two more PCG iterations a try;
# the acceptance test, not this share, decides whether the point is optimal
_CG_TOL_SHARE = 1e-3


class FaceProjection(NamedTuple):
    """Outcome of one try: ``state`` is the projected point when it passed
    every check and None otherwise; ``cg_iterations`` is the PCG work of
    the try, accepted or not."""

    state: IterateState | None
    cg_iterations: int


def pcg_budget(factor: CholeskyFactor, nnz: int) -> int:
    """PCG iterations one face solve may take before it costs a quarter
    of a factorization: ``floor(F / (4 P))`` with ``F = r^3/3`` the flops
    of the dense factor (``r`` its order) and ``P = 4 r^2 + 4 nnz(A)``
    those of one PCG iteration (two triangular solves and a product with
    ``A D^2 A^T``)."""
    r = factor.L.shape[0]
    return int((r**3 / 3.0) // (4.0 * (4.0 * r * r + 4.0 * nnz)))


def face_partition(p: StandardLp, st: IterateState, d2: np.ndarray):
    """Boolean masks ``(B, U)`` of the candidate face at ``st``: ``B`` the
    m largest entries of ``d2`` less ``U``, and ``U`` the bounded columns
    with ``w < v``."""
    n, m = p.ncols, p.nrows
    at_upper = np.zeros(n, dtype=bool)
    fi = p.bounded
    at_upper[fi] = st.w[fi] < st.v[fi]
    basic = np.zeros(n, dtype=bool)
    basic[np.argpartition(d2, n - m)[n - m:]] = True
    basic &= ~at_upper
    return basic, at_upper


def project_onto_face(
    p: StandardLp,
    factor: CholeskyFactor,
    d2: np.ndarray,
    basic: np.ndarray,
    at_upper: np.ndarray,
    max_iter: int,
    tol: float,
) -> FaceProjection:
    """Project onto the face ``(basic, at_upper)`` (see the module
    docstring) with PCG on ``A D_B^2 A^T``, preconditioned by ``factor``
    of ``A D^2 A^T``, at most ``max_iter`` iterations per system.

    The point is accepted when ``x_B`` lies strictly inside its box,
    ``s_N >= 0``, ``v >= 0`` and every convergence metric is at most
    ``tol``.  Each system is solved to a relative residual of
    ``_CG_TOL_SHARE * tol``.  A PCG breakdown, as on a singular face, is
    a rejection; the iterations of a system that broke down count."""
    A, n = p.A, p.ncols
    d2_B = np.where(basic, d2, 0.0)
    cg_tol = _CG_TOL_SHARE * tol

    def apply(v):
        return A.matvec(d2_B * A.rmatvec(v))

    x = np.zeros(n)
    x[at_upper] = p.u[at_upper]
    cg_iterations = 0
    try:
        t = pcg_solve(apply, factor, p.b - A.matvec(x), cg_tol, max_iter)
        cg_iterations += t.iterations
        x[basic] = (d2_B * A.rmatvec(t.solution))[basic]
        x_B = x[basic]
        if not np.all(x_B > 0.0) or not np.all(x_B < p.u[basic]):
            return FaceProjection(None, cg_iterations)
        dual = pcg_solve(apply, factor, A.matvec(d2_B * p.c), cg_tol, max_iter)
        cg_iterations += dual.iterations
    except NumericalBreakdown as exc:
        return FaceProjection(None, cg_iterations + exc.iterations)

    y = dual.solution
    s = p.c - A.rmatvec(y)
    v = np.zeros(n)
    v[at_upper] = -s[at_upper]
    s[basic | at_upper] = 0.0
    if np.any(s < 0.0) or np.any(v < 0.0):
        return FaceProjection(None, cg_iterations)
    w = np.zeros(n)
    fi = p.bounded
    w[fi] = p.u[fi] - x[fi]
    st = IterateState(x=x, y=y, s=s, mu=0.0, w=w, v=v)
    st.mu = complementarity(p, st)
    if max(convergence_metrics(p, st)) > tol:
        return FaceProjection(None, cg_iterations)
    return FaceProjection(st, cg_iterations)
