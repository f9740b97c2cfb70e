"""Spectral diagnostics along an iterate sequence.

For consecutive primal iterates the probe reports the generalized
condition number of the current primal normal matrix preconditioned by
the normal matrix at the window's first iterate, the anchor (the
quantity the reuse strategy relies on staying small), with the condition
number of the primal-dual normal matrix ``A X S^{-1} A^T`` alongside for
contrast.  Both columns are exact, from singular values
(:func:`condition_number`): no normal matrix is formed, so a condition
number past ``1/eps``, where the eigenvalues of ``A D^2 A^T`` round to
zero, is still read.  Both are read on a maximal set of independent rows
of ``A``, so a repeated or a zero row changes neither.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .problem import StandardLp
from .scaling import bound_scaling_diag

_S_FLOOR_REL = 1e-16


@dataclass(frozen=True)
class SpectraRow:
    iteration: int
    kappa_reuse: float
    kappa_pd: float


def condition_number(B, R=None) -> float:
    """The condition number of ``B B^T`` or, given an upper-triangular
    ``R``, the generalized one of the pencil ``(B B^T, R^T R)``.

    It is ``(sigma_max / sigma_min)^2`` of ``R^-T B``, one triangular
    solve and one SVD; with ``R`` from the QR factorization
    ``B_0^T = Q R``, ``R^T R = B_0 B_0^T`` is the anchor's normal matrix.
    """
    if R is not None:
        B = sla.solve_triangular(R, B, trans="T")
    sv = np.linalg.svd(B, compute_uv=False)
    return float(sv[0] / sv[-1]) ** 2


def _independent_rows(A: np.ndarray) -> np.ndarray:
    """``A`` cut to a maximal set of independent rows, kept in order (one
    pivoted QR of ``A^T``, with ``generate_instance``'s rank cut); a
    full-rank ``A`` as it is.  On the range of ``A`` the pencil
    ``(A D_j^2 A^T, A D_0^2 A^T)`` is the kept rows' pencil."""
    R, piv = sla.qr(A.T, pivoting=True, mode="r")
    diag = np.abs(np.diagonal(R))
    rank = np.count_nonzero(diag > diag[0] * max(A.shape) * np.finfo(np.float64).eps)
    return A if rank == A.shape[0] else A[np.sort(piv[:rank])]


def probe_spectra(p: StandardLp, states) -> list:
    """Exact condition numbers over an iterate window.

    ``states`` is a sequence of objects with ``x`` (and ``s``) arrays;
    the first one's primal normal matrix ``A D_0^2 A^T`` is the anchor,
    factored once by QR.  Negative reduced costs (possible for primal
    dual estimates) are floored away from zero before forming the
    primal-dual scaling.  A rank-deficient ``A`` is probed on a maximal
    set of its independent rows (:func:`_independent_rows`).
    """
    states = list(states)
    if not states:
        return []
    A = _independent_rows(p.A.to_dense())
    R = np.linalg.qr((A * bound_scaling_diag(states[0].x, p.u)).T, mode="r")

    rows = []
    for j, st in enumerate(states):
        x = np.asarray(st.x, dtype=np.float64)
        kappa_reuse = condition_number(A * bound_scaling_diag(x, p.u), R)
        s = np.asarray(st.s, dtype=np.float64)
        floor = _S_FLOOR_REL * max(float(np.abs(s).max()), 1.0)
        kappa_pd = condition_number(A * np.sqrt(x / np.maximum(s, floor)))
        rows.append(SpectraRow(iteration=j, kappa_reuse=kappa_reuse, kappa_pd=kappa_pd))
    return rows


def spectra_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["iteration", "kappa_reuse", "kappa_pd"])
    for r in rows:
        writer.writerow([r.iteration, f"{r.kappa_reuse:.17g}", f"{r.kappa_pd:.17g}"])
    return buf.getvalue()
