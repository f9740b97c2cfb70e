"""Spectral diagnostics along an iterate sequence.

For consecutive primal iterates the probe reports the generalized
condition number of the current primal normal matrix preconditioned by
the anchor iterate's factorization (the quantity the reuse strategy
relies on staying small), with the condition number of the primal-dual
normal matrix ``A X S^{-1} A^T`` alongside for contrast.  Only the
anchor's normal matrix is assembled, to be factored; the probe applies
each iterate's ``A D^2 A^T`` matrix-free, as ``v -> A (d^2 (A^T v))``.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .cg import generalized_condition_probe
from .cholesky import cholesky_factorize
from .problem import StandardLp
from .scaling import bound_scaling_diag
from .sparse import form_normal_matrix

_S_FLOOR_REL = 1e-16


@dataclass(frozen=True)
class SpectraRow:
    iteration: int
    kappa_reuse: float
    kappa_pd: float


def probe_spectra(p: StandardLp, states, anchor: int = 0, iters: int = 30) -> list:
    """Condition probes over an iterate window.

    ``states`` is a sequence of objects with ``x`` (and ``s``) arrays;
    the anchor index selects which iterate's normal matrix becomes the
    reused preconditioner.  Negative reduced costs (possible for primal
    dual estimates) are floored away from zero before forming the
    primal-dual normal matrix.
    """
    states = list(states)
    if not states:
        return []
    if not 0 <= anchor < len(states):
        raise ValueError("anchor index out of range")
    anchor_x = np.asarray(states[anchor].x, dtype=np.float64)
    d_anchor = bound_scaling_diag(anchor_x, p.u)
    anchor_factor = cholesky_factorize(form_normal_matrix(p.A, d_anchor))
    A = p.A.to_dense()

    rows = []
    for j, st in enumerate(states):
        x = np.asarray(st.x, dtype=np.float64)
        d_sq = bound_scaling_diag(x, p.u) ** 2
        kappa_reuse = generalized_condition_probe(
            lambda v: p.A.matvec(d_sq * p.A.rmatvec(v)), anchor_factor, iters)
        s = np.asarray(st.s, dtype=np.float64)
        floor = _S_FLOOR_REL * max(float(np.abs(s).max()), 1.0)
        s_safe = np.maximum(s, floor)
        # the contrast column is diagnostic only; its spectrum clusters at
        # the tiny end where Lanczos saturates, so report the exact kappa,
        # from the singular values of B = A diag(sqrt(x/s)): those of
        # B B^T round to zero or below where B's do not
        sv = np.linalg.svd(A * np.sqrt(x / s_safe), compute_uv=False)
        kappa_pd = float(sv[0] / sv[-1]) ** 2
        rows.append(SpectraRow(iteration=j, kappa_reuse=kappa_reuse, kappa_pd=kappa_pd))
    return rows


def spectra_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["iteration", "kappa_reuse", "kappa_pd"])
    for r in rows:
        writer.writerow([r.iteration, f"{r.kappa_reuse:.17g}", f"{r.kappa_pd:.17g}"])
    return buf.getvalue()
