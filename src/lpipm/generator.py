"""Synthetic LP instances with planted optima and machine-checkable
certificates.

Instances are standard-form ``min <c,x> s.t. Ax = b, x >= 0`` built from
a strictly complementary planted solution: pick a basis support B with
|B| = m (or fewer when degenerate), draw ``x*_B > 0`` and ``s*_N > 0``,
and set ``b = A x*``, ``c = A^T y* + s*``.  The certificate records the
optimal objective and the supports so acceptance tests need no external
solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .mps import LpProblem, write_mps
from .sparse import SparseMatrix

_RANK_RETRIES = 5


@dataclass(frozen=True)
class Certificate:
    objective: float
    m: int
    n: int
    seed: int
    degenerate: bool
    basis: tuple
    dual_support: tuple


@dataclass(frozen=True)
class GeneratedInstance:
    mps_text: str
    certificate_text: str
    certificate: Certificate
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    x_star: np.ndarray
    y_star: np.ndarray
    s_star: np.ndarray


def _sample_sparse(rng, m, n, density):
    if density >= 1.0:
        return rng.standard_normal((m, n))
    A = np.zeros((m, n))
    per_col = max(1, int(round(density * m)))
    for j in range(n):
        rows = rng.choice(m, size=min(per_col, m), replace=False)
        A[rows, j] = rng.standard_normal(rows.size)
    return A


def generate_instance(
    m: int,
    n: int,
    seed: int,
    degenerate: bool = False,
    density: float = 0.25,
    spread: float = 0.0,
) -> GeneratedInstance:
    """Deterministic planted instance for a given seed.

    ``density`` is the per-column fill fraction, positive (>= 1 gives a
    dense A); ``spread`` >= 0 draws the basic values log-uniformly over
    that many decades when it is positive, which slows the primal-dual
    tail on larger instances.  Rank-deficient samples are redrawn up to
    5 times.
    """
    if m < 1:
        raise ValueError(f"need at least one row, got m = {m}")
    if m >= n:
        raise ValueError("need m < n")
    if not (math.isfinite(density) and density > 0.0):
        raise ValueError(f"density must be finite and positive, got {density}")
    if not (math.isfinite(spread) and spread >= 0.0):
        raise ValueError(f"spread must be finite and non-negative, got {spread}")
    for attempt in range(_RANK_RETRIES):
        rng = np.random.default_rng((seed, attempt))
        A = _sample_sparse(rng, m, n, density)
        # one pivoted QR gives the rank (|diag R| is non-increasing; the
        # cut is matrix_rank's, with |R_00| for the largest singular
        # value) and the independent columns for the planted support
        R, piv = sla.qr(A, pivoting=True, mode="r")
        if abs(R[m - 1, m - 1]) > abs(R[0, 0]) * n * np.finfo(np.float64).eps:
            break
    else:
        raise ValueError(f"could not draw a full-row-rank {m}x{n} matrix in "
                         f"{_RANK_RETRIES} attempts")

    support_size = m if not degenerate else m - max(1, m // 5)
    basis = np.sort(piv[:support_size])
    nonbasis = np.setdiff1d(np.arange(n), basis)

    x_star = np.zeros(n)
    if spread > 0.0:
        x_star[basis] = 10.0 ** rng.uniform(-spread / 2.0, spread / 2.0, basis.size)
    else:
        x_star[basis] = rng.uniform(0.5, 2.0, basis.size)
    y_star = rng.standard_normal(m)
    s_star = np.zeros(n)
    s_star[nonbasis] = rng.uniform(0.5, 2.0, nonbasis.size)

    b = A @ x_star
    c = A.T @ y_star + s_star
    objective = float(c @ x_star)

    rows = [f"R{i + 1}" for i in range(m)]
    cols = [f"X{j + 1}" for j in range(n)]
    prob = LpProblem(
        name=f"PLANT{seed}",
        row_names=rows,
        row_types=dict.fromkeys(rows, "E"),
        objective_name="COST",
        col_names=cols,
        A=SparseMatrix.from_dense(A),
        objective={name: v for name, v in zip(cols, c.tolist()) if v != 0.0},
        rhs={name: v for name, v in zip(rows, b.tolist()) if v != 0.0},
    )

    cert = Certificate(
        objective=objective,
        m=m,
        n=n,
        seed=seed,
        degenerate=degenerate,
        basis=tuple(int(j) for j in basis),
        dual_support=tuple(int(j) for j in nonbasis),
    )
    return GeneratedInstance(
        mps_text=write_mps(prob),
        certificate_text=format_certificate(cert),
        certificate=cert,
        A=A,
        b=b,
        c=c,
        x_star=x_star,
        y_star=y_star,
        s_star=s_star,
    )


def format_certificate(cert: Certificate) -> str:
    lines = [
        f"objective={cert.objective:.17g}",
        f"m={cert.m}",
        f"n={cert.n}",
        f"seed={cert.seed}",
        f"degenerate={int(cert.degenerate)}",
        "basis=" + " ".join(str(j) for j in cert.basis),
        "dual_support=" + " ".join(str(j) for j in cert.dual_support),
    ]
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> Certificate:
    kv = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        kv[key] = value
    return Certificate(
        objective=float(kv["objective"]),
        m=int(kv["m"]),
        n=int(kv["n"]),
        seed=int(kv["seed"]),
        degenerate=bool(int(kv["degenerate"])),
        basis=tuple(int(t) for t in kv["basis"].split()) if kv["basis"] else (),
        dual_support=tuple(int(t) for t in kv["dual_support"].split())
        if kv["dual_support"]
        else (),
    )
