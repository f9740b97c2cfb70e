"""Shared helpers: dense oracles and random instance factories."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import lpipm.sparse
from lpipm import IterateState, RecoveryMap, SparseMatrix, StandardLp, form_normal_matrix


def dense_projection(B: np.ndarray) -> np.ndarray:
    """P_B = I - B^T (B B^T)^{-1} B computed densely."""
    n = B.shape[1]
    return np.eye(n) - B.T @ np.linalg.solve(B @ B.T, B)


def dense_proximity(A: np.ndarray, x: np.ndarray, c: np.ndarray, mu: float) -> float:
    v = x * c / mu - 1.0
    return float(np.linalg.norm(dense_projection(A * x[np.newaxis, :]) @ v))


def dense_primal_direction(A, x, c, mu) -> np.ndarray:
    v = x * c / mu - 1.0
    return -x * (dense_projection(A * x[np.newaxis, :]) @ v)


def normal_matrix(A, d=None):
    """``form_normal_matrix`` of ``A`` (a dense array or a SparseMatrix) at
    the scaling ``d``, ones by default, and its reference ``(A d)(A d)^T``
    formed independently, by numpy on the dense ``A``.

    A hand-made symmetric matrix ``M`` goes in as a factor ``A`` with
    ``A A^T = M``.  The matrix keeps only the lower triangle of
    ``A D^2 A^T``, so a test compares against the reference."""
    S = A if isinstance(A, SparseMatrix) else SparseMatrix.from_dense(A)
    d = np.ones(S.ncols) if d is None else np.asarray(d, dtype=np.float64)
    B = S.to_dense() * d
    return form_normal_matrix(S, d), B @ B.T


def random_full_rank(rng, m, n, density=1.0) -> np.ndarray:
    for _ in range(20):
        if density >= 1.0:
            A = rng.standard_normal((m, n))
        else:
            A = rng.standard_normal((m, n))
            A[rng.random((m, n)) > density] = 0.0
        if np.linalg.matrix_rank(A) == m:
            return A
    raise RuntimeError("could not draw a full-rank matrix")


def standard_lp_from_dense(A, b, c, u=None) -> StandardLp:
    A = np.asarray(A, dtype=np.float64)
    n = A.shape[1]
    return StandardLp(
        A=SparseMatrix.from_dense(A),
        b=np.asarray(b, dtype=np.float64),
        c=np.asarray(c, dtype=np.float64),
        u=np.full(n, np.inf) if u is None else np.asarray(u, dtype=np.float64),
        recovery=RecoveryMap(np.zeros(n), np.arange(n), np.ones(n), 0.0, "min"),
    )


_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def boxed_ranged_instance(seed=1):
    """Instance 0 of the benchmark's boxed_ranged family at ``--smoke
    --seed <seed>``: a planted 20x50 LP with upper bounds and RANGES, as
    MPS text with its reference objective."""
    spec = importlib.util.spec_from_file_location("workloads", _WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules["workloads"] = workloads  # its dataclasses look the module up there
    spec.loader.exec_module(workloads)
    return workloads.build("boxed_ranged", seed, smoke=True)[0]


def feasible_instance(rng, m, n, density=1.0):
    """Random instance with a known strictly feasible interior point:
    b = A x0 with x0 > 0 and c = A^T y0 + s0 with s0 > 0."""
    A = random_full_rank(rng, m, n, density)
    x0 = rng.uniform(0.5, 2.0, n)
    y0 = rng.standard_normal(m)
    s0 = rng.uniform(0.5, 2.0, n)
    b = A @ x0
    c = A.T @ y0 + s0
    p = standard_lp_from_dense(A, b, c)
    state = IterateState(
        x=x0, y=y0, s=s0, mu=float(x0 @ s0) / n, w=np.zeros(n), v=np.zeros(n)
    )
    return p, state


def sparse_fill_A(rng, m, n):
    """An identity block followed by columns of two entries each: full
    row rank, filled below ``DENSE_FILL``.  From m 500, n 1100 its plan
    takes a round of elimination under its own constants and leaves a
    dense factor of more than one row."""
    B = np.zeros((m, n))
    B[:, :m] = np.eye(m)
    for j in range(m, n):
        B[rng.choice(m, 2, replace=False), j] = rng.standard_normal(2)
    return SparseMatrix.from_dense(B)


def take_every_round(patch):
    """Make a sparse ``A`` built afterwards take every round of elimination
    that finds a row, at any size: the normal matrices of tier-1 are too
    small to pay for a round on their own."""
    patch.setattr(lpipm.sparse, "MIN_SAVED_FLOPS", 0.0)
    patch.setattr(lpipm.sparse, "PAIR_FLOPS", 0.0)


@pytest.fixture
def rounds_always(monkeypatch):
    """A sparse ``A`` built in the test takes every round of elimination
    that finds a row (:func:`take_every_round`)."""
    take_every_round(monkeypatch)


def eliminated_rows(levels, m):
    """The rows of an order-``m`` matrix that each of the factor levels
    eliminates, and the rows left to the dense factor, as indices of the
    whole matrix."""
    rows, eliminated = np.arange(m), []
    for level in levels:
        eliminated.append(rows[level.S])
        rows = rows[level.R]
    return eliminated, rows


@pytest.fixture
def tiny_lp():
    """min x1 s.t. x1 + x2 = 2, x >= 0; optimum (0, 2), objective 0."""
    return standard_lp_from_dense([[1.0, 1.0]], [2.0], [1.0, 0.0])


def tiny_central_x1(mu: float) -> float:
    return 1.0 + mu - np.sqrt(1.0 + mu * mu)
