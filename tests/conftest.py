"""Shared helpers: dense oracles and random instance factories."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from lpipm import IterateState, RecoveryMap, SparseMatrix, StandardLp


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
    m, n = A.shape
    rules = tuple(("affine", 0.0, ((1.0, j),)) for j in range(n))
    return StandardLp(
        A=SparseMatrix.from_dense(A),
        b=np.asarray(b, dtype=np.float64),
        c=np.asarray(c, dtype=np.float64),
        u=np.full(n, np.inf) if u is None else np.asarray(u, dtype=np.float64),
        recovery=RecoveryMap(rules, 0.0, "min"),
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


@pytest.fixture
def tiny_lp():
    """min x1 s.t. x1 + x2 = 2, x >= 0; optimum (0, 2), objective 0."""
    return standard_lp_from_dense([[1.0, 1.0]], [2.0], [1.0, 0.0])


def tiny_central_x1(mu: float) -> float:
    return 1.0 + mu - np.sqrt(1.0 + mu * mu)
