"""Planted instance families of the benchmark, and their oracles.

Every instance comes from ``lpipm.generate_instance`` and reaches the
solvers only as MPS text.  Instance ``k`` of a run with seed ``s`` uses
generator seed ``s + 1000 * k``, so instance 0 of ``--seed 1`` is the
generator's seed-1 instance.

The reference objective of an instance is its planted certificate.  The
``boxed_ranged`` family edits the certificate's LP (upper bounds and
RANGES that leave the planted optimum in place), so each of its
instances is first re-solved by HiGHS; a disagreement is an error of
the benchmark, not a failed solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps
from scipy.optimize import linprog

from lpipm.generator import generate_instance
from lpipm.mps import parse_mps, write_mps

# HiGHS stops at feasibility tolerances near 1e-7; a wrong certificate
# moves the optimum by O(0.1), many decades above this
HIGHS_REL_TOL = 1e-6

_BOX_COLS = 0.3
_RANGE_ROWS = 0.2


@dataclass(frozen=True)
class Family:
    m: int
    n: int
    count: int  # instances per run
    density: float = 0.25  # per-column fill fraction, >= 1 for dense A
    spread: float = 0.0  # decades of the planted basic values
    boxed: bool = False  # add inactive upper bounds and signed RANGES


# Sizes keep one run of a workload within its time budget on two cores;
# the reasons for each family are in BENCHMARK.json.
FAMILIES = {
    "dense_tail": Family(m=280, n=630, count=3, density=1.0, spread=3.0),
    "sparse_wide": Family(m=1500, n=3300, count=3, density=4 / 1500),
    "boxed_ranged": Family(m=200, n=500, count=6, density=0.25, boxed=True),
}

SMOKE_FAMILIES = {
    "dense_tail": Family(m=30, n=70, count=1, density=1.0, spread=3.0),
    "sparse_wide": Family(m=60, n=140, count=1, density=4 / 60),
    "boxed_ranged": Family(m=20, n=50, count=1, density=0.25, boxed=True),
}


@dataclass(frozen=True)
class Instance:
    name: str
    mps_text: str
    reference: float  # optimal objective of the LP in mps_text


def build(workload: str, seed: int, smoke: bool = False) -> list[Instance]:
    family = (SMOKE_FAMILIES if smoke else FAMILIES)[workload]
    out = []
    for k in range(family.count):
        inst_seed = seed + 1000 * k
        gen = generate_instance(
            family.m, family.n, inst_seed,
            density=family.density, spread=family.spread,
        )
        text = gen.mps_text
        ref = gen.certificate.objective
        if family.boxed:
            rng = np.random.default_rng((inst_seed, 0xB0C5))
            text, upper, width = _boxed_ranged(gen, rng)
            _check_with_highs(gen, upper, width, ref)
        out.append(Instance(f"{workload}/{inst_seed}", text, ref))
    return out


def _boxed_ranged(gen, rng):
    """Add upper bounds ``x*_j + U(0.5, 2)`` to 30% of the columns and
    RANGES of the sign of ``y*_i`` to 20% of the rows.

    A bound above ``x*_j`` is inactive at the optimum.  A range of the
    sign of ``y*_i`` relaxes the row on the side whose multiplier would
    have the wrong sign, so ``(x*, y*, s*)`` stays optimal and the
    certificate objective stays exact.  Returns the MPS text, the upper
    bounds (inf where none) and the signed range widths (0 where none)."""
    m, n = gen.A.shape
    upper = np.full(n, np.inf)
    cols = rng.choice(n, size=round(_BOX_COLS * n), replace=False)
    upper[cols] = gen.x_star[cols] + rng.uniform(0.5, 2.0, cols.size)
    width = np.zeros(m)
    rows = rng.choice(m, size=round(_RANGE_ROWS * m), replace=False)
    width[rows] = np.sign(gen.y_star[rows]) * rng.uniform(0.5, 2.0, rows.size)

    prob = parse_mps(gen.mps_text)
    for j in cols:
        prob.upper[prob.col_names[j]] = float(upper[j])
    for i in np.flatnonzero(width):
        prob.ranges[prob.row_names[i]] = float(width[i])
    return write_mps(prob), upper, width


def _check_with_highs(gen, upper, width, ref: float) -> None:
    """Solve the edited LP with HiGHS, built from the generator's arrays
    rather than from the MPS text, and require the certificate objective."""
    A = sps.csr_matrix(gen.A)
    b = gen.b
    ranged = width != 0.0
    lo = (b + np.minimum(width, 0.0))[ranged]
    hi = (b + np.maximum(width, 0.0))[ranged]
    res = linprog(
        gen.c,
        A_ub=sps.vstack([A[ranged], -A[ranged]]),
        b_ub=np.concatenate([hi, -lo]),
        A_eq=A[~ranged],
        b_eq=b[~ranged],
        bounds=[(0.0, None if np.isinf(u) else u) for u in upper],
        method="highs",
    )
    if res.status != 0 or abs(res.fun - ref) > HIGHS_REL_TOL * (1.0 + abs(ref)):
        raise RuntimeError(
            f"HiGHS disagrees with the planted certificate of instance "
            f"{gen.certificate.seed}: status {res.status}, objective {res.fun!r} "
            f"against {ref!r}"
        )
