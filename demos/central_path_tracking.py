#!/usr/bin/env python3
"""Follow the barrier central path of a tiny LP with a closed form.

For  min x1  s.t.  x1 + x2 = 2, x >= 0  the mu-center has
x1(mu) = 1 + mu - sqrt(1 + mu^2), so every iterate of the exact primal
engine can be checked against the analytic path.
"""

import numpy as np

import lpipm as L

A = L.SparseMatrix.from_dense([[1.0, 1.0]])
problem = L.StandardLp(
    A=A, b=np.array([2.0]), c=np.array([1.0, 0.0]), u=np.full(2, np.inf),
    recovery=L.RecoveryMap(np.zeros(2), np.arange(2), np.ones(2), 0.0, "min"),
)

mu0 = 1.0
x1 = 1.0 + mu0 - np.sqrt(1.0 + mu0**2)
start = L.IterateState(
    x=np.array([x1, 2.0 - x1]), y=np.zeros(1), s=problem.c.copy(), mu=mu0,
    w=np.zeros(2), v=np.zeros(2),
)

trace = L.TraceLog()
cfg = L.PrimalConfig(tau=0.05, max_iter=600, mode=L.EXACT, tol=1e-10)
res = L.primal_solve(problem, cfg, start, trace_log=trace, collect_iterates=True)

print(f"status: {res.status}, objective: {res.objective:.3e}, "
      f"iterations: {res.iterations}")
print(f"{'k':>4} {'mu':>12} {'x1':>14} {'x1(mu)':>14} {'delta':>10}")
for rec, it in zip(trace, res.iterates):
    if rec.iter % 40 != 1 and rec.iter != res.iterations:
        continue
    ref = 1.0 + it.mu - np.sqrt(1.0 + it.mu**2)
    print(f"{rec.iter:>4} {it.mu:>12.3e} {it.x[0]:>14.6e} {ref:>14.6e} "
          f"{rec.delta:>10.2e}")

worst = max(
    abs(it.x[0] - (1.0 + it.mu - np.sqrt(1.0 + it.mu**2)))
    for it in res.iterates
)
print(f"\nworst absolute deviation from the analytic path: {worst:.2e}")
