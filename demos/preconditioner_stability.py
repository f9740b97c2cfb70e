#!/usr/bin/env python3
"""Why reuse works for the primal scaling and not for the primal-dual one.

Take the tail iterates of a Mehrotra run and anchor one factorization a
few iterations before the end. Preconditioning the later primal normal
matrices A X_j^2 A^T with the anchored primal factorization keeps the
generalized condition number near 1 (the sequence converges), while the
primal-dual matrices A X_j S_j^{-1} A^T drift away from their anchor by
orders of magnitude within one or two iterations.
"""

import numpy as np

import lpipm as L

inst = L.generate_instance(30, 80, seed=5)
problem = L.to_standard_form(L.parse_mps(inst.mps_text))

states = []
pd = L.pd_solve(problem, L.PdConfig(),
                hook=lambda info: states.append(info.state.copy()))
print(f"primal-dual run: {pd.status} in {pd.iterations} iterations\n")

window = states[-6:]
st0 = window[0]
anchor_primal = L.cholesky_factorize(L.form_normal_matrix(problem.A, st0.x))
anchor_pd = L.cholesky_factorize(
    L.form_normal_matrix(problem.A, np.sqrt(st0.x / st0.s))
)


def normal_operator(d_sq):
    """v -> A diag(d_sq) A^T v, without assembling the matrix."""
    return lambda v: problem.A.matvec(d_sq * problem.A.rmatvec(v))


print(f"{'j':>3} {'mu':>10} {'reuse kappa, primal':>20} {'reuse kappa, primal-dual':>26}")
for j, st in enumerate(window):
    k_primal = L.generalized_condition_probe(normal_operator(st.x**2), anchor_primal, 30)
    k_pd = L.generalized_condition_probe(normal_operator(st.x / st.s), anchor_pd, 30)
    print(f"{j:>3} {st.mu:>10.2e} {k_primal:>20.6f} {k_pd:>26.3e}")

print("\nThe probe_spectra report for the same window (primal engine "
      "tail, anchored at the window start):")
cfg = L.PrimalConfig(tau=0.28, max_iter=100, mode=L.DELAYED_SCALING,
                     tol=1e-10, cg_tol=1e-12)
import warnings
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    res = L.primal_solve(problem, cfg, L.pd_starting_point(problem),
                         collect_iterates=True)
rows = L.probe_spectra(problem, res.iterates[-5:])
print(L.spectra_csv(rows))
