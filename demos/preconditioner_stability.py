#!/usr/bin/env python3
"""Why reuse works for the primal scaling and not for the primal-dual one.

Take the tail iterates of a Mehrotra run and anchor one normal matrix a
few iterations before the end. Against the anchored primal matrix, the
later primal normal matrices A X_j^2 A^T keep a generalized condition
number that settles (about 35 here: the sequence converges), while the
primal-dual matrices A X_j S_j^{-1} A^T drift away from their anchor by
orders of magnitude within one or two iterations. Both columns are exact
(lpipm.condition_number).
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
A = problem.A.to_dense()
# each anchor factored once by QR: (A D_0)^T = Q R, so R^T R = A D_0^2 A^T
anchor_primal = np.linalg.qr((A * st0.x).T, mode="r")
anchor_pd = np.linalg.qr((A * np.sqrt(st0.x / st0.s)).T, mode="r")

print(f"{'j':>3} {'mu':>10} {'reuse kappa, primal':>20} {'reuse kappa, primal-dual':>26}")
for j, st in enumerate(window):
    k_primal = L.condition_number(A * st.x, anchor_primal)
    k_pd = L.condition_number(A * np.sqrt(st.x / st.s), anchor_pd)
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
