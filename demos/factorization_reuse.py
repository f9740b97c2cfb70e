#!/usr/bin/env python3
"""Count factorizations: primal-dual vs delayed-scaling primal vs hybrid.

The delayed-scaling engine refreshes its Cholesky factorization only
when the iterate drifts in the thresholded scaled distance, so most of
its iterations run on a few PCG sweeps instead of a fresh factorization.
The hybrid lets Mehrotra do the early work and switches once the
iterates stabilize.
"""

import warnings

import lpipm as L

# dense constraint matrix with spread-out basic values: the kind of
# instance whose primal-dual tail drags on long enough to pay for a switch
inst = L.generate_instance(150, 320, seed=301, density=1.0, spread=3.0)
problem = L.to_standard_form(L.parse_mps(inst.mps_text))
print(f"planted instance 150x320, optimal objective {inst.certificate.objective:.6f}\n")

pd = L.pd_solve(problem, L.PdConfig())
print(f"primal-dual:      {pd.status}, {pd.iterations} iterations, "
      f"{pd.factorizations} factorizations")

cfg = L.PrimalConfig(tau=0.28, max_iter=100, mode=L.DELAYED_SCALING,
                     tol=1e-10, cg_tol=1e-12)
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    primal = L.primal_solve(problem, cfg, L.pd_starting_point(problem))
print(f"primal (delayed): {primal.status}, {primal.iterations} iterations, "
      f"{primal.factorizations} factorizations, "
      f"{primal.cg_iterations} total CG iterations")

trace = L.TraceLog()
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    hybrid = L.hybrid_solve(problem, L.PdConfig(), cfg, L.SwitchPolicy(min_pcg_budget=0),
                            trace_log=trace)
stats = hybrid.phase_stats
print(f"hybrid:           {hybrid.status}, {hybrid.iterations} iterations, "
      f"{hybrid.factorizations} factorizations "
      f"(switched at iteration {stats['switch_iteration']}, post-switch "
      f"{stats['primal_factorizations']} factorizations over "
      f"{stats['primal_iterations']} iterations)")

for name, res in (("pd", pd), ("primal", primal), ("hybrid", hybrid)):
    err = abs(res.objective - inst.certificate.objective)
    err /= 1.0 + abs(inst.certificate.objective)
    print(f"  {name:7s} objective error vs certificate: {err:.2e}")

n = L.emit_csv(trace.records, "hybrid_trace.csv")
print(f"\nwrote hybrid_trace.csv ({n} bytes); step-norm decay pattern: "
      f"{L.classify_convergence(trace.records)}")
