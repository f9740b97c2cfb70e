"""Hybrid controller: primal-dual until the iterates stabilize, then the
delayed-scaling primal engine reusing cached factorizations.

The switch rule lives here whole.  After each primal-dual iteration the
hook measures the step's scaled distance, thresholded at
:data:`~lpipm.scaling.NU` as the primal engine's are, and reads the
iteration's PCG budget: the PCG iterations one solve on its factor may
take before it costs a quarter of a factorization, counted in flops (see
:func:`lpipm.face.pcg_budget`).  The primal engine pays for the
factorizations it skips in PCG iterations, so where a factorization is
worth fewer of them than ``min_pcg_budget``, pd keeps factoring, as its
face projection does below :data:`~lpipm.face.MIN_PCG_BUDGET`.  The
switch fires after ``_WARMUP_ITERS`` iterations, once the distance
drops to ``_SWITCH_DISTANCE`` while the budget reaches the policy's
``min_pcg_budget``.  Both are counted, not timed, so the iterate
sequence is reproducible; ``min_pcg_budget=0`` switches on the distance
alone.

On a switch the primal engine starts without a cache, so its first
iteration factors at the switch point, counted, probed and traced like
any later refresh.  The result is the last phase's outcome with the
iterations, factorizations and PCG iterations of all phases summed.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

from .face import MIN_PCG_BUDGET
from .mehrotra import PdConfig, PdIterationInfo, pd_solve

# refresh_cache is not called here; perfbench/tracing.py wraps the name
# lpipm.hybrid.refresh_cache and fails on a module without it
from .primal import DELAYED_SCALING, PrimalConfig, primal_solve, refresh_cache  # noqa: F401
from .problem import StandardLp
from .results import SolveResult, SolveStatus
from .scaling import NU, thresholded_distance

_WARMUP_ITERS = 3  # primal-dual iterations before the switch may fire
_SWITCH_DISTANCE = 0.1  # the largest step distance at which it fires


@dataclass
class SwitchPolicy:
    min_pcg_budget: int = MIN_PCG_BUDGET

    def __post_init__(self):
        if self.min_pcg_budget < 0:
            raise ValueError("switch PCG budget must not be negative")


@dataclass(frozen=True)
class SwitchDecision:
    switch: bool
    distance: float
    pcg_budget: int
    reason: str


def should_switch(k: int, distance: float, budget: int, policy: SwitchPolicy) -> SwitchDecision:
    """Evaluate the switch rule after primal-dual iteration ``k``, whose
    step had the thresholded ``distance`` and whose factor had the PCG
    ``budget``."""
    if k < _WARMUP_ITERS:
        return SwitchDecision(False, distance, budget, "warming up")
    if distance > _SWITCH_DISTANCE:
        return SwitchDecision(
            False, distance, budget,
            f"step distance {distance:.3e} above {_SWITCH_DISTANCE:.1e}",
        )
    if budget < policy.min_pcg_budget:
        return SwitchDecision(
            False, distance, budget,
            f"PCG budget {budget} below {policy.min_pcg_budget}",
        )
    return SwitchDecision(
        True, distance, budget,
        f"distance {distance:.3e} and PCG budget {budget} both past thresholds",
    )


def hybrid_solve(
    p: StandardLp,
    pd_cfg: PdConfig,
    primal_cfg: PrimalConfig,
    policy: SwitchPolicy,
    trace_log=None,
) -> SolveResult:
    """Phase 1 primal-dual with per-iteration switch checks; on switch,
    hand the pd state, bound pair included, to the delayed-scaling
    primal engine.  Its first target is the state's ``mu`` (the
    complementarity), and its first iteration factors at the switch
    point, and the trace shows it.  A primal-phase numerical failure,
    that first factorization's included, falls back to resuming
    primal-dual once.  The switch distance is thresholded at
    :data:`~lpipm.scaling.NU`, as the primal engine's distances are."""
    t_start = time.perf_counter()
    last: dict = {}  # on a switch, its decision and state

    def hook(info: PdIterationInfo) -> bool:
        x = info.state.x
        decision = should_switch(
            info.k,
            thresholded_distance(x, info.x_prev, x, NU),
            info.pcg_budget,
            policy,
        )
        if decision.switch:
            last["decision"], last["state"] = decision, info.state.copy()
        return decision.switch

    phase1 = pd_solve(p, pd_cfg, trace_log=trace_log, hook=hook)
    phases = [phase1]
    phase_stats = {
        "pd_iterations": phase1.iterations,
        "pd_factorizations": phase1.factorizations,
        "pd_wall_s": phase1.wall_s,
        "primal_iterations": 0,
        "primal_factorizations": 0,
        "primal_wall_s": 0.0,
        "switch_iteration": None,
        "fallback": False,
    }
    if phase1.status == SolveStatus.HALTED:
        decision, start = last["decision"], last["state"]
        phase_stats["switch_iteration"] = phase1.iterations
        phase_stats["switch_distance"] = decision.distance
        phase_stats["switch_pcg_budget"] = decision.pcg_budget
        # no cache: the primal engine's first iteration factors at start.x
        primal = primal_solve(
            p, dataclasses.replace(primal_cfg, mode=DELAYED_SCALING), start, trace_log=trace_log
        )
        phases.append(primal)
        phase_stats["primal_iterations"] = primal.iterations
        phase_stats["primal_factorizations"] = primal.factorizations
        phase_stats["primal_wall_s"] = primal.wall_s
        if primal.status == SolveStatus.NUMERICAL_FAILURE:
            # the failed primal phase stays in the trace and in the totals
            phase_stats["fallback"] = True
            resume_cfg = dataclasses.replace(
                pd_cfg, max_iter=max(pd_cfg.max_iter - phase1.iterations, 1)
            )
            resumed = pd_solve(p, resume_cfg, trace_log=trace_log, start=start)
            phases.append(resumed)
            # the resumed phase is pd work: pd_* + primal_* add up to the totals
            phase_stats["pd_iterations"] += resumed.iterations
            phase_stats["pd_factorizations"] += resumed.factorizations
            phase_stats["pd_wall_s"] += resumed.wall_s

    # the last phase's outcome, with the work of all phases
    return dataclasses.replace(
        phases[-1],
        iterations=sum(r.iterations for r in phases),
        factorizations=sum(r.factorizations for r in phases),
        cg_iterations=sum(r.cg_iterations for r in phases),
        wall_s=time.perf_counter() - t_start,
        phase_stats=phase_stats,
    )
