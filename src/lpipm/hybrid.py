"""Hybrid controller: primal-dual until the iterates stabilize, then the
delayed-scaling primal engine reusing cached factorizations.

The switch rule lives here whole.  After each primal-dual iteration the
hook averages the measured factorization/step time ratio (weight
``_RATIO_EMA`` on the newest) and measures the step's nu-thresholded
distance, with the primal engine's ``PrimalConfig.nu``.  The switch
fires after ``_WARMUP_ITERS`` iterations, once the distance drops below
``dist_threshold`` while the ratio exceeds ``time_ratio_threshold``
(both from the switch policy).  Timing is wall-clock and therefore
nondeterministic; ``time_ratio_override`` pins the ratio, which makes
the full iterate sequence reproducible.

On a switch the primal engine starts without a cache, so its first
iteration factors at the switch point, counted, probed and traced like
any later refresh.  The result is the last phase's outcome with the
iterations, factorizations and PCG iterations of all phases summed.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

from .mehrotra import PdConfig, PdIterationInfo, pd_solve

# refresh_cache is not called here; perfbench/tracing.py wraps the name
# lpipm.hybrid.refresh_cache and fails on a module without it
from .primal import DELAYED_SCALING, PrimalConfig, primal_solve, refresh_cache  # noqa: F401
from .problem import StandardLp
from .results import SolveResult, SolveStatus
from .scaling import thresholded_distance

_RATIO_EMA = 0.3  # weight of the newest factor/solve time ratio
_WARMUP_ITERS = 3  # primal-dual iterations before the switch may fire


@dataclass
class SwitchPolicy:
    dist_threshold: float = 1e-1
    time_ratio_threshold: float = 30.0

    def __post_init__(self):
        if min(self.dist_threshold, self.time_ratio_threshold) <= 0:
            raise ValueError("switch policy thresholds must be positive")


@dataclass(frozen=True)
class SwitchDecision:
    switch: bool
    distance: float
    time_ratio: float
    reason: str


def should_switch(k: int, distance: float, ratio: float, policy: SwitchPolicy) -> SwitchDecision:
    """Evaluate the switch rule after primal-dual iteration ``k``, whose
    step had the thresholded ``distance``, at the time ``ratio``."""
    if k < _WARMUP_ITERS:
        return SwitchDecision(False, distance, ratio, "warming up")
    if distance > policy.dist_threshold:
        return SwitchDecision(
            False, distance, ratio,
            f"step distance {distance:.3e} above {policy.dist_threshold:.1e}",
        )
    if ratio <= policy.time_ratio_threshold:
        return SwitchDecision(
            False, distance, ratio,
            f"time ratio {ratio:.2f} below {policy.time_ratio_threshold:g}",
        )
    return SwitchDecision(
        True, distance, ratio,
        f"distance {distance:.3e} and time ratio {ratio:.2f} both past thresholds",
    )


def hybrid_solve(
    p: StandardLp,
    pd_cfg: PdConfig,
    primal_cfg: PrimalConfig,
    policy: SwitchPolicy,
    trace_log=None,
    time_ratio_override: float | None = None,
) -> SolveResult:
    """Phase 1 primal-dual with per-iteration switch checks; on switch,
    hand the pd state, bound pair included, to the delayed-scaling
    primal engine.  Its first target is the state's ``mu`` (the
    complementarity), and its first iteration factors at the switch
    point, and the trace shows it.  A primal-phase numerical failure,
    that first factorization's included, falls back to resuming
    primal-dual once.
    ``primal_cfg.nu`` sets the threshold of the switch distance as well
    as the primal engine's; ``time_ratio_override``, when given,
    replaces the measured time ratio."""
    t_start = time.perf_counter()
    last: dict = {}  # the averaged ratio; on a switch, its decision and state

    def hook(info: PdIterationInfo) -> bool:
        ratio = info.t_factor / max(info.t_solve, 1e-9)
        if "ratio" in last:
            ratio = (1.0 - _RATIO_EMA) * last["ratio"] + _RATIO_EMA * ratio
        last["ratio"] = ratio
        x = info.state.x
        decision = should_switch(
            info.k,
            thresholded_distance(x, info.x_prev, x, primal_cfg.nu),
            ratio if time_ratio_override is None else time_ratio_override,
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
        phase_stats["switch_time_ratio"] = decision.time_ratio
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
