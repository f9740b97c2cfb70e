import dataclasses
import io

import numpy as np
import pytest

from lpipm import (
    NumericalBreakdown,
    PdConfig,
    PrimalConfig,
    SolveStatus,
    SwitchPolicy,
    TraceLog,
    emit_csv,
    generate_instance,
    hybrid_solve,
    parse_csv,
    parse_mps,
    pd_solve,
    should_switch,
    to_standard_form,
)
from lpipm.face import MIN_PCG_BUDGET


class TestShouldSwitch:
    def test_both_gates_pass(self):
        d = should_switch(5, 0.05, MIN_PCG_BUDGET, SwitchPolicy())
        assert d.switch
        assert d.distance == 0.05
        assert d.pcg_budget == MIN_PCG_BUDGET

    def test_budget_gate_fails(self):
        d = should_switch(5, 0.05, MIN_PCG_BUDGET - 1, SwitchPolicy())
        assert not d.switch
        assert d.reason == f"PCG budget {MIN_PCG_BUDGET - 1} below {MIN_PCG_BUDGET}"
        # budget 0 passes a policy at 0: the switch then rests on the distance
        assert should_switch(5, 0.05, 0, SwitchPolicy(min_pcg_budget=0)).switch

    def test_distance_gate_fails(self):
        d = should_switch(5, 0.5, 100, SwitchPolicy())
        assert not d.switch
        assert "distance" in d.reason

    def test_min_iters_gate(self):
        import lpipm.hybrid as hy

        d = should_switch(hy._WARMUP_ITERS - 1, 0.01, 100, SwitchPolicy())
        assert not d.switch
        assert d.reason == "warming up"
        assert should_switch(hy._WARMUP_ITERS, 0.01, 100, SwitchPolicy()).switch


# the budget gate off: the switch rests on the distance alone
FORCED = SwitchPolicy(min_pcg_budget=0)
# a budget no LP of the tests reaches: the hybrid never switches
NEVER = SwitchPolicy(min_pcg_budget=10**9)


def _planted(m=40, n=100, seed=11, **kw):
    inst = generate_instance(m, n, seed=seed, **kw)
    std = to_standard_form(parse_mps(inst.mps_text))
    return inst, std


class TestHybridSolve:
    def test_disabled_switch_identical_to_pd(self):
        _, std = _planted()
        trace_h = TraceLog()
        res_h = hybrid_solve(
            std, PdConfig(), PrimalConfig(tau=0.28, cg_tol=1e-12),
            NEVER, trace_log=trace_h,
        )
        trace_pd = TraceLog()
        res_pd = pd_solve(std, PdConfig(), trace_log=trace_pd)
        assert res_h.status == res_pd.status == SolveStatus.OPTIMAL
        assert res_h.iterations == res_pd.iterations
        assert np.array_equal(res_h.x, res_pd.x)
        assert all(r.phase == "pd" for r in trace_h)
        assert res_h.phase_stats["switch_iteration"] is None

    def test_default_policy_never_switches_below_the_budget(self, monkeypatch):
        import lpipm.hybrid as hy

        # the factor of this LP is worth no PCG iteration (budget 0); the
        # distance gate passes, and the budget gate alone keeps pd going
        _, std = _planted()
        real, decisions = hy.should_switch, []

        def recorded(*args):
            decisions.append(real(*args))
            return decisions[-1]

        monkeypatch.setattr(hy, "should_switch", recorded)
        res = hybrid_solve(std, PdConfig(), PrimalConfig(tau=0.28, cg_tol=1e-12), SwitchPolicy())
        assert res.phase_stats["switch_iteration"] is None
        assert not any(d.switch for d in decisions)
        assert {d.pcg_budget for d in decisions} == {0}
        assert f"PCG budget 0 below {MIN_PCG_BUDGET}" in {d.reason for d in decisions}
        assert np.array_equal(res.x, pd_solve(std, PdConfig()).x)

    def test_switch_fires_and_saves_factorizations(self):
        inst, std = _planted()
        trace = TraceLog()
        res = hybrid_solve(
            std, PdConfig(), PrimalConfig(tau=0.28, cg_tol=1e-12),
            FORCED, trace_log=trace,
        )
        assert res.status == SolveStatus.OPTIMAL
        stats = res.phase_stats
        assert stats["switch_iteration"] is not None
        assert stats["switch_pcg_budget"] == 0  # the budget the switch passed at
        primal_rows = [r for r in trace if r.phase == "primal"]
        assert len(primal_rows) == stats["primal_iterations"]
        # post-switch factorizations strictly below post-switch iterations
        assert stats["primal_factorizations"] < stats["primal_iterations"]
        ref = inst.certificate.objective
        assert abs(res.objective - ref) <= 1e-8 * (1 + abs(ref))

    def test_switch_distance_is_the_rows_thresholded_step(self):
        # the switch measures pd's step as its trace row does, at NU
        _, std = _planted()
        trace = TraceLog()
        res = hybrid_solve(
            std, PdConfig(), PrimalConfig(tau=0.28, cg_tol=1e-12),
            FORCED, trace_log=trace,
        )
        stats = res.phase_stats
        row = trace.records[stats["switch_iteration"] - 1]
        assert row.phase == "pd"
        assert stats["switch_distance"] == row.thresholded_step

    # pd's complementarity rises once, at iteration 3, on this LP: a known
    # fault of the Mehrotra step, so the warning is expected here
    @pytest.mark.filterwarnings("default:complementarity increased:UserWarning")
    def test_phase_rows_only_factorize_on_refresh(self):
        _, std = _planted(seed=12)
        trace = TraceLog()
        res = hybrid_solve(
            std, PdConfig(), PrimalConfig(tau=0.28, cg_tol=1e-12),
            FORCED, trace_log=trace,
        )
        assert res.status == SolveStatus.OPTIMAL
        primal_rows = [r for r in trace if r.phase == "primal"]
        flagged = sum(1 for r in primal_rows if r.factorized)
        # the first primal row factors at the switch point
        assert primal_rows[0].factorized
        assert flagged == res.phase_stats["primal_factorizations"]

    def test_termination_contract_matches_engines(self):
        _, std = _planted(seed=13)
        res = hybrid_solve(
            std, PdConfig(tol=1e-10), PrimalConfig(tau=0.28, cg_tol=1e-12, tol=1e-10),
            FORCED,
        )
        assert res.status == SolveStatus.OPTIMAL
        assert max(res.e_p, res.e_d, res.e_g) <= 1e-10

    def test_switch_is_reproducible(self):
        _, std = _planted(seed=14)
        runs = []
        for _ in range(2):
            trace = TraceLog()
            res = hybrid_solve(
                std, PdConfig(), PrimalConfig(tau=0.28, cg_tol=1e-12),
                FORCED, trace_log=trace,
            )
            # the trace CSV without its wall-time columns
            buf = io.BytesIO()
            emit_csv(
                [dataclasses.replace(r, wall_factor_ms=0.0, wall_solve_ms=0.0) for r in trace],
                buf,
            )
            runs.append((res, buf.getvalue()))
        (r1, csv1), (r2, csv2) = runs
        assert r1.phase_stats["switch_iteration"] is not None
        assert len(parse_csv(csv1)) == r1.iterations == r2.iterations
        assert csv1 == csv2  # bitwise reproducible
        assert np.array_equal(r1.x, r2.x)

    def test_early_return_when_start_optimal(self):
        _, std = _planted(seed=15)
        res = hybrid_solve(
            std, PdConfig(tol=1e3), PrimalConfig(), FORCED,
        )
        assert res.status == SolveStatus.OPTIMAL
        assert res.iterations == 0
        assert res.phase_stats["switch_iteration"] is None

    def test_fallback_resumes_pd_once(self, monkeypatch):
        import lpipm.hybrid as hy

        _, std = _planted(seed=17)
        real_primal = hy.primal_solve

        def failing_primal(p, cfg, start, **kw):
            # the primal phase runs for real and keeps its counts
            res = real_primal(p, cfg, start, **kw)
            res.status = SolveStatus.NUMERICAL_FAILURE
            return res

        monkeypatch.setattr(hy, "primal_solve", failing_primal)
        trace = TraceLog()
        res = hy.hybrid_solve(
            std, PdConfig(), PrimalConfig(tau=0.28, cg_tol=1e-12),
            FORCED, trace_log=trace,
        )
        stats = res.phase_stats
        assert stats["fallback"] is True
        assert res.status == SolveStatus.OPTIMAL  # pd finishes the job
        assert max(res.e_p, res.e_d, res.e_g) <= 1e-10
        primal_rows = [r for r in trace if r.phase == "primal"]
        resumed_rows = [r for r in trace if r.iter > primal_rows[-1].iter]
        assert len(primal_rows) == stats["primal_iterations"] > 0
        assert res.iterations == len(trace)
        # the primal rows' refreshes, without the resumed pd
        assert stats["primal_factorizations"] == sum(r.factorized for r in primal_rows)
        resumed_factorizations = sum(r.factorized for r in resumed_rows)
        assert resumed_factorizations == len(resumed_rows) > 0
        # the resumed phase counts as pd work, so the phases add up
        pd_rows = [r for r in trace if r.phase == "pd"]
        assert stats["pd_iterations"] == len(pd_rows)
        assert stats["pd_factorizations"] == sum(r.factorized for r in pd_rows)
        assert res.factorizations == (
            stats["pd_factorizations"] + stats["primal_factorizations"]
        )

    def test_failed_seed_refresh_falls_back_to_pd(self, monkeypatch):
        import lpipm.hybrid as hy
        import lpipm.primal as primal

        def failing_refresh(p, z):
            raise NumericalBreakdown("preconditioner probe failed")

        monkeypatch.setattr(primal, "refresh_cache", failing_refresh)
        _, std = _planted(seed=17)
        trace = TraceLog()
        res = hy.hybrid_solve(
            std, PdConfig(), PrimalConfig(tau=0.28, cg_tol=1e-12),
            FORCED, trace_log=trace,
        )
        stats = res.phase_stats
        assert res.status == SolveStatus.OPTIMAL
        assert stats["fallback"] is True
        assert stats["primal_iterations"] == 0
        assert all(r.phase == "pd" for r in trace)
        assert res.iterations == len(trace)
        # the failed first refresh counts but writes no row
        assert res.factorizations == len(trace) + 1
        assert stats["primal_factorizations"] == 1

    def test_degenerate_switch_seeds_and_solves(self):
        # the seed factor at a degenerate switch point is correct but
        # ill-conditioned; it used to fail its probe and raise
        inst = generate_instance(30, 70, 7, degenerate=True, density=1.0, spread=3.0)
        std = to_standard_form(parse_mps(inst.mps_text))
        res = hybrid_solve(
            std, PdConfig(), PrimalConfig(tau=0.28, mode="delayed_scaling"),
            FORCED,
        )
        assert res.phase_stats["switch_iteration"] is not None
        assert res.phase_stats["primal_iterations"] > 0
        assert res.status == SolveStatus.OPTIMAL
        ref = inst.certificate.objective
        value = std.recovery.original_objective(res.objective)
        assert abs(value - ref) <= 1e-8 * (1 + abs(ref))

    def test_stalled_primal_phase_falls_back_to_pd(self, monkeypatch):
        import lpipm.primal as primal

        monkeypatch.setattr(primal, "ratio_test", lambda *args: 1e-5)
        _, std = _planted(seed=17)
        res = hybrid_solve(
            std, PdConfig(), PrimalConfig(tau=0.28, cg_tol=1e-12),
            FORCED,
        )
        assert res.status == SolveStatus.OPTIMAL
        assert res.phase_stats["fallback"] is True
        assert res.phase_stats["primal_iterations"] == primal._STALL_STEPS

    def test_exit_code_mapping(self):
        from lpipm.results import SolveResult

        def dummy(status):
            return SolveResult(
                status=status, x=np.zeros(1), y=np.zeros(1), s=np.zeros(1),
                objective=0.0, e_p=0.0, e_d=0.0, e_g=0.0, iterations=0,
                factorizations=0, cg_iterations=0,
            )

        assert dummy(SolveStatus.OPTIMAL).exit_code() == 0
        assert dummy(SolveStatus.ITERATION_LIMIT).exit_code() == 2
        assert dummy(SolveStatus.NUMERICAL_FAILURE).exit_code() == 3

    def test_total_iteration_count_and_trace_monotone(self):
        _, std = _planted(seed=16)
        trace = TraceLog()
        res = hybrid_solve(
            std, PdConfig(), PrimalConfig(tau=0.28, cg_tol=1e-12),
            FORCED, trace_log=trace,
        )
        iters = [r.iter for r in trace]
        assert iters == sorted(iters)
        assert len(set(iters)) == len(iters)
        assert res.iterations == len(iters)
