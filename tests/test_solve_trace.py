"""What the engines write into a trace, and what they skip without one."""

import warnings

import pytest

import lpipm.hybrid
import lpipm.mehrotra
import lpipm.primal
from lpipm import (
    DELAYED_SCALING,
    EXACT,
    PdConfig,
    PrimalConfig,
    SolveStatus,
    SwitchPolicy,
    TraceLog,
    generate_instance,
    hybrid_solve,
    parse_mps,
    pd_solve,
    pd_starting_point,
    primal_solve,
    to_standard_form,
)
from conftest import boxed_ranged_instance


def _planted():
    return to_standard_form(parse_mps(generate_instance(40, 100, seed=11).mps_text))


def _boxed_ranged(seed=1):
    return to_standard_form(parse_mps(boxed_ranged_instance(seed).mps_text))


_PRIMAL = dict(tau=0.28, cg_tol=1e-12)


def _primal(mode):
    def run(p, trace):
        cfg = PrimalConfig(mode=mode, **_PRIMAL)
        return primal_solve(p, cfg, pd_starting_point(p), trace_log=trace)

    return run


def _hybrid(min_pcg_budget, tau=0.28):
    def run(p, trace):
        return hybrid_solve(
            p, PdConfig(), PrimalConfig(tau=tau, cg_tol=1e-12),
            SwitchPolicy(min_pcg_budget=min_pcg_budget), trace_log=trace,
        )

    return run


_SOLVES = {
    "pd": lambda p, trace: pd_solve(p, PdConfig(), trace_log=trace),
    "primal-exact": _primal(EXACT),
    "primal-delayed": _primal(DELAYED_SCALING),
    # "hybrid-never" gates the switch at a budget no LP reaches and never
    # switches; the other hybrids turn the gate off: the distance alone
    # decides, and "hybrid-early-switch" passes it at 10
    "hybrid-never": _hybrid(10**9),
    "hybrid-forced": _hybrid(0),
    "hybrid-early-switch": _hybrid(0, tau=0.5),
    "hybrid-stalled-fallback": _hybrid(0),
}
_SWITCHING = {"hybrid-forced", "hybrid-early-switch", "hybrid-stalled-fallback"}


@pytest.mark.parametrize("solve", sorted(_SOLVES))
@pytest.mark.parametrize("instance", [_planted, _boxed_ranged], ids=["planted", "boxed_ranged"])
def test_factorized_rows_equal_reported_factorizations(instance, solve, monkeypatch):
    p = instance()
    if solve == "hybrid-stalled-fallback":
        monkeypatch.setattr(lpipm.primal, "ratio_test", lambda *args: 1e-5)
    if solve == "hybrid-early-switch":
        monkeypatch.setattr(lpipm.hybrid, "_SWITCH_DISTANCE", 10.0)
    trace = TraceLog()
    res = _SOLVES[solve](p, trace)
    assert res.factorizations > 0
    assert sum(r.factorized for r in trace) == res.factorizations
    assert sum(r.cg_iters for r in trace) == res.cg_iterations
    if solve.startswith("hybrid"):
        primal_rows = [r for r in trace if r.phase == "primal"]
        stats = res.phase_stats
        assert stats["primal_factorizations"] == sum(r.factorized for r in primal_rows)
        # the phases, a resumed pd phase included, add up to the totals
        for total in ("iterations", "factorizations"):
            assert stats[f"pd_{total}"] + stats[f"primal_{total}"] == getattr(res, total)
        assert (stats["switch_iteration"] is not None) == (solve in _SWITCHING)
        assert stats["fallback"] == (solve == "hybrid-stalled-fallback")


@pytest.fixture(scope="module")
def gated_lp():
    # a PCG budget of 12 per face solve: pd tries the projection
    return to_standard_form(parse_mps(generate_instance(600, 1320, 7, density=4 / 600).mps_text))


@pytest.mark.parametrize("solve", ["pd", "hybrid-never", "hybrid-forced"])
def test_rows_sum_to_the_counts_when_pd_projects(gated_lp, solve):
    """Past the budget gate, the projection's PCG iterations sit on the
    row of the iteration that tried it, and its factorization has a row."""
    trace = TraceLog()
    res = _SOLVES[solve](gated_lp, trace)
    assert res.status == SolveStatus.OPTIMAL
    assert sum(r.factorized for r in trace) == res.factorizations
    assert sum(r.cg_iters for r in trace) == res.cg_iterations
    pd_rows = [r for r in trace if r.phase == "pd"]
    assert sum(r.cg_iters for r in pd_rows) > 0


@pytest.mark.parametrize("solve", ["pd", "hybrid-forced"])
def test_reported_work_is_the_work_observed(gated_lp, solve, monkeypatch):
    """Every factorization and PCG run goes through the NormalSolver, the
    one caller of primal's ``cholesky_factorize`` and ``pcg_solve``: what
    those see is what the result and its trace report, plus pd's start,
    which no solve counts.  pd ends by projection on the gated LP; the
    forced hybrid switches on the planted one."""
    factorizations, pcg_iterations = 0, []
    real_factorize, real_pcg = lpipm.primal.cholesky_factorize, lpipm.primal.pcg_solve

    def counting_factorize(M):
        nonlocal factorizations
        factorizations += 1
        return real_factorize(M)

    def counting_pcg(*args):
        out = real_pcg(*args)
        pcg_iterations.append(out.iterations)
        return out

    monkeypatch.setattr(lpipm.primal, "cholesky_factorize", counting_factorize)
    monkeypatch.setattr(lpipm.primal, "pcg_solve", counting_pcg)
    p = gated_lp if solve == "pd" else _planted()
    trace = TraceLog()
    res = _SOLVES[solve](p, trace)
    assert res.status == SolveStatus.OPTIMAL
    if solve == "pd":
        assert res.message.startswith("ended by projection")
    else:
        assert res.phase_stats["switch_iteration"] is not None
    assert sum(pcg_iterations) == res.cg_iterations == sum(r.cg_iters for r in trace) > 0
    assert factorizations == res.factorizations + 1


def test_untraced_solves_skip_trace_only_values(monkeypatch):
    """The step lengths are read by the trace row only; an untraced solve
    never computes them."""

    def unused(*args, **kwargs):
        raise AssertionError("trace-only value computed without a trace")

    monkeypatch.setattr(lpipm.mehrotra, "thresholded_distance", unused)
    monkeypatch.setattr(lpipm.primal, "thresholded_distance", unused)
    p = _planted()
    assert pd_solve(p, PdConfig()).status == SolveStatus.OPTIMAL
    cfg = PrimalConfig(mode=EXACT, **_PRIMAL)
    assert primal_solve(p, cfg, pd_starting_point(p)).status == SolveStatus.OPTIMAL


@pytest.mark.parametrize("solve", ["primal-delayed", "hybrid-forced"])
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_primal_targets_stay_positive(seed, solve):
    """The predictor cuts the target from the previous target, never from
    the measured complementarity, which the split dual estimate can drive
    negative on boxed instances."""
    trace = TraceLog()
    res = _SOLVES[solve](_boxed_ranged(seed), trace)
    assert res.status == SolveStatus.OPTIMAL
    primal_rows = [r for r in trace if r.phase == "primal"]
    assert primal_rows and all(r.mu > 0.0 for r in primal_rows)
    assert any(r.predictor_step > 0.0 for r in primal_rows)


@pytest.mark.parametrize("seed", range(1, 9))
def test_pd_solves_boxed_ranged_in_few_monotone_iterations(seed):
    """From the start with the bound pair in its least-squares problems,
    pd solves each smoke boxed_ranged LP in at most 10 iterations, and
    its complementarity never rises."""
    inst = boxed_ranged_instance(seed)
    p = to_standard_form(parse_mps(inst.mps_text))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = pd_solve(p, PdConfig())
    assert res.status == SolveStatus.OPTIMAL
    ref = inst.reference
    assert abs(p.original_objective(res.x) - ref) <= 1e-8 * (1.0 + abs(ref))
    assert res.iterations <= 10
    assert not [w for w in caught if "complementarity increased" in str(w.message)]
