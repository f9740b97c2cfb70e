"""Spans around the calls into each lpipm module, recorded from outside.

The engines bind their collaborators with ``from .x import y``, so a
wrap must replace the consumer's binding (``lpipm.mehrotra.
form_normal_matrix``, not ``lpipm.sparse.form_normal_matrix``).
:data:`TARGETS` lists every binding the three engines reach.  Nothing
under ``src/`` changes; the wraps live only in the traced worker
process.

A span is ``(name, parent, start, end, attrs)`` with ``parent`` the
index of the enclosing span (-1 at the root).  Spans stay in memory and
are written out when the run ends.  A span's self time is its duration
minus the durations of its direct children; calls are single-threaded,
so children never overlap.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

import lpipm.cholesky
import lpipm.hybrid
import lpipm.mehrotra
import lpipm.mps
import lpipm.primal
import lpipm.problem

# (span name, owner of the binding, attribute)
TARGETS = (
    ("mps.parse", lpipm.mps, "parse_mps"),
    ("problem.to_standard", lpipm.problem, "to_standard_form"),
    ("hybrid.solve", lpipm.hybrid, "hybrid_solve"),
    ("mehrotra.solve", lpipm.mehrotra, "pd_solve"),
    ("mehrotra.solve", lpipm.hybrid, "pd_solve"),
    ("mehrotra.start", lpipm.mehrotra, "pd_starting_point"),
    ("mehrotra.step", lpipm.mehrotra, "mehrotra_step"),
    ("primal.solve", lpipm.primal, "primal_solve"),
    ("primal.solve", lpipm.hybrid, "primal_solve"),
    ("primal.refresh", lpipm.primal, "refresh_cache"),
    ("primal.refresh", lpipm.hybrid, "refresh_cache"),
    ("primal.repair", lpipm.primal, "feasibility_repair"),
    ("problem.metrics", lpipm.mehrotra, "convergence_metrics"),
    ("problem.metrics", lpipm.primal, "convergence_metrics"),
    ("sparse.assemble", lpipm.mehrotra, "form_normal_matrix"),
    ("sparse.assemble", lpipm.primal, "form_normal_matrix"),
    ("cholesky.factor", lpipm.mehrotra, "cholesky_factorize"),
    ("cholesky.factor", lpipm.primal, "cholesky_factorize"),
    ("cholesky.order", lpipm.cholesky, "minimum_degree_ordering"),
    ("cholesky.trisolve", lpipm.cholesky.CholeskyFactor, "solve"),
    ("cg.pcg", lpipm.primal, "pcg_solve"),
)


def _assemble_attrs(args, out):
    """Computed flops of ``B B^T`` with ``B = A diag(d)``: each column
    with k entries adds a k x k outer product, 2 k^2 flops."""
    counts = np.diff(args[0].col_ptr).astype(float)
    return {"flops": 2.0 * float(counts @ counts), "nnz": out.nnz}


def _factor_attrs(args, out):
    m = args[0].nrows
    return {"flops": m ** 3 / 3.0}  # dense Cholesky


def _pcg_attrs(args, out):
    return {"iters": out.iterations, "converged": bool(out.converged)}


_ATTRS = {
    "sparse.assemble": _assemble_attrs,
    "cholesky.factor": _factor_attrs,
    "cg.pcg": _pcg_attrs,
}


class Tracer:
    """In-memory span recorder; :meth:`install` wraps every target."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        attrs_of = _ATTRS.get(name)

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if attrs_of is not None:
                span[4] = attrs_of(args, out)
            return out

        return traced

    def install(self):
        for name, owner, attr in TARGETS:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))


def summarize(spans) -> dict:
    """Per span name: calls, total and self seconds, and summed attrs."""
    child = [0.0] * len(spans)
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = defaultdict(lambda: defaultdict(float))
    for i, (name, _, t0, t1, attrs) in enumerate(spans):
        s = out[name]
        s["calls"] += 1
        s["total_s"] += t1 - t0
        s["self_s"] += (t1 - t0) - child[i]
        for key, value in (attrs or {}).items():
            if key == "nnz":
                s["nnz_max"] = max(s["nnz_max"], value)
            else:
                s[key] += value
    return out


# Per-layer metrics: (module, metric, unit, better), and the engines that
# run the layer.  Names are "<engine>.<module>.<metric>".
_COMMON = (
    ("sparse", "assemble_calls", "count", "lower"),
    ("sparse", "assemble_s", "s", "lower"),
    ("sparse", "assemble_flops", "computed_flop", "lower"),
    ("sparse", "normal_nnz", "count", "lower"),
    ("cholesky", "order_calls", "count", "lower"),
    ("cholesky", "order_s", "s", "lower"),
    ("cholesky", "factor_calls", "count", "lower"),
    ("cholesky", "factor_self_s", "s", "lower"),
    ("cholesky", "factor_flops", "computed_flop", "lower"),
    ("cholesky", "trisolve_calls", "count", "lower"),
    ("cholesky", "trisolve_s", "s", "lower"),
)
_CG = (
    ("cg", "pcg_calls", "count", "lower"),
    ("cg", "pcg_iters", "count", "lower"),
    ("cg", "pcg_self_s", "s", "lower"),
    ("cg", "pcg_converged_ratio", "share", "higher"),
)
_PRIMAL = (
    ("primal", "iterations", "count", "lower"),
    ("primal", "refresh_calls", "count", "lower"),
    ("primal", "refresh_s", "s", "lower"),
    ("primal", "repair_calls", "count", "lower"),
    ("primal", "repair_s", "s", "lower"),
    ("primal", "factorizations_per_iter", "ratio", "lower"),
    ("primal", "self_s", "s", "lower"),
)
_MEHROTRA = (
    ("mehrotra", "iterations", "count", "lower"),
    ("mehrotra", "start_s", "s", "lower"),
    ("mehrotra", "step_calls", "count", "lower"),
    ("mehrotra", "step_s", "s", "lower"),
    ("mehrotra", "self_s", "s", "lower"),
)
_SETUP = (
    ("mps", "parse_s", "s", "lower"),
    ("problem", "to_standard_s", "s", "lower"),
    ("problem", "metrics_calls", "count", "lower"),
    ("problem", "metrics_s", "s", "lower"),
)
_HYBRID = (
    ("hybrid", "switch_iter", "iteration", "lower"),
    ("hybrid", "pd_ratio_max", "ratio", "higher"),
    ("hybrid", "over_pd", "ratio", "lower"),
    ("hybrid", "factorizations_saved", "count", "higher"),
)
_ACCOUNTING = (
    ("accounting", "factor_calls_observed", "count", "lower"),
    ("accounting", "factorizations_reported", "count", "lower"),
    ("accounting", "warnings", "count", "lower"),
    ("accounting", "solves_failed", "share", "lower"),
    ("trace", "overhead_s", "s", "lower"),
)
LAYER_METRICS = {
    "pd": _COMMON + _MEHROTRA + _SETUP + _ACCOUNTING,
    "primal": _COMMON + _CG + _PRIMAL + (("mehrotra", "start_s", "s", "lower"),)
    + _SETUP + _ACCOUNTING,
    "hybrid": _COMMON + _CG + _PRIMAL + _MEHROTRA + _SETUP + _HYBRID + _ACCOUNTING,
}


def per_layer_spec() -> list[dict]:
    """The per_layer entries of BENCHMARK.json, in print order."""
    return [
        {"name": f"{engine}.{module}.{metric}", "unit": unit, "better": better}
        for engine, rows in LAYER_METRICS.items()
        for module, metric, unit, better in rows
    ]


def layer_values(spans, solve: dict) -> dict:
    """Additive layer quantities of one traced solve, keyed
    "<module>.<metric>"; :func:`finish` turns their sums over a
    workload's instances into the reported metrics.

    ``solve`` is the worker's record of the same solve (iterations,
    phase statistics, switch decision, warnings).  Metrics that need
    other solves (``over_pd``, ``factorizations_saved``, ``overhead_s``,
    ``solves_failed``) are added by the caller."""
    s = summarize(spans)

    def get(name, key):
        return s[name][key] if name in s else 0.0

    stats = solve["phase_stats"]
    if solve["engine"] == "hybrid":
        primal_iters = stats.get("primal_iterations", 0)
        primal_facts = stats.get("primal_factorizations", 0)
        pd_iters = stats.get("pd_iterations", 0)
    elif solve["engine"] == "primal":
        primal_iters, primal_facts, pd_iters = solve["iterations"], solve["factorizations"], 0
    else:
        primal_iters, primal_facts, pd_iters = 0, 0, solve["iterations"]
    return {
        "sparse.assemble_calls": get("sparse.assemble", "calls"),
        "sparse.assemble_s": get("sparse.assemble", "total_s"),
        "sparse.assemble_flops": get("sparse.assemble", "flops"),
        "sparse.normal_nnz": get("sparse.assemble", "nnz_max"),
        "cholesky.order_calls": get("cholesky.order", "calls"),
        "cholesky.order_s": get("cholesky.order", "total_s"),
        "cholesky.factor_calls": get("cholesky.factor", "calls"),
        "cholesky.factor_self_s": get("cholesky.factor", "self_s"),
        "cholesky.factor_flops": get("cholesky.factor", "flops"),
        "cholesky.trisolve_calls": get("cholesky.trisolve", "calls"),
        "cholesky.trisolve_s": get("cholesky.trisolve", "total_s"),
        "cg.pcg_calls": get("cg.pcg", "calls"),
        "cg.pcg_iters": get("cg.pcg", "iters"),
        "cg.pcg_self_s": get("cg.pcg", "self_s"),
        "cg.pcg_converged": get("cg.pcg", "converged"),
        "primal.iterations": primal_iters,
        "primal.factorizations": primal_facts,
        "primal.refresh_calls": get("primal.refresh", "calls"),
        "primal.refresh_s": get("primal.refresh", "total_s"),
        "primal.repair_calls": get("primal.repair", "calls"),
        "primal.repair_s": get("primal.repair", "total_s"),
        "primal.self_s": get("primal.solve", "self_s"),
        "mehrotra.iterations": pd_iters,
        "mehrotra.start_s": get("mehrotra.start", "total_s"),
        "mehrotra.step_calls": get("mehrotra.step", "calls"),
        "mehrotra.step_s": get("mehrotra.step", "total_s"),
        "mehrotra.self_s": get("mehrotra.solve", "self_s"),
        "mps.parse_s": get("mps.parse", "total_s"),
        "problem.to_standard_s": get("problem.to_standard", "total_s"),
        "problem.metrics_calls": get("problem.metrics", "calls"),
        "problem.metrics_s": get("problem.metrics", "total_s"),
        "hybrid.switches": 1 if solve["switch_iter"] else 0,
        "hybrid.switch_iter": solve["switch_iter"] or 0,
        "hybrid.pd_ratio_max": solve["pd_ratio_max"],
        "accounting.factor_calls_observed": get("cholesky.factor", "calls"),
        "accounting.factorizations_reported": solve["factorizations"],
        "accounting.warnings": solve["warnings"],
    }


_MAXED = ("sparse.normal_nnz", "hybrid.pd_ratio_max")


def add_into(total: dict, values: dict) -> None:
    """Accumulate one solve's :func:`layer_values` over instances."""
    for key, value in values.items():
        if key in _MAXED:
            total[key] = max(total.get(key, 0.0), value)
        else:
            total[key] = total.get(key, 0.0) + value


def finish(total: dict, engine: str) -> dict:
    """Reported per-layer metrics of one engine, "<module>.<metric>"."""
    out = dict(total)
    pcg_calls, converged = out["cg.pcg_calls"], out.pop("cg.pcg_converged")
    # vacuously 1 when PCG never ran (a hybrid without a switch)
    out["cg.pcg_converged_ratio"] = converged / pcg_calls if pcg_calls else 1.0
    primal_iters = out["primal.iterations"]
    facts = out.pop("primal.factorizations")
    out["primal.factorizations_per_iter"] = facts / primal_iters if primal_iters else 0.0
    # mean switch iteration over the instances that switched; 0 when none did
    switches = out.pop("hybrid.switches")
    out["hybrid.switch_iter"] = out["hybrid.switch_iter"] / switches if switches else 0.0
    wanted = {f"{module}.{metric}" for module, metric, _, _ in LAYER_METRICS[engine]}
    return {key: value for key, value in out.items() if key in wanted}


_SETUP_SPANS = ("mps.parse", "problem.to_standard")


def module_self_times(spans) -> dict:
    """Self seconds per lpipm module (the part of a span name before the
    dot) inside the solve, for the sizing statement."""
    out = defaultdict(float)
    for name, stats in summarize(spans).items():
        if name not in _SETUP_SPANS:
            out[name.split(".")[0]] += stats["self_s"]
    return dict(out)
