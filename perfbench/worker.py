"""Worker: one freshly forked process per engine solve.

``python3 perfbench/worker.py`` imports lpipm once and then serves
requests, one JSON line ``{"engine", "trace", "mps"}`` on stdin each.
For every request it forks a solve process, which parses the MPS text,
runs the engine once and hands back one JSON line with the set-up and
solve times, the status and the counts; the worker prints that line on
stdout ("" when the solve process died).  With ``trace`` set, the solve
process wraps every call into the lpipm modules first, and the line
also carries the spans and the per-layer values.

A fresh process per solve matters: ``lpipm.cholesky`` memoizes the
fill-reducing ordering per sparsity pattern in a module-global dict, so
in a shared process whichever engine ran first would pay the ordering
for the others.  The worker itself never solves or traces, so every
forked process starts from freshly imported modules, without paying
the import again.  BLAS is single-threaded here (set by the caller), so
the worker has no threads to lose at a fork.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
import traceback
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import lpipm.hybrid  # noqa: E402
import lpipm.mehrotra  # noqa: E402
import lpipm.mps  # noqa: E402
import lpipm.primal  # noqa: E402
import lpipm.problem  # noqa: E402
from lpipm import PdConfig, PrimalConfig, SwitchPolicy, TraceLog  # noqa: E402

import tracing  # noqa: E402

# the settings of the acceptance suite and the README
PRIMAL = PrimalConfig(tau=0.28, cg_tol=1e-12, tol=1e-10, max_iter=100, mode="delayed_scaling")


def run_engine(engine: str, std, trace_log):
    # attributes are looked up at call time so that traced wraps apply
    if engine == "pd":
        return lpipm.mehrotra.pd_solve(std, PdConfig())
    if engine == "primal":
        start = lpipm.mehrotra.pd_starting_point(std)
        return lpipm.primal.primal_solve(std, PRIMAL, start)
    if engine == "hybrid":
        # measured timing drives the switch, as for CLI users
        return lpipm.hybrid.hybrid_solve(
            std, PdConfig(), PRIMAL, SwitchPolicy(), trace_log=trace_log
        )
    raise ValueError(f"unknown engine {engine!r}")


def solve(request: dict) -> dict:
    """One solve; call it only in a process of its own."""
    engine = request["engine"]
    tracer = None
    if request["trace"]:
        tracer = tracing.Tracer()
        tracer.install()

    t0 = time.perf_counter()
    std = lpipm.problem.to_standard_form(lpipm.mps.parse_mps(request["mps"]))
    setup = time.perf_counter() - t0
    trace_log = TraceLog()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        result = run_engine(engine, std, trace_log)
        wall = time.perf_counter() - t0

    pd_rows = [r for r in trace_log if r.phase == "pd"]
    out = {
        "engine": engine,
        "setup_s": setup,
        "wall_s": wall,
        "status": str(result.status),
        "objective": std.recovery.original_objective(result.objective),
        "iterations": result.iterations,
        "factorizations": result.factorizations,
        "cg_iterations": result.cg_iterations,
        "warnings": len(caught),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "phase_stats": result.phase_stats,
        "switch_iter": result.phase_stats.get("switch_iteration"),
        "pd_ratio_max": max(
            (r.wall_factor_ms / max(r.wall_solve_ms, 1e-9) for r in pd_rows), default=0.0
        ),
        "message": result.message,
    }
    if tracer is not None:
        spans = tracer.spans
        out["layers"] = tracing.layer_values(spans, out)
        out["module_self_s"] = tracing.module_self_times(spans)
        base = spans[0][2] if spans else 0.0
        out["spans"] = [[n, p, t0 - base, t1 - base, a] for n, p, t0, t1, a in spans]
    return out


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        # every solve starts from the same collector state, as a fresh
        # process would, whatever the requests before it allocated
        gc.collect()
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # the solve process
            os.close(read_fd)
            os.dup2(2, 1)  # stray prints must not reach the request protocol
            try:
                payload = json.dumps(solve(request)).encode()
                with os.fdopen(write_fd, "wb") as pipe:
                    pipe.write(payload)
            except BaseException:
                traceback.print_exc()
                os._exit(1)
            os._exit(0)
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as pipe:
            payload = pipe.read()  # drained before the wait
        os.waitpid(pid, 0)
        sys.stdout.write(payload.decode() + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
