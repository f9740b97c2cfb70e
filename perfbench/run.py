"""lpipm benchmark: time to a 1e-10 solution for the pd, primal and
hybrid engines on planted LP families.

    python3 perfbench/run.py --workload dense_tail --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke --trace 1

Run from the root of a checkout; the program is imported from ``src/``.
Each run builds the workload's instances from ``--seed``, then repeats
whole rounds while the next one fits in ``--seconds`` (at least one).  A round
solves every instance with every engine, each solve in a freshly forked
process (see ``worker.py``), and checks each objective against the instance's
planted certificate.  Times are summed over the instances of a round,
and the medians over rounds are reported.  ``setup_s`` is the time of
``parse_mps`` + ``to_standard_form`` over the instances' texts, summed
per engine, as each solve process sets up its instance; its median over
engines and rounds is reported.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs every solve twice, untraced and traced, and reports
the per-layer metrics, the tracing overhead (traced minus untraced
wall) and whether the expected layer dominates pd; its spans are
written to ``perfbench/out/`` when the run ends.

``--smoke`` runs every workload at tiny sizes for one round and checks
the output schema; it takes seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A solve fails
when its status is not Optimal or its objective is more than
``1e-8 * (1 + |ref|)`` from the certificate; ``correct`` is false when a
solve claims Optimal with a wrong objective.  BLAS runs single-threaded
in every solve process, and on at most one thread per CPU anywhere.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

ENGINES = ("pd", "primal", "hybrid")
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OBJECTIVE_REL_TOL = 1e-8
RUN_LIMIT_S = 165.0  # a run must end within 180 s
# pd's expected dominant module, per the sizing of each family
EXPECTED_PD_LEADER = {"dense_tail": "sparse", "sparse_wide": "cholesky"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at tiny sizes, one round, schema check")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    return args


class Worker:
    """The ``worker.py`` process, which forks one fresh process per solve."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, **{var: str(BLAS_THREADS) for var in BLAS_VARS}),
            process_group=0,  # the worker and its solve process, killed together
        )

    def solve(self, engine, inst, traced, deadline):
        request = {"engine": engine, "trace": traced, "mps": inst.mps_text}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    max(deadline - time.perf_counter(), 0.0))
        line = self.proc.stdout.readline() if ready else None
        if not line or not line.strip():
            self._kill()
            state = "did not finish in time" if line is None else "died"
            raise RuntimeError(f"{engine} solve of {inst.name} {state}")
        return json.loads(line)

    def _kill(self):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # already gone
        self.proc.wait()

    def close(self):
        """Stop the worker and any solve it runs, and wait for both."""
        try:
            self.proc.stdin.close()  # ends the worker's request loop
            self.proc.wait(timeout=10)
        except (BrokenPipeError, subprocess.TimeoutExpired):
            self._kill()
        self.proc.stdout.close()


def judge(solve, inst):
    """Mark a worker record ok / wrong against the certificate."""
    ref = inst.reference
    close = abs(solve["objective"] - ref) <= OBJECTIVE_REL_TOL * (1.0 + abs(ref))
    optimal = solve["status"] == "Optimal"
    solve["instance"] = inst.name
    solve["ok"] = optimal and close
    solve["false_optimal"] = optimal and not close


def run_round(worker, instances, trace, deadline, log):
    """One pass over the instances with every engine; returns the solve
    records, untraced ones first per (instance, engine)."""
    solves = []
    for inst in instances:
        for engine in ENGINES:
            for traced in ((False, True) if trace else (False,)):
                solve = worker.solve(engine, inst, traced, deadline)
                solve["traced"] = traced
                judge(solve, inst)
                solves.append(solve)
                if engine == "hybrid":
                    log(f"  hybrid {inst.name}{' traced' if traced else ''}: "
                        f"switch_iter={solve['switch_iter']} "
                        f"pd_ratio_max={solve['pd_ratio_max']:.1f}")
                if not solve["ok"]:
                    log(f"  FAILED {engine} {inst.name}: status={solve['status']} "
                        f"objective={solve['objective']!r} ref={inst.reference!r} "
                        f"{solve['message']}")
    return solves


def sum_by_engine(solves, traced, key="wall_s"):
    out = {e: 0.0 for e in ENGINES}
    for s in solves:
        if s["traced"] == traced:
            out[s["engine"]] += s[key]
    return out


def end_to_end(rounds):
    solves = [s for r in rounds for s in r]
    walls = [sum_by_engine(r, False) for r in rounds]
    # every solve process sets up the workload's texts once: one sample
    # of the set-up time per engine and round
    setups = [t for r in rounds for t in sum_by_engine(r, False, "setup_s").values()]
    metrics = {"setup_s": (statistics.median(setups), "s")}
    for e in ENGINES:
        metrics[f"{e}_solve_s"] = (statistics.median(w[e] for w in walls), "s")
    metrics["peak_rss_mb"] = (max(s["rss_mb"] for s in solves), "MB")
    metrics["solves_ok"] = (sum(s["ok"] for s in solves) / len(solves), "share")
    return metrics


def per_layer(rounds, tracing):
    per_round = []
    for solves in rounds:
        traced = [s for s in solves if s["traced"]]
        plain = sum_by_engine(solves, False)
        walls = sum_by_engine(solves, True)
        values = {}
        for e in ENGINES:
            total = {}
            for s in traced:
                if s["engine"] == e:
                    tracing.add_into(total, s["layers"])
            layer = tracing.finish(total, e)
            mine = [s for s in solves if s["engine"] == e]
            layer["accounting.solves_failed"] = sum(not s["ok"] for s in mine) / len(mine)
            layer["trace.overhead_s"] = walls[e] - plain[e]
            values[e] = layer
        values["hybrid"]["hybrid.over_pd"] = plain["hybrid"] / plain["pd"]
        values["hybrid"]["hybrid.factorizations_saved"] = (
            values["pd"]["accounting.factorizations_reported"]
            - values["hybrid"]["accounting.factorizations_reported"]
        )
        per_round.append(values)
    units = {m["name"]: m["unit"] for m in tracing.per_layer_spec()}
    metrics = {}
    for name, unit in units.items():
        engine, key = name.split(".", 1)
        metrics[name] = (statistics.median(v[engine][key] for v in per_round), unit)
    return metrics


def sizing(workload, rounds, log):
    """State which module holds pd's largest self time, against the
    family's expectation."""
    totals = {}
    for s in rounds[0]:
        if s["traced"] and s["engine"] == "pd":
            for module, secs in s["module_self_s"].items():
                totals[module] = totals.get(module, 0.0) + secs
    if not totals:
        return
    leader = max(totals, key=totals.get)
    shares = ", ".join(f"{m} {t:.3f}s" for m, t in sorted(totals.items(), key=lambda kv: -kv[1]))
    expected = EXPECTED_PD_LEADER.get(workload)
    verdict = ("no expectation" if expected is None
               else "holds" if leader == expected else f"does NOT hold (expected {expected})")
    log(f"sizing: pd self time on {workload}: {shares}; largest is {leader}: {verdict}")


def switch_flips(rounds, log):
    """Report instances whose hybrid switch decision differs between solves."""
    decisions = {}
    for solves in rounds:
        for s in solves:
            if s["engine"] == "hybrid":
                decisions.setdefault(s["instance"], set()).add(s["switch_iter"] is not None)
    for name, seen in decisions.items():
        if len(seen) > 1:
            log(f"finding: the hybrid switch decision on {name} flipped between solves")


def check_schema(result, spec, trace):
    """Problems of a result line against BENCHMARK.json; empty when none."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result.get("failed"), int):
        problems.append("failed must be a whole number")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(expected):
        problems.append(f"metric names differ: missing {sorted(set(expected) - set(got))}, "
                        f"extra {sorted(set(got) - set(expected))}")
    for name, unit in expected.items():
        entry = got.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, expected {unit!r}")
        value = entry.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
    return problems


def run_workload(workload, args, spec, modules, log):
    workloads, tracing = modules
    t_start = time.perf_counter()
    deadline = t_start + RUN_LIMIT_S
    instances = workloads.build(workload, args.seed, smoke=args.smoke)
    log(f"{workload}: {len(instances)} instance(s), seed {args.seed}, "
        f"trace {args.trace}, BLAS threads {BLAS_THREADS} of {os.cpu_count()} CPUs")

    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    rounds = []
    worker = Worker()
    try:
        t_measure = time.perf_counter()
        while True:  # whole rounds while the next one fits in the budget
            t_round = time.perf_counter()
            rounds.append(run_round(worker, instances, args.trace, deadline, log))
            now = time.perf_counter()
            if args.smoke or now + (now - t_round) > min(t_measure + seconds, deadline):
                break
    finally:
        worker.close()

    solves = [s for r in rounds for s in r]
    if args.trace:
        metrics = per_layer(rounds, tracing)
        sizing(workload, rounds, log)
    else:
        metrics = end_to_end(rounds)
    switch_flips(rounds, log)
    result = {
        "correct": not any(s["false_optimal"] for s in solves),
        "attempted": len(solves),
        "failed": sum(not s["ok"] for s in solves),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    log(f"{workload}: {len(rounds)} round(s) in {time.perf_counter() - t_measure:.1f}s")
    for name, (value, unit) in metrics.items():
        log(f"  {name} = {value:.6g} {unit}")

    OUT_DIR.mkdir(exist_ok=True)
    dump = OUT_DIR / f"{workload}_seed{args.seed}_trace{args.trace}{'_smoke' if args.smoke else ''}.json"
    dump.write_text(json.dumps({"workload": workload, "seed": args.seed,
                                "blas_threads": BLAS_THREADS, "cpus": os.cpu_count(),
                                "rounds": rounds,
                                "result": result}))
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lpipm" / "__init__.py").is_file():
        print(f"error: {SRC / 'lpipm'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # untimed instance generation here may use every CPU; before numpy loads
    for var in BLAS_VARS:
        os.environ[var] = str(os.cpu_count() or 1)
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(workloads.FAMILIES) if args.smoke else [args.workload]
    if not set(names) <= set(workloads.FAMILIES):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    def log(line):
        print(line, flush=True)

    status = 0
    for name in names:
        result = run_workload(name, args, spec, (workloads, tracing), log)
        problems = check_schema(result, spec, args.trace)
        for p in problems:
            print(f"schema: {name}: {p}", file=sys.stderr)
        if problems:
            status = 1
        else:
            print(json.dumps(result), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
