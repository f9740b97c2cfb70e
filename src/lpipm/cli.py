"""Command-line front end: solve MPS files, generate planted instances,
and probe normal-matrix spectra.

Exit codes: 0 optimal, 1 usage or input errors, 2 iteration limit,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
import time

from .errors import ModelError, ParseError
from .generator import generate_instance
from .hybrid import SwitchPolicy, hybrid_solve
from .mehrotra import PdConfig, pd_solve, pd_starting_point
from .mps import parse_mps
from .primal import DELAYED_SCALING, EXACT, PrimalConfig, primal_solve
from .problem import (
    StandardLp,
    dualize,
    symmetric_to_standard,
    to_standard_form,
    to_symmetric_form,
)
from .results import SolveResult, SolveStatus
from .spectra import probe_spectra, spectra_csv
from .trace import TraceLog, emit_csv

ALGORITHMS = ("pd", "primal", "primal-exact", "hybrid")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpipm",
        description="Sparse LP interior-point solvers (primal-dual, primal "
        "barrier with delayed scaling, hybrid).",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    solve = sub.add_parser("solve", help="solve an MPS file")
    solve.add_argument("input", help="path to the MPS file")
    solve.add_argument("--algorithm", choices=ALGORITHMS, default="hybrid")
    solve.add_argument("--tol", type=float, default=1e-10)
    solve.add_argument("--max-iter", type=int, default=100)
    solve.add_argument("--tau", type=float, default=None,
                       help="barrier cut of one full primal step, applied to "
                       "the measured complementarity; a damped step of "
                       "length alpha cuts by 1 - tau*alpha "
                       "(default 1/(10 sqrt(n)))")
    solve.add_argument("--nu", type=float, default=1.0,
                       help="threshold of the scaled distance: the primal "
                       "engine's refresh trigger and delayed scaling point, "
                       "and the hybrid's switch distance")
    solve.add_argument("--switch-dist", type=float, default=1e-1,
                       help="hybrid switch distance: the primal-dual step's "
                       "thresholded distance must fall below it before the "
                       "hybrid switches to the primal engine")
    solve.add_argument("--switch-ratio", type=float, default=30.0,
                       help="hybrid switch ratio: the averaged "
                       "factorization/step time ratio of the primal-dual "
                       "iterations must exceed it before the hybrid switches")
    solve.add_argument("--trace", default=None, help="write per-iteration CSV here")
    solve.add_argument("--dualize", action="store_true",
                       help="solve the symmetric-form dual instead")
    solve.add_argument("--quiet", action="store_true")

    gen = sub.add_parser("generate", help="write a planted-optimum instance")
    gen.add_argument("rows", type=int)
    gen.add_argument("cols", type=int)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--degenerate", action="store_true")
    gen.add_argument("--density", type=float, default=0.25)
    gen.add_argument("--spread", type=float, default=0.0,
                     help="decades of spread in the planted basic values")
    gen.add_argument("--out", default="instance", help="output path prefix")
    gen.add_argument("--quiet", action="store_true")

    probe = sub.add_parser("probe", help="condition-number probes along a run")
    probe.add_argument("input", help="path to the MPS file")
    probe.add_argument("--algorithm", choices=("primal", "primal-exact"),
                       default="primal-exact")
    probe.add_argument("--tol", type=float, default=1e-8)
    probe.add_argument("--max-iter", type=int, default=200)
    probe.add_argument("--tau", type=float, default=None)
    probe.add_argument("--window", type=int, default=5,
                       help="number of final iterates to probe")
    probe.add_argument("--iters", type=int, default=30, help="Lanczos steps")
    probe.add_argument("--trace", default=None, help="write the CSV here")
    probe.add_argument("--quiet", action="store_true")
    return parser


def _load_standard(path: str) -> StandardLp:
    with open(path, "rb") as fh:
        text = fh.read()
    return to_standard_form(parse_mps(text))


def _solve(args) -> SolveResult:
    std = _load_standard(args.input)
    problem = std
    if args.dualize:
        problem = symmetric_to_standard(dualize(to_symmetric_form(std)))

    trace_log = TraceLog() if args.trace else None
    pd_cfg = PdConfig(max_iter=args.max_iter, tol=args.tol)
    if args.algorithm == "pd":
        result = pd_solve(problem, pd_cfg, trace_log=trace_log)
    elif args.algorithm in ("primal", "primal-exact"):
        mode = DELAYED_SCALING if args.algorithm == "primal" else EXACT
        cfg = PrimalConfig(tau=args.tau, nu=args.nu, max_iter=args.max_iter,
                           tol=args.tol, mode=mode)
        result = primal_solve(problem, cfg, pd_starting_point(problem),
                              trace_log=trace_log)
    else:
        primal_cfg = PrimalConfig(tau=args.tau, nu=args.nu, max_iter=args.max_iter,
                                  tol=args.tol, mode=DELAYED_SCALING)
        policy = SwitchPolicy(
            dist_threshold=args.switch_dist,
            time_ratio_threshold=args.switch_ratio,
        )
        result = hybrid_solve(problem, pd_cfg, primal_cfg, policy,
                              trace_log=trace_log)

    if args.trace:
        emit_csv(trace_log.records, args.trace)
    if args.dualize:
        # strong duality maps the dual optimum back to the original value
        value_std = problem.recovery.original_objective(result.objective)
        result.objective = std.recovery.original_objective(value_std)
    else:
        result.objective = std.recovery.original_objective(result.objective)
    return result


def _status_line(result: SolveResult) -> str:
    return (
        f"status={result.status} "
        f"objective={result.objective:.10e} "
        f"e_p={result.e_p:.3e} e_d={result.e_d:.3e} e_g={result.e_g:.3e} "
        f"iterations={result.iterations} "
        f"factorizations={result.factorizations} "
        f"wall_s={result.wall_s:.3f}"
    )


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1

    try:
        if args.subcommand == "solve":
            result = _solve(args)
            if not args.quiet:
                print(_status_line(result))
            return result.exit_code()

        if args.subcommand == "generate":
            inst = generate_instance(
                args.rows, args.cols, args.seed,
                degenerate=args.degenerate, density=args.density,
                spread=args.spread,
            )
            mps_path = args.out + ".mps"
            cert_path = args.out + ".cert"
            with open(mps_path, "w") as fh:
                fh.write(inst.mps_text)
            with open(cert_path, "w") as fh:
                fh.write(inst.certificate_text)
            if not args.quiet:
                print(f"wrote {mps_path} and {cert_path} "
                      f"(objective {inst.certificate.objective:.10e})")
            return 0

        # probe
        if args.window < 1:
            raise ValueError(f"--window must be at least 1, got {args.window}")
        std = _load_standard(args.input)
        mode = DELAYED_SCALING if args.algorithm == "primal" else EXACT
        cfg = PrimalConfig(tau=args.tau, max_iter=args.max_iter,
                           tol=args.tol, mode=mode)
        t0 = time.perf_counter()
        result = primal_solve(std, cfg, pd_starting_point(std),
                              collect_iterates=True)
        window = result.iterates[-args.window:]
        rows = probe_spectra(std, window, anchor=0, iters=args.iters)
        csv_text = spectra_csv(rows)
        if args.trace:
            with open(args.trace, "w") as fh:
                fh.write(csv_text)
        elif not args.quiet:
            sys.stdout.write(csv_text)
        if not args.quiet:
            print(f"probe status={result.status} window={len(window)} "
                  f"wall_s={time.perf_counter() - t0:.3f}", file=sys.stderr)
        return result.exit_code()

    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ModelError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
