#!/usr/bin/env python3
"""Digest every engine's run on the benchmark's instances, for parity.

A refactor that should leave the engines' arithmetic alone is checked by
running this script on the tree before and on the tree after it, and
comparing the two outputs line by line.  It builds each workload's
instances with ``perfbench/workloads.build``, solves each with five
engines and prints one line per instance, with one digest per engine:

* ``pd``: ``pd_solve`` with ``PdConfig()``;
* ``exact`` and ``delayed``: ``primal_solve`` in each mode, from
  ``pd_starting_point``, with the benchmark worker's ``PrimalConfig``;
* ``hybrid``: ``hybrid_solve`` with ``SwitchPolicy()``;
* ``forced``: ``hybrid_solve`` with ``SwitchPolicy(min_pcg_budget=0)``,
  which switches on the step distance alone.

A digest is the first 12 hex digits of the SHA-256 of the trace CSV with
``wall_factor_ms`` and ``wall_solve_ms`` zeroed, the bytes of ``x``, and
the status, iterations, factorizations, PCG iterations and message.  The
CSV writes floats at 17 digits, so equal digests mean bitwise equal
traces and ``x``.  Each line ends with every engine's counts
(iterations/factorizations/PCG iterations), to read a difference by.

    python tools/trace_parity.py --seeds 1 4 7
    python tools/trace_parity.py --seeds 1 --workloads sparse_wide
    python tools/trace_parity.py --smoke
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

from lpipm import (  # noqa: E402
    EXACT,
    PdConfig,
    SwitchPolicy,
    TraceLog,
    emit_csv,
    hybrid_solve,
    parse_mps,
    pd_solve,
    pd_starting_point,
    primal_solve,
    to_standard_form,
)

# the benchmark worker's primal settings
from worker import PRIMAL  # noqa: E402

_WALL_COLUMNS = ("wall_factor_ms", "wall_solve_ms")


def _engines():
    exact = dataclasses.replace(PRIMAL, mode=EXACT)
    return {
        "pd": lambda std, log: pd_solve(std, PdConfig(), trace_log=log),
        "exact": lambda std, log: primal_solve(std, exact, pd_starting_point(std), log),
        "delayed": lambda std, log: primal_solve(std, PRIMAL, pd_starting_point(std), log),
        "hybrid": lambda std, log: hybrid_solve(std, PdConfig(), PRIMAL, SwitchPolicy(), log),
        "forced": lambda std, log: hybrid_solve(
            std, PdConfig(), PRIMAL, SwitchPolicy(min_pcg_budget=0), log
        ),
    }


def _trace_without_walls(log) -> bytes:
    buf = io.BytesIO()
    emit_csv(log.records, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue().decode())))
    walls = [rows[0].index(name) for name in _WALL_COLUMNS]
    for row in rows[1:]:
        for j in walls:
            row[j] = "0"
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue().encode()


def digest(result, log) -> str:
    h = hashlib.sha256(_trace_without_walls(log))
    h.update(result.x.tobytes())
    h.update(
        f"{result.status}|{result.iterations}|{result.factorizations}|"
        f"{result.cg_iterations}|{result.message}".encode()
    )
    return h.hexdigest()[:12]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--smoke", action="store_true",
                        help="the benchmark's smoke-size families")
    parser.add_argument("--workloads", nargs="+", choices=sorted(workloads.FAMILIES),
                        default=sorted(workloads.FAMILIES), metavar="WORKLOAD",
                        help="the workloads to run (default: all of them)")
    args = parser.parse_args(argv)

    engines = _engines()
    for seed in args.seeds:
        for workload in sorted(args.workloads):
            for k, inst in enumerate(workloads.build(workload, seed, smoke=args.smoke)):
                std = to_standard_form(parse_mps(inst.mps_text))
                digests, counts = [], []
                for name, run in engines.items():
                    log = TraceLog()
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        result = run(std, log)
                    digests.append(f"{name}={digest(result, log)}")
                    counts.append(
                        f"{result.iterations}/{result.factorizations}/{result.cg_iterations}"
                    )
                print(f"{workload} seed {seed} #{k}: {' '.join(digests)}  [{' '.join(counts)}]",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
