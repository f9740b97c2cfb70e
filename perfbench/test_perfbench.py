"""Tests of the benchmark itself, in seconds through its smoke mode.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke(trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result_lines(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def test_smoke_end_to_end_schema():
    proc = _smoke(0)
    assert proc.returncode == 0, proc.stderr
    results = _result_lines(proc.stdout)
    assert len(results) == len(SPEC["workloads"])
    for result in results:
        assert run.check_schema(result, SPEC, trace=0) == []
        assert result["correct"] and result["attempted"] == 3


def test_smoke_per_layer_schema():
    proc = _smoke(1)
    assert proc.returncode == 0, proc.stderr
    results = _result_lines(proc.stdout)
    assert len(results) == len(SPEC["workloads"])
    for result in results:
        assert run.check_schema(result, SPEC, trace=1) == []
        metrics = result["metrics"]
        # every engine solves through one numeric factorization at least
        for engine in ("pd", "primal", "hybrid"):
            assert metrics[f"{engine}.cholesky.factor_calls"]["value"] >= 1
    assert "sizing: pd self time on dense_tail" in proc.stdout


def test_spec_lists_every_per_layer_metric():
    assert SPEC["per_layer"] == tracing.per_layer_spec()


def test_bare_directory_exits_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _smoke(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert _result_lines(proc.stdout) == []


def test_self_time_subtracts_direct_children():
    spans = [
        ["mehrotra.solve", -1, 0.0, 10.0, None],
        ["sparse.assemble", 0, 1.0, 4.0, {"flops": 8.0, "nnz": 5}],
        ["cholesky.factor", 0, 4.0, 9.0, {"flops": 2.0}],
        ["cholesky.order", 2, 4.0, 5.0, None],
    ]
    s = tracing.summarize(spans)
    assert s["mehrotra.solve"]["self_s"] == 2.0
    assert s["cholesky.factor"]["self_s"] == 4.0
    assert s["sparse.assemble"]["nnz_max"] == 5
    assert tracing.module_self_times(spans) == {"mehrotra": 2.0, "sparse": 3.0, "cholesky": 5.0}


def test_schema_check_reports_a_missing_metric():
    result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {
        m["name"]: {"value": 1.0, "unit": m["unit"]} for m in SPEC["end_to_end"][1:]
    }}
    problems = run.check_schema(result, SPEC, trace=0)
    assert problems and SPEC["end_to_end"][0]["name"] in problems[0]
