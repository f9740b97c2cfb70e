import io

import numpy as np
import pytest

from lpipm import (
    InsufficientData,
    TraceLog,
    TraceRecord,
    classify_convergence,
    emit_csv,
    parse_csv,
)


def _record(k, step, delta=None, phase="pd", mu=1.0):
    return TraceRecord(
        iter=k, phase=phase, mu=mu, e_p=1e-8 / k, e_d=2e-9, e_g=3e-7 / k,
        step_norm=step, thresholded_step=step / 2.0, delta=delta,
        alpha=0.9995, factorized=(k % 2 == 0), cg_iters=k,
        wall_factor_ms=1.25, wall_solve_ms=0.5, predictor_step=0.9 / k,
    )


class TestEmit:
    def test_empty_records_header_only(self):
        buf = io.BytesIO()
        n = emit_csv([], buf)
        text = buf.getvalue().decode()
        assert n == len(buf.getvalue())
        assert text.count("\n") == 1
        assert text.startswith("iter,phase,mu,")

    def test_one_record_two_lines(self):
        buf = io.BytesIO()
        emit_csv([_record(1, 0.5)], buf)
        assert buf.getvalue().decode().count("\n") == 2

    def test_absent_delta_is_empty_field(self):
        buf = io.BytesIO()
        emit_csv([_record(1, 0.5, delta=None)], buf)
        row = buf.getvalue().decode().splitlines()[1]
        cells = row.split(",")
        assert cells[8] == ""  # the delta column

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(60)
        records = [
            _record(
                k,
                float(np.exp(rng.standard_normal() * 20)),
                delta=None if k % 3 == 0 else float(rng.random()),
                mu=float(0.1 ** rng.integers(0, 300)),
            )
            for k in range(1, 25)
        ]
        buf = io.BytesIO()
        emit_csv(records, buf)
        parsed = parse_csv(buf.getvalue())
        assert len(parsed) == len(records)
        for a, b in zip(records, parsed):
            for field in (
                "iter", "phase", "mu", "e_p", "e_d", "e_g", "step_norm",
                "thresholded_step", "delta", "alpha", "factorized",
                "cg_iters", "wall_factor_ms", "wall_solve_ms", "predictor_step",
            ):
                assert getattr(a, field) == getattr(b, field)

    def test_predictor_step_is_the_last_column(self):
        buf = io.BytesIO()
        emit_csv([_record(1, 0.5)], buf)
        header, row = buf.getvalue().decode().splitlines()
        assert header.endswith(",wall_solve_ms,predictor_step")
        assert row.endswith(",0.90000000000000002")

    def test_predictor_step_defaults_to_zero(self):
        record = TraceRecord(
            iter=1, phase="pd", mu=1.0, e_p=0.0, e_d=0.0, e_g=0.0, step_norm=0.0,
            thresholded_step=0.0, delta=None, alpha=1.0, factorized=True,
            cg_iters=0, wall_factor_ms=0.0, wall_solve_ms=0.0,
        )
        assert record.predictor_step == 0.0

    def test_write_to_path(self, tmp_path):
        path = tmp_path / "trace.csv"
        n = emit_csv([_record(1, 0.5)], path)
        assert path.stat().st_size == n

    def test_log_enforces_increasing_iters(self):
        log = TraceLog()
        log.add(_record(1, 0.5))
        with pytest.raises(ValueError):
            log.add(_record(1, 0.4))


class TestClassifier:
    def test_exact_geometric_is_linear(self):
        records = [_record(k, 0.5**k) for k in range(1, 15)]
        assert classify_convergence(records) == "linear"

    def test_plateau_then_drop_is_fast_at_end(self):
        records = [_record(k, 0.95**k) for k in range(1, 21)]
        records += [_record(k, 0.95**20 * 0.1 ** (k - 20)) for k in range(21, 29)]
        assert classify_convergence(records) == "fast_at_end"

    def test_alternating_is_unclear(self):
        vals = [1.0, 0.1] * 6
        records = [_record(k + 1, v) for k, v in enumerate(vals)]
        assert classify_convergence(records) == "unclear"

    def test_too_few_records(self):
        with pytest.raises(InsufficientData):
            classify_convergence([_record(k, 0.5) for k in range(1, 5)])

    def test_scale_invariance(self):
        rng = np.random.default_rng(61)
        base = [0.7**k * float(np.exp(0.05 * rng.standard_normal())) for k in range(1, 30)]
        for scale in (1e-8, 1.0, 1e9):
            records = [_record(k + 1, scale * v) for k, v in enumerate(base)]
            assert classify_convergence(records) == "linear"

    def test_zero_steps_skipped(self):
        records = [_record(k, 0.5**k) for k in range(1, 12)]
        records.append(_record(12, 0.0))
        assert classify_convergence(records) == "linear"
