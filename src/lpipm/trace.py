"""Per-iteration telemetry, CSV emission, and convergence classification."""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, fields

import numpy as np

from .errors import InsufficientData

LINEAR = "linear"
FAST_AT_END = "fast_at_end"
UNCLEAR = "unclear"

_MIN_SEGMENT = 3
_R2_LINEAR = 0.9
_SLOPE_RATIO = 3.0
_R2_IMPROVEMENT = 0.05


@dataclass(frozen=True)
class TraceRecord:
    iter: int
    phase: str  # 'pd' or 'primal'
    mu: float
    e_p: float
    e_d: float
    e_g: float
    step_norm: float
    thresholded_step: float
    delta: float | None
    alpha: float
    factorized: bool
    cg_iters: int
    wall_factor_ms: float
    wall_solve_ms: float
    predictor_step: float = 0.0  # primal tangent predictor's step; 0: none


CSV_COLUMNS = tuple(f.name for f in fields(TraceRecord))
# the inverse of _fmt for each annotated field type (annotations are strings)
_PARSERS = {
    "int": int,
    "str": str,
    "float": float,
    "float | None": lambda text: None if text == "" else float(text),
    "bool": lambda text: text == "1",
}
_COLUMN_PARSERS = tuple(_PARSERS[f.type] for f in fields(TraceRecord))


class TraceLog:
    """Append-only sink owned by a single solve."""

    def __init__(self):
        self.records: list[TraceRecord] = []

    def add(self, record: TraceRecord):
        if self.records and record.iter <= self.records[-1].iter:
            raise ValueError("trace iterations must be strictly increasing")
        self.records.append(record)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit_csv(records, destination) -> int:
    """Write records as CSV (header + one row each, RFC-4180 quoting,
    floats at 17 significant digits) to a path or a binary stream.
    Returns the number of bytes written."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow([_fmt(getattr(r, name)) for name in CSV_COLUMNS])
    payload = buf.getvalue().encode("utf-8")
    if isinstance(destination, (str, os.PathLike)):
        with open(destination, "wb") as fh:
            fh.write(payload)
    else:
        destination.write(payload)
    return len(payload)


def parse_csv(text) -> list:
    """Inverse of :func:`emit_csv`; numeric fields round-trip bit-exactly.
    Each column is parsed by the annotated type of its field."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != CSV_COLUMNS:
        raise ValueError("unrecognized trace CSV header")
    out = []
    for k, row in enumerate(rows[1:], start=1):
        if len(row) != len(CSV_COLUMNS):
            raise ValueError(f"trace CSV row {k} has {len(row)} fields, not {len(CSV_COLUMNS)}")
        out.append(TraceRecord(*(parse(value) for parse, value in zip(_COLUMN_PARSERS, row))))
    return out


def _fit(t, y):
    """Least-squares line fit; returns (slope, residual sum of squares)."""
    coeffs = np.polyfit(t, y, 1)
    pred = np.polyval(coeffs, t)
    return coeffs[0], float(np.sum((y - pred) ** 2))


def classify_convergence(records) -> str:
    """Label the step-norm decay as linear, fast_at_end, or unclear.

    A single log-linear fit with R^2 >= 0.9 is 'linear'.  Otherwise a
    two-segment fit whose final slope is at least 3x steeper than the
    initial one, and which improves R^2 by at least 0.05, is
    'fast_at_end'.  Thresholds are heuristics.
    """
    records = list(records)
    if len(records) < 5:
        raise InsufficientData(f"need at least 5 records, got {len(records)}")
    pts = [(r.iter, r.step_norm) for r in records if r.step_norm > 0.0]
    if len(pts) < 5:
        raise InsufficientData("too few positive step norms to classify")
    t = np.array([p[0] for p in pts], dtype=np.float64)
    y = np.log(np.array([p[1] for p in pts], dtype=np.float64))

    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return UNCLEAR  # constant steps: no decay to speak of
    slope_all, ss_all = _fit(t, y)
    r2_single = 1.0 - ss_all / ss_tot
    if r2_single >= _R2_LINEAR:
        return LINEAR

    best = None
    for split in range(_MIN_SEGMENT, len(t) - _MIN_SEGMENT + 1):
        s1, ss1 = _fit(t[:split], y[:split])
        s2, ss2 = _fit(t[split:], y[split:])
        r2 = 1.0 - (ss1 + ss2) / ss_tot
        if best is None or r2 > best[0]:
            best = (r2, s1, s2)
    if best is not None:
        r2, s1, s2 = best
        steeper = s2 < 0.0 and abs(s2) >= _SLOPE_RATIO * abs(s1)
        fits = r2 >= _R2_LINEAR  # a bad two-segment fit classifies nothing
        if fits and steeper and (r2 - r2_single) >= _R2_IMPROVEMENT:
            return FAST_AT_END
    return UNCLEAR
