"""Solve status and result containers shared by all engines."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class SolveStatus(enum.Enum):
    OPTIMAL = "Optimal"
    ITERATION_LIMIT = "IterationLimit"
    NUMERICAL_FAILURE = "NumericalFailure"
    HALTED = "Halted"  # internal: a driver hook stopped the loop

    def __str__(self):
        return self.value


@dataclass
class SolveResult:
    status: SolveStatus
    x: np.ndarray
    y: np.ndarray
    s: np.ndarray
    objective: float
    e_p: float
    e_d: float
    e_g: float
    iterations: int
    factorizations: int
    cg_iterations: int
    wall_s: float = 0.0
    phase_stats: dict = field(default_factory=dict)
    iterates: list = field(default_factory=list)
    message: str = ""

    def exit_code(self) -> int:
        return {
            SolveStatus.OPTIMAL: 0,
            SolveStatus.ITERATION_LIMIT: 2,
            SolveStatus.NUMERICAL_FAILURE: 3,
        }.get(self.status, 3)
