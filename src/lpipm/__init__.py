"""Sparse LP interior-point solvers.

Engines: Mehrotra predictor-corrector (``pd_solve``), the primal barrier
method in exact and delayed-scaling modes (``primal_solve``), and a
hybrid controller that switches from primal-dual to delayed-scaling
primal iterations near convergence to reuse cached normal-matrix
factorizations (``hybrid_solve``).
"""

from .cg import CgOutcome, pcg_solve
from .cholesky import CholeskyFactor, cholesky_factorize, minimum_degree_ordering
from .errors import (
    FactorizationFailed,
    InsufficientData,
    InteriorityViolation,
    ModelError,
    NumericalBreakdown,
    ParseError,
    SolverError,
)
from .generator import Certificate, GeneratedInstance, generate_instance, parse_certificate
from .hybrid import SwitchDecision, SwitchPolicy, hybrid_solve, should_switch
from .mehrotra import PdConfig, mehrotra_step, pd_solve, pd_starting_point
from .mps import LpProblem, parse_mps, write_mps
from .primal import (
    DELAYED_SCALING,
    EXACT,
    NormalSolver,
    PreconditionerCache,
    PrimalConfig,
    feasibility_repair,
    primal_solve,
    projected_direction,
    ratio_test,
    refresh_cache,
)
from .problem import (
    IterateState,
    RecoveryMap,
    StandardLp,
    SymmetricLp,
    barrier_gradient,
    complementarity,
    convergence_metrics,
    dualize,
    symmetric_to_standard,
    to_standard_form,
    to_symmetric_form,
)
from .results import SolveResult, SolveStatus
from .scaling import bound_scaling_diag, delayed_scaling_point, thresholded_distance
from .sparse import NormalMatrix, SparseMatrix, form_normal_matrix
from .spectra import SpectraRow, condition_number, probe_spectra, spectra_csv
from .trace import (
    TraceLog,
    TraceRecord,
    classify_convergence,
    emit_csv,
    parse_csv,
)

__version__ = "0.1.0"
