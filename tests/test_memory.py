"""Peak memory of set-up and of the engines.

numpy reports its array buffers to ``tracemalloc``, so the traced peak
above the level at entry counts every array and string a call makes.

Every factorization lives in one m x m array, built after the previous
factor is released: two m x m arrays alive at once, an old factor beside
a new one or a copy made for LAPACK, put the peak of a solve above
2 x 8m² bytes.  On a dense ``A`` the assembly holds ``B = A D`` and the
array SYRK writes, and a shifted retry rewrites that array in place.
On a sparse ``A`` the assembly holds, beside that
array, the sparse product ``M = A D^2 A^T`` and a plan of a few int32
per entry of it: O(nnz(M)), where a plan with one record per pair of
entries in a column of ``A`` would be O(sum_k nnz_k^2).  Set-up splits
the MPS text into lines one block at a time and copies ``A`` once on its
way to the standard form: the lines of the whole text, or a chain of
copies of ``A``, put its peak above twice the text.
"""

import tracemalloc

import numpy as np
import pytest

from lpipm import (
    DELAYED_SCALING,
    PdConfig,
    PrimalConfig,
    SolveStatus,
    SparseMatrix,
    cholesky_factorize,
    form_normal_matrix,
    generate_instance,
    parse_mps,
    pd_solve,
    pd_starting_point,
    primal_solve,
    to_standard_form,
)

# one m x m array plus the vectors and sparse products of the solve
PEAK_BOUND = 1.5
# share of B = A D and the m x m array that one dense assembly may hold
DENSE_ASSEMBLY_BOUND = 1.05
# bytes per entry of A D^2 A^T that one assembly may hold beside its
# array: 12 for scipy's product (a value and an int32 index), 4 per int32
# array of the plan, and the analysis's temporaries on the first assembly
ASSEMBLY_BYTES_PER_ENTRY = 24


@pytest.fixture(scope="module")
def wide_lp():
    # sparse fill, 4 nonzeros per column: A D^2 A^T is assembled sparse
    gen = generate_instance(600, 1320, 7, density=4 / 600)
    return to_standard_form(parse_mps(gen.mps_text))


def _traced_peak(run):
    """The result of ``run()`` and its traced peak above the level at entry."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    entry = tracemalloc.get_traced_memory()[0]
    try:
        result = run()
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, peak


def test_pd_holds_one_factorization(wide_lp):
    m = wide_lp.nrows
    result, peak = _traced_peak(lambda: pd_solve(wide_lp, PdConfig()))
    assert result.status == SolveStatus.OPTIMAL
    assert peak <= PEAK_BOUND * 8 * m * m, f"peak {peak / (8 * m * m):.2f} x 8m²"


def test_delayed_primal_holds_one_factorization(wide_lp):
    m = wide_lp.nrows
    start = pd_starting_point(wide_lp)
    cfg = PrimalConfig(tau=0.28, cg_tol=1e-12, mode=DELAYED_SCALING)
    result, peak = _traced_peak(lambda: primal_solve(wide_lp, cfg, start))
    assert result.status == SolveStatus.OPTIMAL
    assert result.factorizations > 1  # the cache was refreshed
    assert peak <= PEAK_BOUND * 8 * m * m, f"peak {peak / (8 * m * m):.2f} x 8m²"


def test_setup_holds_the_text_about_once():
    # the benchmark's dense_tail size: 177k lines, 6.3 MB of text
    text = generate_instance(280, 630, 7, density=1.0, spread=3).mps_text
    std, peak = _traced_peak(lambda: to_standard_form(parse_mps(text)))
    assert std.A.shape == (280, 630)
    assert peak <= 2 * len(text), f"peak {peak / len(text):.2f} x the text"


def test_assembly_below_dense_fill_holds_one_array_and_the_pattern():
    # fill 0.09, just below DENSE_FILL: M is nearly dense (nnz(M) close
    # to m²), and sum_k nnz_k² is over 5x nnz(M), so a plan of one record
    # per pair of entries in a column would exceed the bound
    m, n = 300, 660
    rng = np.random.default_rng(3)
    B = rng.standard_normal((m, n))
    B[rng.random((m, n)) >= 0.09] = 0.0
    A = SparseMatrix.from_dense(B)
    assert A._dense is None
    counts = np.diff(A.col_ptr)
    d = rng.uniform(0.5, 2.0, n)
    # the first assembly analyses the pattern, the second only gathers
    for _ in range(2):
        M, peak = _traced_peak(lambda: form_normal_matrix(A, d))
        nnz = M.nnz
        assert 5 * nnz < counts @ counts
        bound = 8 * m * m + ASSEMBLY_BYTES_PER_ENTRY * nnz
        assert peak <= bound, f"peak {peak / 1e6:.2f} MB, bound {bound / 1e6:.2f} MB"
        del M


def _dense_A(m, n, rng):
    """A dense-filled ``A`` with its dense copy built, so a trace that
    starts afterwards sees the assembly only.  Rows 0 and 1 are equal with
    squared norm 9: the second pivot of ``A A^T`` is 9 - 3 * 3 = 0."""
    B = rng.standard_normal((m, n))
    B[:2] = 0.0
    B[:2, :3] = [1.0, 2.0, 2.0]
    A = SparseMatrix.from_dense(B)
    assert A._dense is not None
    return A


def test_dense_assembly_holds_b_and_one_array():
    # the benchmark's dense_tail size
    m, n = 280, 630
    A = _dense_A(m, n, np.random.default_rng(5))
    d = np.random.default_rng(6).uniform(0.5, 2.0, n)
    M, peak = _traced_peak(lambda: form_normal_matrix(A, d))
    bound = DENSE_ASSEMBLY_BOUND * 8 * (m * n + m * m)
    assert peak <= bound, f"peak {peak / bound:.2f} x the bound"


def test_dense_shifted_factorization_adds_no_array():
    m, n = 280, 630
    A = _dense_A(m, n, np.random.default_rng(7))
    M = form_normal_matrix(A, np.ones(n))
    f, peak = _traced_peak(lambda: cholesky_factorize(M))
    assert f.diag_regularization > 0.0  # the unshifted attempt failed
    assert peak < 8 * m * m, f"peak {peak / (8 * m * m):.2f} x 8m²"
